"""Seeded random points and vertical vectors of the four-dimensional sphere model."""

import numpy as np

from twistorgh import fourdim as fd


def random_ocs(sign: int, rng) -> fd.OrientedComplexStructure4:
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    return fd.sphere_to_J(fd.embed_half(u, sign), sign)


def random_vertical_endo(ocs: fd.OrientedComplexStructure4, rng, scale: float = 1.0) -> np.ndarray:
    u2, u3 = fd.vertical_basis(ocs)
    c = rng.standard_normal(2) * scale
    return c[0] * u2 + c[1] * u3
