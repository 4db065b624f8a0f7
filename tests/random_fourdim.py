"""Seeded random points and vertical vectors of the four-dimensional sphere model,
the halves of a two-vector, a block-by-block strict-operator draw and a corrupted sign table for the tests
of the oracles."""

import numpy as np

from twistorgh import curvature as cur, fourdim as fd, tensors as tn


def random_ocs(sign: int, rng) -> fd.OrientedComplexStructure4:
    return fd.OrientedComplexStructure4(rng.standard_normal(3), sign)


def half(v, sign: int) -> np.ndarray:
    """The 3-vector(s) of the half ``sign`` of the two-vector(s) v; leading axes are kept."""
    v = np.asarray(v, dtype=float)
    return v[..., :3] if sign == 1 else v[..., 3:]


def random_vertical_endo(ocs: fd.OrientedComplexStructure4, rng, scale: float = 1.0) -> np.ndarray:
    u2, u3 = fd.vertical_basis(ocs)
    c = rng.standard_normal(2) * scale
    return c[0] * u2 + c[1] * u3


def drawn_strict_operator(rng, scale: float = 1.0) -> np.ndarray:
    """A strict operator drawn block by block, written out apart from the
    package's builder: a scalar normal for s, then (3, 3) draws for B, W+ and
    W-, the last two symmetrised and made traceless, then ``compose``."""
    def traceless_symmetric(a):
        a = 0.5 * (a + a.T)
        a -= (np.trace(a) / 3.0) * np.eye(3)
        return scale * a

    s = float(scale * 12.0 * rng.standard_normal())
    b = scale * rng.standard_normal((3, 3))
    wplus = traceless_symmetric(rng.standard_normal((3, 3)))
    wminus = traceless_symmetric(rng.standard_normal((3, 3)))
    return cur.compose(s, b, wplus, wminus)


def negate_sign_table(monkeypatch):
    """Flip tensors.SIGMA, which the frame tensor and the derivative evaluators
    read and the Nijenhuis closed form does not; undone at the end of the test."""
    for n, sigma in list(tn.SIGMA.items()):
        monkeypatch.setitem(tn.SIGMA, n, -sigma)
