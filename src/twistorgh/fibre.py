"""Twistor-fibre linear algebra over an even-dimensional Euclidean space.

The fibre over a Euclidean space (T, g) of dimension 2m is the set Z(T, g) of
g-orthogonal complex structures J (skew with J @ J = -Id), an embedded
submanifold of the space so(g) of skew-symmetric endomorphisms.  This module
implements the pointwise algebra of that picture: the trace metric
G(a, b) = -1/2 trace(a b), the projection onto the tangent space at a point J
and the Levi-Civita derivative of tangent vector fields, with which
``selftest`` checks that the fibre Kaehler structure V -> J o V is parallel.
The isometry between so(g) and 2-vectors is implemented for dimension four,
in ``fourdim``.

Coordinates are always orthonormal: g is the identity bilinear form in the
stored coordinates.  No function here checks its input: callers pass an even
dimension, and structures J, tangent vectors and skews that are valid by
construction, as the seeded draws below build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: central-difference step for vector-field derivatives
FD_STEP = 1e-5


def inner_G(a, b) -> float:
    """Trace metric G(a, b) = -1/2 trace(a b); positive definite on skews.
    Stacks of matrices along leading axes broadcast."""
    return -0.5 * np.einsum("...ij,...ji->...", a, b)[()]


def standard_complex_structure(dim: int) -> np.ndarray:
    """J with J e_{2i-1} = e_{2i} in 1-based labels."""
    j = np.zeros((dim, dim))
    for i in range(0, dim, 2):
        j[i + 1, i] = 1.0
        j[i, i + 1] = -1.0
    return j


def tangent_projection(j, q) -> np.ndarray:
    """G-orthogonal projection of a skew q onto the tangent space at J."""
    return 0.5 * (q + j @ q @ j)


@dataclass(frozen=True)
class FibreVectorField:
    """so(g)-valued function on so(g), tangent-valued along the fibre.

    ``derivative(j, x)`` is the ambient directional derivative Y'(j)(x),
    computed by central differences with step ``FD_STEP``.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]

    def derivative(self, j, x) -> np.ndarray:
        plus = np.asarray(self.evaluate(j + FD_STEP * x), dtype=float)
        minus = np.asarray(self.evaluate(j - FD_STEP * x), dtype=float)
        return (plus - minus) / (2.0 * FD_STEP)


def tangent_projection_field(q) -> FibreVectorField:
    """The field A -> (q + A q A)/2; along the fibre it is the tangent part of q."""
    return FibreVectorField(evaluate=lambda a: 0.5 * (q + a @ q @ a))


def fibre_levi_civita(field: FibreVectorField, x, j) -> np.ndarray:
    """(D_X Y)_J = (Y'(J)(X) + J o Y'(J)(X) o J) / 2 for X tangent at J."""
    d = field.derivative(j, x)
    return 0.5 * (d + j @ d @ j)


# --- random elements (seeded helpers used by tests and the self-test) -------

def random_orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_complex_structure(dim: int, rng) -> np.ndarray:
    q = random_orthogonal(dim, rng)
    return q @ standard_complex_structure(dim) @ q.T


def random_tangent(j, rng) -> np.ndarray:
    q = rng.standard_normal(j.shape)
    return tangent_projection(j, 0.5 * (q - q.T))
