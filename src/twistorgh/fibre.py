"""Twistor-fibre linear algebra over an even-dimensional Euclidean space.

The fibre over a Euclidean space (T, g) of dimension 2m is the set Z(T, g) of
g-orthogonal complex structures J (skew with J @ J = -Id), an embedded
submanifold of the space so(g) of skew-symmetric endomorphisms.  This module
implements the pointwise algebra of that picture: the trace metric
G(a, b) = -1/2 trace(a b), the projection onto the tangent space at a point J
and the Levi-Civita derivative of a tangent vector field, given as a plain
function on so(g) and differentiated by central differences, with which
``selftest`` checks that the fibre Kaehler structure V -> J o V is parallel.
The isometry between so(g) and 2-vectors is implemented for dimension four,
in ``fourdim``.

Coordinates are always orthonormal: g is the identity bilinear form in the
stored coordinates.  No function here checks its input: callers pass an even
dimension, and structures J, tangent vectors and skews that are valid by
construction, as the seeded draws below build them.
"""

from __future__ import annotations

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


def fibre_levi_civita(evaluate, x, j) -> np.ndarray:
    """(D_X Y)_J for X tangent at J, with Y given by ``evaluate``, an so(g)-valued
    function on so(g) that is tangent along the fibre: the tangent projection at J
    of the ambient derivative Y'(J)(X), taken by central differences with step
    ``FD_STEP``."""
    plus = np.asarray(evaluate(j + FD_STEP * x), dtype=float)
    minus = np.asarray(evaluate(j - FD_STEP * x), dtype=float)
    return tangent_projection(j, (plus - minus) / (2.0 * FD_STEP))


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
