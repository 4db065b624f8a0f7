"""Seeded random points and vertical vectors of the four-dimensional sphere
model, the vertical basis of a structure, the halves of a two-vector, a
block-by-block strict-operator draw and a corrupted sign table for the tests
of the oracles, the lexicographic S_ab basis of so(dim), and assertions that a
matrix is tangent at J or is a complex structure."""

import numpy as np

from twistorgh import curvature as cur, fourdim as fd, tensors as tn


def lex_pairs(dim: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order (0-based)."""
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def make_S_basis(dim: int) -> list[np.ndarray]:
    """G-orthonormal basis {S_ab : a < b} of so(dim), S_ab e_a = e_b, S_ab e_b = -e_a."""
    out = []
    for a, b in lex_pairs(dim):
        s = np.zeros((dim, dim))
        s[b, a] = 1.0
        s[a, b] = -1.0
        out.append(s)
    return out


def assert_tangent(j, v, tol: float = 1e-10) -> np.ndarray:
    """Assert that v is tangent at J: skew, with JV + VJ = 0, to ``tol``; a NaN fails."""
    assert np.max(np.abs(v + v.T)) <= tol
    assert np.max(np.abs(j @ v + v @ j)) <= tol
    return v


def assert_complex_structure(j, tol: float = 1e-10) -> None:
    """Assert that J is skew with J J = -Id, to ``tol``; a NaN fails."""
    assert np.max(np.abs(j + j.T)) <= tol
    assert np.max(np.abs(j @ j + np.eye(len(j)))) <= tol


def random_ocs(sign: int, rng) -> fd.OrientedComplexStructure4:
    return fd.OrientedComplexStructure4(rng.standard_normal(3), sign)


def half(v, sign: int) -> np.ndarray:
    """The 3-vector(s) of the half ``sign`` of the two-vector(s) v; leading axes are kept."""
    v = np.asarray(v, dtype=float)
    return v[..., :3] if sign == 1 else v[..., 3:]


def vertical_pair(ocs: fd.OrientedComplexStructure4) -> tuple[np.ndarray, np.ndarray]:
    """The endomorphisms of the basis rows of ``ocs``: the vertical parts of the
    frame vectors E_4 and E_5 of ``tensors.frame_vectors`` at a point whose first
    factor is ``ocs``, at unit weights.  A stacked ``ocs`` gives stacked pairs."""
    lead = np.shape(ocs.u)[:-1]
    coeffs = np.eye(8)[4:6].reshape((2,) + (1,) * len(lead) + (8,))
    e = tn.frame_vectors(tn.ProductTwistorPoint(ocs, ocs), tn.Params(1.0, 1.0, 1), coeffs)
    return e.v1[0], e.v1[1]


def random_vertical_endo(ocs: fd.OrientedComplexStructure4, rng, scale: float = 1.0) -> np.ndarray:
    u2, u3 = vertical_pair(ocs)
    c = rng.standard_normal(2) * scale
    return c[0] * u2 + c[1] * u3


def drawn_strict_operator(rng) -> np.ndarray:
    """A strict operator drawn block by block, written out apart from the
    package's builder: a scalar normal for s, then (3, 3) draws for B, W+ and
    W-, the last two symmetrised and made traceless, then ``compose``."""
    def traceless_symmetric(a):
        a = 0.5 * (a + a.T)
        a -= (np.trace(a) / 3.0) * np.eye(3)
        return a

    s = float(12.0 * rng.standard_normal())
    b = rng.standard_normal((3, 3))
    wplus = traceless_symmetric(rng.standard_normal((3, 3)))
    wminus = traceless_symmetric(rng.standard_normal((3, 3)))
    return cur.compose(s, b, wplus, wminus)


def negate_sign_table(monkeypatch):
    """Flip tensors.SIGMA, which the frame tensor and the derivative evaluators
    read and the Nijenhuis closed form does not; undone at the end of the test."""
    for n, sigma in list(tn.SIGMA.items()):
        monkeypatch.setitem(tn.SIGMA, n, -sigma)
