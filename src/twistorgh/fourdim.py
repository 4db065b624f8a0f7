"""Two-vectors of oriented Euclidean R^4 and the sphere model of the fibre.

All 6-component vectors use one fixed ordered basis

    (s1+, s2+, s3+, s1-, s2-, s3-),
    s1pm = (e1^e2 pm e3^e4)/sqrt2,
    s2pm = (e1^e3 pm e4^e2)/sqrt2,
    s3pm = (e1^e4 pm e2^e3)/sqrt2,

built from the standard oriented orthonormal basis of R^4.  The first three
components span the self-dual half (Hodge eigenvalue +1), the last three the
anti-self-dual half, so the Hodge star is the sign pattern (1, 1, 1, -1, -1, -1)
and the split into halves is the slices v[:3], v[3:].

A skew endomorphism a corresponds to the 2-vector a^ with
g(a^, x^y) = g(a x, y).  The map so(g) -> Lambda^2 (``two_vector_of_endo``,
inverse ``endo_of_two_vector``; ``wedge_of_pair`` gives x^y) is a linear
isometry for the trace metric G of ``fibre`` and the 2-vector metric
g(x1^x2, x3^x4) = g(x1,x3) g(x2,x4) - g(x1,x4) g(x2,x3).

Compatible complex structures inducing +/- the orientation correspond to the
points u of the unit sphere of the matching half, J^ = sqrt2 u, and are stored
as u with the half's sign, 1 or -1 (unchecked: the signs come from the
classifier's components or are literals).  Their tangent (vertical)
directions are the orthogonal complement of u inside that half, spanned by
the basis rows (w_a, w_b) of the structure: with c = u_1, s = |(u_2, u_3)|
and a = (u_2, u_3) / s,

    w_j = e_j - a_j (s e1 + (1 - c) (0, a)),    j = 2, 3,

which is e_j - u_j (e1 + f (0, u_2, u_3)) with f = (1 - c) / s^2: the images
of e2 and e3 under Rodrigues's rotation about e1 x u taking e1 to u, accurate
however close u is to a pole.  They complete u to an oriented orthonormal
triad, u x w_a = w_b and u x w_b = -w_a.  At the poles a = (0, 1): the rows
of e1 are (e2, e3), and the antipode -e1 gets the fixed pair (e2, -e3) of the
rotation by pi about the second axis, so frames are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQRT2 = float(np.sqrt(2.0))
_IU4 = np.triu_indices(4, 1)
#: flat positions of the entries a[j, i], i < j, of a 4x4 matrix a
_LOWER_FLAT = 4 * _IU4[1] + _IU4[0]
_L = 1.0 / SQRT2

#: change of basis from lexicographic (e12, e13, e14, e23, e24, e34) to the
#: global s-basis; orthogonal.
LEX_TO_S = np.array([
    [_L, 0.0, 0.0, 0.0, 0.0, _L],
    [0.0, _L, 0.0, 0.0, -_L, 0.0],
    [0.0, 0.0, _L, _L, 0.0, 0.0],
    [_L, 0.0, 0.0, 0.0, 0.0, -_L],
    [0.0, _L, 0.0, 0.0, _L, 0.0],
    [0.0, 0.0, _L, -_L, 0.0, 0.0],
])

_S_TO_LEX = LEX_TO_S.T.copy()


def wedge_of_pair(x, y) -> np.ndarray:
    """s-basis coefficients of x ^ y for x, y in R^4; leading axes broadcast."""
    c = np.asarray(x, dtype=float)[..., :, None] * np.asarray(y, dtype=float)[..., None, :]
    c = c - np.swapaxes(c, -1, -2)
    return c[..., _IU4[0], _IU4[1]] @ _S_TO_LEX


def two_vector_of_endo(a) -> np.ndarray:
    """s-basis coefficients of a^ for skew 4x4 endomorphism(s) a; leading axes are kept."""
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape[:-2] + (16,)).take(_LOWER_FLAT, axis=-1) @ _S_TO_LEX


#: endomorphisms S_ij of the lexicographic two-vectors e_i ^ e_j, i < j:
#: S_ij e_i = e_j and S_ij e_j = -e_i
_LEX_ENDOS = np.zeros((6, 4, 4))
_LEX_ENDOS[range(6), _IU4[1], _IU4[0]] = 1.0
_LEX_ENDOS[range(6), _IU4[0], _IU4[1]] = -1.0

#: endomorphisms of the six s-basis two-vectors
S_BASIS_ENDOS = np.tensordot(LEX_TO_S, _LEX_ENDOS, 1)
_S_ENDOS_FLAT = S_BASIS_ENDOS.reshape(6, 16)


def endo_of_two_vector(v) -> np.ndarray:
    """Skew endomorphism of the two-vector(s) ``v``; leading axes are kept."""
    v = np.asarray(v, dtype=float)
    return (v @ _S_ENDOS_FLAT).reshape(v.shape[:-1] + (4, 4))


def embed_half(u3, sign: int) -> np.ndarray:
    """The two-vector(s) whose half ``sign`` (1 or -1) is u3; leading axes are kept."""
    u3 = np.asarray(u3, dtype=float)
    v = np.zeros(u3.shape[:-1] + (6,))
    v[..., slice(0, 3) if sign == 1 else slice(3, 6)] = u3
    return v


_E23 = np.eye(3)[1:]


def _basis_rows(u, sign: int) -> np.ndarray:
    """The basis rows (w_a, w_b) of the unit vectors u of the half ``sign``, as
    two-vectors stacked (..., 2, 6)."""
    s = np.hypot(u[..., 1:2], u[..., 2:])
    a = np.zeros(u.shape[:-1] + (2,))
    a[..., 1] = 1.0  # the poles' a
    np.divide(u[..., 1:], s, out=a, where=s > 0.0)
    v = np.concatenate((s, (1.0 - u[..., :1]) * a), axis=-1)  # s e1 + (1 - c) (0, a)
    return embed_half(_E23 - a[..., :, None] * v[..., None, :], sign)


@dataclass(frozen=True, eq=False)
class OrientedComplexStructure4:
    """The complex structure of a sphere point: the unit vector ``u`` of the half ``sign``.

    The constructor normalises ``u``; ``wedge`` is the two-vector sqrt2 u,
    ``matrix`` its endomorphism and ``basis`` the two-vectors of the basis rows
    (w_a, w_b), stacked (..., 2, 6), which span the vertical directions.
    Leading axes of ``u`` give a stack of structures.
    """

    u: np.ndarray
    sign: int
    wedge: np.ndarray = field(init=False)
    matrix: np.ndarray = field(init=False)
    basis: np.ndarray = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        u = u / np.linalg.norm(u, axis=-1, keepdims=True)
        wedge = SQRT2 * embed_half(u, self.sign)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "wedge", wedge)
        object.__setattr__(self, "matrix", endo_of_two_vector(wedge))
        object.__setattr__(self, "basis", _basis_rows(u, self.sign))

