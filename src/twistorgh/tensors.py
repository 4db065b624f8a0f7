"""Pointwise tensors of the product twistor space over oriented Euclidean R^4.

A point of the product twistor space is a pair J = (J1, J2) of compatible
complex structures with orientation signs.  Tangent vectors split into a
horizontal R^4 part and a vertical pair (V1, V2) of skew endomorphisms
anticommuting with J1 and J2.  For parameters t = (t1, t2), t1, t2 > 0, and a
structure index n in {1, 2, 3, 4}:

    H_t(X^h + V, Y^h + W) = <X, Y> + t1 G(V1, W1) + t2 G(V2, W2),
    Jn X^h = (J1 X)^h,     Jn (V1, V2) = (k1 J1 V1, k2 J2 V2),

with vertical signs (k1, k2) = (+,+), (+,-), (-,+), (-,-) for n = 1..4.  The
fundamental 2-form is Omega(A, B) = H_t(Jn A, B).  Its covariant derivative is
evaluated pointwise in a normal frame, so all formulas are algebraic in a
symmetric 6x6 curvature operator R acting on two-vectors:

    (D_{Z^h} Omega)(X^h, Y^h) = 0,
    (D_V Omega)(X^h, Y^h)     = <V1 X, Y> - <R q(V), X^J1Y + J1X^Y>,
    (D_{Z^h} Omega)(X^h, V)   = (-1)^n <R p(V), Z^X> + <R q(V), Z^J1X>,
    (D_W Omega)(X^h, V) = (D_{Z^h} Omega)(U, V) = (D_W Omega)(U, V) = 0,

with p(V) = sigma(n) t1 V1^ + t2 V2^, q(V) = t1 (J1 V1)^ + t2 (J2 V2)^ and
sigma = +1 for n in {1, 4}, -1 for n in {2, 3}.  ``frame_tensor`` builds
D Omega and Jn in an H_t-orthonormal frame straight from the sphere points:
R p and R q of each vertical frame vector are signed copies of R applied to
the structures' basis rows, and the nonzero blocks

    T[4+k, b, c] = (V1_k + J1 rqe_k - rqe_k J1)[c, b],
    T[a, b, 4+k] = ((-1)^n rpe_k - J1 rqe_k)[b, a] = -T[a, 4+k, b]

follow from a few stacked products (see its docstring).  The frame tensor is
the only route of the classifier and the theorem suite: they derive D Omega,
d Omega, delta Omega and the Nijenhuis pairing from it.  Closed forms of the
last three are the oracles ``selftest`` compares it with: ``ext_deriv_omega``,
``codiff_omega`` and ``nijenhuis_closed_form``.  Their arguments are frame
coefficients: an array x of shape (..., 8) stands for sum_a x[a] E_a in the
frame of ``frame_vectors``, a tangent whatever its values, so no argument is
checked.  An evaluator broadcasts its coefficient arrays to the leading axes
they share with the point, the operators and the weights, stacks them and
builds their vectors with one ``frame_vectors`` call; but for the Nijenhuis
form, it views the stack once (``_ArgView``) and passes the view's slices to
its kernel.  The classifier's route and the closed forms share no code above
``fourdim`` except the sign tables, so the oracles compare independent routes.
``nijenhuis_closed_form`` writes its signs out from n instead of taking EPS
and SIGMA, so a corrupted sign table is caught: the tests negate SIGMA and see
the nijenhuis-identity oracle fail.  The single-fibre forms
``single_cov_deriv``, ``single_ext_deriv`` and ``single_codiff`` evaluate the
structure of one twistor fibre bundle on a code path of their own, with their
signs written out too; ``selftest``'s restriction oracle compares them with
the classifier's contractions of the frame tensor on first-factor arguments,
the coefficients of E_0..E_5.  H_t, Jn and Omega have no public evaluator
here: the frame tensor carries Jn as the matrix M, and the tests keep the H_t
formula and their reference for Jn in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourdim import (
    OrientedComplexStructure4,
    endo_of_two_vector,
    two_vector_of_endo,
    wedge_of_pair,
)

#: (-1)^n
EPS = {1: -1.0, 2: 1.0, 3: -1.0, 4: 1.0}
#: first-factor sign in the mixed-derivative formula ("+" for n = 1, 4)
SIGMA = {1: 1.0, 2: -1.0, 3: -1.0, 4: 1.0}
#: vertical action of Jn: (k1 J1 V1, k2 J2 V2)
KSIGNS = {1: (1.0, 1.0), 2: (1.0, -1.0), 3: (-1.0, 1.0), 4: (-1.0, -1.0)}

#: the rows R w_j behind R p_k (k = 0..3), then R q_k: q_k turns w_k into u x w_k
_PQ_ROWS = np.array([0, 1, 2, 3, 1, 0, 3, 2])


@dataclass(frozen=True)
class Params:
    """Metric weights (t1, t2) and structure index n; the weights may be arrays
    with the leading axes of a stacked point, one pair per point.  They are
    taken as given: ``classifier.classify`` checks the weights and n of a call."""

    t1: float
    t2: float
    n: int


@dataclass(frozen=True, eq=False)
class ProductTwistorPoint:
    """A point (J1, J2); stacked structures of equal leading shape give a stack of
    points.  A stack is not indexed: a caller that needs part of it builds that
    part's structures from their own sphere rows."""

    j1: OrientedComplexStructure4
    j2: OrientedComplexStructure4


@dataclass(frozen=True, eq=False)
class GTangent:
    """A tangent: the horizontal 4-vector and the vertical pair (V1, V2), as
    ``frame_vectors`` builds it from frame coefficients."""

    horizontal: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


# --- almost complex structure -------------------------------------------------

def _apply(m, x):
    """m x for vectors x; leading axes of x and the matrix stack m broadcast."""
    return (m @ x[..., None])[..., 0]


def _w(t, k: int):
    """Weights t with k unit axes appended, to broadcast against k-axis parts."""
    return t if np.isscalar(t) else np.reshape(t, np.shape(t) + (1,) * k)


def _op(rmat, v):
    """R v for two-vectors v; a stack of operators broadcasts like a stacked point."""
    return v @ np.transpose(rmat) if np.ndim(rmat) == 2 else _apply(rmat, v)


def _acs_unchecked(p: ProductTwistorPoint, params: Params, a: GTangent) -> GTangent:
    # Jn a; a may be stacked along leading axes whose trailing ones broadcast
    # against the axes of a stacked point
    k1, k2 = KSIGNS[params.n]
    j1, j2 = p.j1.matrix, p.j2.matrix
    return GTangent(_apply(j1, a.horizontal), k1 * (j1 @ a.v1), k2 * (j2 @ a.v2))


# --- internal views (shared by all derivative evaluators) ---------------------

class _ArgView:
    """Per-argument data: horizontal parts and curvature-weighted wedges.

    ``rpe``/``rqe`` are the endomorphisms of R p(V) and R q(V), so pairings
    <R p(V), u ^ v> reduce to v . (rpe @ u) without forming wedge vectors.
    The argument, the vectors ``frame_vectors`` builds from frame coefficients,
    may be stacked along leading axes; every field then carries them, and a
    stacked point, operator (..., 6, 6) and weights broadcast against the
    trailing ones.  Indexing a view indexes every field, so ``view[i]`` of a
    view of arguments stacked on a first axis is the view of argument i, built
    without calling ``__init__``.
    """

    __slots__ = ("X", "jX", "V1", "rq", "rpe", "rqe")

    def __init__(self, p: ProductTwistorPoint, rmat, params: Params, a: GTangent):
        n = params.n
        v1, v2 = a.v1, a.v2
        wedges = two_vector_of_endo(np.stack((v1, v2, p.j1.matrix @ v1, p.j2.matrix @ v2)))
        t1, t2 = _w(params.t1, 1), _w(params.t2, 1)
        p6 = SIGMA[n] * t1 * wedges[0] + t2 * wedges[1]
        q6 = t1 * wedges[2] + t2 * wedges[3]
        self.X = np.asarray(a.horizontal, dtype=float)
        self.jX = _apply(p.j1.matrix, self.X)
        self.V1 = v1
        self.rq = _op(rmat, q6)
        self.rpe = endo_of_two_vector(_op(rmat, p6))
        self.rqe = endo_of_two_vector(self.rq)

    def __getitem__(self, i) -> "_ArgView":
        view = object.__new__(_ArgView)
        for name in self.__slots__:
            setattr(view, name, getattr(self, name)[i])
        return view


def _dot(x, y):
    """x . y, broadcast over leading axes; unstacked arguments give a scalar."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0][()]


def _pair(x, m, y):
    """x . (m y), broadcast over leading axes; unstacked arguments give a scalar."""
    return (x[..., None, :] @ (m @ y[..., :, None]))[..., 0, 0][()]


def _dcov(params: Params, av: _ArgView, bv: _ArgView, cv: _ArgView):
    """(D_A Omega)(B, C); stacked views broadcast against each other."""
    e = EPS[params.n]
    # vertical A, horizontal B, C
    val = _pair(cv.X, av.V1, bv.X) - (_pair(cv.jX, av.rqe, bv.X) + _pair(cv.X, av.rqe, bv.jX))
    # horizontal A, B; vertical C
    val += e * _pair(bv.X, cv.rpe, av.X) + _pair(bv.jX, cv.rqe, av.X)
    # horizontal A, C; vertical B (antisymmetry in the last two slots)
    val -= e * _pair(cv.X, bv.rpe, av.X) + _pair(cv.jX, bv.rqe, av.X)
    return val


def _dext(params: Params, av: _ArgView, bv: _ArgView, cv: _ArgView) -> float:
    e = EPS[params.n]

    def hv(xv: _ArgView, yv: _ArgView, vv: _ArgView) -> float:
        return _pair(yv.X, vv.V1, xv.X) + 2.0 * e * _pair(yv.X, vv.rpe, xv.X)

    return hv(av, bv, cv) + hv(bv, cv, av) + hv(cv, av, bv)


def _dcodiff(p: ProductTwistorPoint, av: _ArgView) -> float:
    return -2.0 * _dot(av.rq, p.j1.wedge)


# --- public evaluators --------------------------------------------------------
#
# Each argument is an array (..., 8) of frame coefficients, the tangent
# sum_a x[a] E_a of ``frame_vectors``.  The arguments broadcast against each
# other and against the leading axes of a stacked point, operators (..., 6, 6)
# and weights (``_stacked_args``), so unstacked arguments at a stacked point
# give one value per point.  Unstacked calls return scalars.

def _stacked_args(p: ProductTwistorPoint, rmat, params: Params, *args) -> np.ndarray:
    """The arguments broadcast to the leading axes they share with each other,
    the point, the operators and the weights, stacked on a new first axis."""
    lead = np.broadcast_shapes(p.j1.matrix.shape[:-2], np.shape(rmat)[:-2], np.shape(params.t1),
                               np.shape(params.t2), *(np.shape(x)[:-1] for x in args))
    return np.stack([np.broadcast_to(x, lead + np.shape(x)[-1:]) for x in args])


def ext_deriv_omega(p: ProductTwistorPoint, rmat, params: Params, a, b, c) -> float:
    """d Omega(A, B, C); fully antisymmetric."""
    abc = _stacked_args(p, rmat, params, a, b, c)
    v = _ArgView(p, rmat, params, frame_vectors(p, params, abc))
    return _dext(params, v[0], v[1], v[2])


def codiff_omega(p: ProductTwistorPoint, rmat, params: Params, a) -> float:
    """delta Omega(A) = -2 <R q(V), J1^> on verticals, 0 on horizontals."""
    return _dcodiff(p, _ArgView(p, rmat, params, frame_vectors(p, params, a)))


def frame_vectors(p: ProductTwistorPoint, params: Params, coeffs) -> GTangent:
    """sum_a coeffs[..., a] E_a in the H_t-orthonormal frame (E_a): the lifts
    E_0..E_3 of e1..e4, then E_{4+k} = w_k / sqrt(t1) (k = 0, 1) and w_k / sqrt(t2)
    (k = 2, 3) for the basis rows (w_0, w_1) of J1 and (w_2, w_3) of J2.  Leading
    axes of ``coeffs`` give a stacked vector and broadcast against the axes of a
    stacked point and its weights."""
    c = np.asarray(coeffs, dtype=float)
    v1 = (c[..., None, 4:6] @ p.j1.basis)[..., 0, :] / np.sqrt(_w(params.t1, 1))
    v2 = (c[..., None, 6:8] @ p.j2.basis)[..., 0, :] / np.sqrt(_w(params.t2, 1))
    return GTangent(c[..., :4], endo_of_two_vector(v1), endo_of_two_vector(v2))


def frame_tensor(p: ProductTwistorPoint, rmat, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """D Omega and Jn in the frame (E_a) of ``frame_vectors``.

    T[a, b, c] = (D_{E_a} Omega)(E_b, E_c) and M[b, a] = H_t(E_b, Jn E_a), so
    for A = sum_a x[a] E_a the coefficients of Jn A are M @ x.  ``rmat`` is a
    6x6 array, or one per point, already validated by the caller.  A stacked
    point gives T and M with its leading axes in front, one (8, 8, 8) and
    (8, 8) per point, each from its own operator and weights if those stack.

    The vertical E_{4+k} are w_k / sqrt(t1) (k = 0, 1) and w_k / sqrt(t2)
    (k = 2, 3) for the basis rows (``OrientedComplexStructure4.basis``) of J1
    and J2.  With s1, s2 the orientation signs, (J V)^ = s u x V^ and
    u x w_a = w_b, u x w_b = -w_a, so R p and R q of E_{4+k} are signed
    copies of the rows R w_j and no product with J is formed:

        R p_k = sigma(n) sqrt(t1) R w_k,  R q_k = s1 sqrt(t1) R (w_1, -w_0)_k   (k = 0, 1)
        R p_k = sqrt(t2) R w_k,           R q_k = s2 sqrt(t2) R (w_3, -w_2)_k   (k = 2, 3)

    With rpe_k, rqe_k their endomorphisms, V1_k the endomorphism of w_k / sqrt(t1)
    (zero for k = 2, 3), a, b, c < 4 and J1^T = -J1, so that rqe_k J1 is the
    transpose of J1 rqe_k, the nonzero blocks are

        T[4+k, b, c] = (V1_k + J1 rqe_k - rqe_k J1)[c, b]
        T[a, b, 4+k] = ((-1)^n rpe_k - J1 rqe_k)[b, a] = -T[a, 4+k, b]
        M = blockdiag(J1, -k1 s1 J_std, -k2 s2 J_std),  J_std = [[0, 1], [-1, 0]]

    with (k1, k2) = KSIGNS[n].
    """
    j1, j2 = p.j1, p.j2
    sq1, sq2 = np.sqrt(_w(params.t1, 2)), np.sqrt(_w(params.t2, 2))
    rw = np.concatenate((sq1 * j1.basis, sq2 * j2.basis), axis=-2) @ np.swapaxes(rmat, -1, -2)
    e = EPS[params.n]
    ep = e * SIGMA[params.n]
    coef = np.array([ep, ep, e, e, j1.sign, -j1.sign, j2.sign, -j2.sign])[:, None]
    ends = endo_of_two_vector(rw[..., _PQ_ROWS, :] * coef)  # (-1)^n rpe_k, then rqe_k
    a = j1.matrix[..., None, :, :] @ ends[..., 4:, :, :]  # J1 rqe_k; rqe_k J1 is its transpose
    t = np.zeros(a.shape[:-3] + (8, 8, 8))
    np.subtract(np.swapaxes(a, -1, -2), a, out=t[..., 4:, :4, :4])
    t[..., 4:6, :4, :4] -= endo_of_two_vector(j1.basis / sq1)  # V1_k[c, b] = -V1_k[b, c]
    np.subtract(ends[..., :4, :, :], a, out=np.swapaxes(t[..., :4, :4, 4:], -3, -1))
    np.negative(np.swapaxes(t[..., :4, :4, 4:], -1, -2), out=t[..., :4, 4:, :4])
    k1, k2 = KSIGNS[params.n]
    m = np.zeros(a.shape[:-3] + (8, 8))
    m[..., :4, :4] = j1.matrix
    m[..., 4, 5], m[..., 6, 7] = -k1 * j1.sign, -k2 * j2.sign
    m[..., 5, 4], m[..., 7, 6] = k1 * j1.sign, k2 * j2.sign
    return t, m


def nijenhuis_closed_form(p: ProductTwistorPoint, rmat, params: Params, a, b, c) -> float:
    """H_t(N(A, B), C) in closed form; an oracle for the classifier's N condition.

    The signs (-1)^n and sigma(n) are written out here rather than read from
    EPS and SIGMA, so corrupting those tables is detectable.
    """
    g = frame_vectors(p, params, _stacked_args(p, rmat, params, a, b, c))
    n = params.n
    e = -1.0 if n % 2 else 1.0
    sigma = 1.0 if n in (1, 4) else -1.0
    j1 = p.j1.matrix
    j2 = p.j2.matrix
    t1, t2 = _w(params.t1, 1), _w(params.t2, 1)

    (ax, bx, cx), (av1, bv1, cv1), cv2 = g.horizontal, g.v1, g.v2[2]
    pc = sigma * t1 * two_vector_of_endo(cv1) + t2 * two_vector_of_endo(cv2)
    qc = t1 * two_vector_of_endo(j1 @ cv1) + t2 * two_vector_of_endo(j2 @ cv2)
    jax, jbx = _apply(j1, ax), _apply(j1, bx)

    val = (2.0 * e * _pair(wedge_of_pair(ax, jbx) + wedge_of_pair(jax, bx), rmat, pc)
           - 2.0 * _pair(wedge_of_pair(ax, bx) - wedge_of_pair(jax, jbx), rmat, qc))
    if n in (3, 4):
        val = val + 2.0 * (_pair(cx, j1 @ bv1, ax) - _pair(cx, j1 @ av1, bx))
    return val


# --- single-fibre forms (independent code path for selftest's restriction) ---

def single_cov_deriv(j: OrientedComplexStructure4, rmat, t: float, k: int,
                     horizontal, vertical) -> float:
    """(D_A Omega_k)(B, C) for the structure k in {1, 2} on one fibre bundle,
    for A, B, C with the R^4 parts ``horizontal`` and the vertical
    endomorphisms ``vertical``.

    k = 1 acts on verticals by V -> J V, k = 2 by V -> -J V; the mixed
    component carries the sign -1 for k = 1 and +1 for k = 2.
    """
    sgn = -1.0 if k == 1 else 1.0
    jm = j.matrix
    tw = _w(t, 1)

    def rp(v, w):  # <R p(V), w>
        return _pair(w, rmat, sgn * tw * two_vector_of_endo(v))

    def rq(v, w):  # <R q(V), w>
        return _pair(w, rmat, tw * two_vector_of_endo(jm @ v))

    (ax, bx, cx), (av, bv, cv) = horizontal, vertical
    jbx, jcx = _apply(jm, bx), _apply(jm, cx)
    val = _pair(cx, av, bx) - rq(av, wedge_of_pair(bx, jcx) + wedge_of_pair(jbx, cx))
    val = val + rp(cv, wedge_of_pair(ax, bx)) + rq(cv, wedge_of_pair(ax, jbx))
    return val - (rp(bv, wedge_of_pair(ax, cx)) + rq(bv, wedge_of_pair(ax, jcx)))


def single_ext_deriv(rmat, t: float, k: int, horizontal, vertical) -> float:
    sgn = -1.0 if k == 1 else 1.0

    def hv(x, y, v) -> float:  # x, y horizontal, v vertical
        rv = _w(t, 1) * two_vector_of_endo(v)
        return _pair(y, v, x) + 2.0 * sgn * _pair(wedge_of_pair(x, y), rmat, rv)

    (ax, bx, cx), (av, bv, cv) = horizontal, vertical
    return hv(ax, bx, cv) + hv(bx, cx, av) + hv(cx, ax, bv)


def single_codiff(j: OrientedComplexStructure4, rmat, t: float, vertical) -> float:
    """delta Omega(A) on one fibre bundle, for A with the vertical endomorphism ``vertical``."""
    return -2.0 * t * _pair(j.wedge, rmat, two_vector_of_endo(j.matrix @ vertical))
