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
D Omega and Jn in an H_t-orthonormal frame in closed form from their nonzero
blocks, with ``cov_deriv_omega`` (the general kernel ``_dcov``) as the tests'
oracle; the classifier derives d Omega, delta Omega and the Nijenhuis pairing
from it.  Closed forms of these three, independent of that route, are the
oracles ``selftest`` compares it with: ``ext_deriv_omega``, ``codiff_omega``
and ``nijenhuis_closed_form``, which writes its signs out from n instead of
taking EPS and SIGMA, so a corrupted sign table is caught: the tests negate
SIGMA and see the nijenhuis-identity oracle fail.  The single-fibre
restrictions (arguments with vanishing second factor) have their own code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fibre import inner_G
from .fourdim import (
    OrientedComplexStructure4,
    endo_of_two_vector,
    two_vector_of_endo,
    vertical_basis,
    wedge_of_pair,
)

#: (-1)^n
EPS = {1: -1.0, 2: 1.0, 3: -1.0, 4: 1.0}
#: first-factor sign in the mixed-derivative formula ("+" for n = 1, 4)
SIGMA = {1: 1.0, 2: -1.0, 3: -1.0, 4: 1.0}
#: vertical action of Jn: (k1 J1 V1, k2 J2 V2)
KSIGNS = {1: (1.0, 1.0), 2: (1.0, -1.0), 3: (-1.0, 1.0), 4: (-1.0, -1.0)}

VERTICAL_TOL = 1e-10

_EYE4 = np.eye(4)


class TangencyError(ValueError):
    """A vector that must be vertical at the given point is not."""


@dataclass(frozen=True)
class Params:
    """Metric weights (t1, t2) and structure index n; the weights may be arrays
    with the leading axes of a stacked point, one pair per point."""

    t1: float
    t2: float
    n: int

    def __post_init__(self):
        t = np.array((self.t1, self.t2))
        if not ((0.0 < t) & (t < np.inf)).all():
            raise ValueError(f"t1, t2 must be positive and finite, got ({self.t1}, {self.t2})")
        if self.n not in (1, 2, 3, 4):
            raise ValueError(f"n must be in 1..4, got {self.n}")


@dataclass(frozen=True, eq=False)
class ProductTwistorPoint:
    """A point (J1, J2); stacked structures of equal leading shape give a stack of points."""

    j1: OrientedComplexStructure4
    j2: OrientedComplexStructure4


@dataclass(frozen=True, eq=False)
class VerticalVector:
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True, eq=False)
class GTangent:
    horizontal: np.ndarray
    vertical: VerticalVector


def gtangent(horizontal=None, v1=None, v2=None) -> GTangent:
    """A tangent from its parts; a missing part is zero with the leading axes
    of the given parts, so stacked parts give a stacked tangent."""
    lead = np.broadcast_shapes(*(np.shape(x)[:-k] for x, k in ((horizontal, 1), (v1, 2), (v2, 2))
                                 if x is not None))
    h = np.zeros(lead + (4,)) if horizontal is None else np.asarray(horizontal, dtype=float)
    m1 = np.zeros(lead + (4, 4)) if v1 is None else np.asarray(v1, dtype=float)
    m2 = np.zeros(lead + (4, 4)) if v2 is None else np.asarray(v2, dtype=float)
    return GTangent(h, VerticalVector(m1, m2))


def check_vertical(p: ProductTwistorPoint, v: VerticalVector,
                   tol: float = VERTICAL_TOL) -> VerticalVector:
    """Each part skew and anticommuting with its structure, to ``tol`` times
    max(1, max|part|), so roundoff in a large vector is not read as a defect.
    A stacked vector is checked part by part, each against its own magnitude."""
    for jm, vm, label in ((p.j1.matrix, v.v1, "v1"), (p.j2.matrix, v.v2, "v2")):
        vm = np.asarray(vm, dtype=float)
        bound = tol * np.maximum(1.0, np.abs(vm).max(axis=(-2, -1)))
        err = np.abs(vm + np.swapaxes(vm, -1, -2)).max(axis=(-2, -1))
        if not (err <= bound).all():  # written so that a NaN fails
            raise TangencyError(f"vertical part {label} is not skew: {np.max(err):.3e}")
        err = np.abs(jm @ vm + vm @ jm).max(axis=(-2, -1))
        if not (err <= bound).all():
            raise TangencyError(
                f"vertical part {label} does not anticommute with the structure: {np.max(err):.3e}")
    return v


def check_gtangent(p: ProductTwistorPoint, a: GTangent) -> GTangent:
    if np.shape(a.horizontal)[-1:] != (4,):
        raise TangencyError("horizontal part must be a 4-vector")
    check_vertical(p, a.vertical)
    return a


# --- metric, structures, fundamental form ------------------------------------

def metric_Ht(p: ProductTwistorPoint, a: GTangent, b: GTangent, params: Params) -> float:
    check_gtangent(p, a)
    check_gtangent(p, b)
    return _metric(params, a, b)


def _metric(params: Params, a: GTangent, b: GTangent):
    # metric_Ht for arguments already checked
    return (_dot(a.horizontal, b.horizontal)
            + params.t1 * inner_G(a.vertical.v1, b.vertical.v1)
            + params.t2 * inner_G(a.vertical.v2, b.vertical.v2))


def acs(p: ProductTwistorPoint, a: GTangent, params: Params) -> GTangent:
    """Almost complex structure Jn: horizontal part by J1, vertical by Kn."""
    check_gtangent(p, a)
    return _acs_unchecked(p, params, a)


def omega(p: ProductTwistorPoint, a: GTangent, b: GTangent, params: Params) -> float:
    """Fundamental form Omega(A, B) = H_t(Jn A, B)."""
    return metric_Ht(p, acs(p, a, params), b, params)


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
    # acs for arguments valid by construction; a may be stacked along leading axes
    # whose trailing ones broadcast against the axes of a stacked point
    k1, k2 = KSIGNS[params.n]
    j1, j2 = p.j1.matrix, p.j2.matrix
    return GTangent(_apply(j1, a.horizontal),
                    VerticalVector(k1 * (j1 @ a.vertical.v1), k2 * (j2 @ a.vertical.v2)))


# --- internal views (shared by all derivative evaluators) ---------------------

class _ArgView:
    """Per-argument data: horizontal parts and curvature-weighted wedges.

    ``rpe``/``rqe`` are the endomorphisms of R p(V) and R q(V), so pairings
    <R p(V), u ^ v> reduce to v . (rpe @ u) without forming wedge vectors.
    The argument may be stacked along leading axes; every field then carries
    them, and a stacked point, operator (..., 6, 6) and weights broadcast
    against the trailing ones.
    """

    __slots__ = ("X", "jX", "V1", "rq", "rpe", "rqe")

    def __init__(self, p: ProductTwistorPoint, rmat, params: Params, a: GTangent):
        n = params.n
        v1, v2 = a.vertical.v1, a.vertical.v2
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
# Leading axes of the arguments broadcast against those of a stacked point, of
# operators (..., 6, 6) and of the weights, which all align; unstacked calls
# return scalars.

def cov_deriv_omega(p: ProductTwistorPoint, rmat, params: Params,
                    a: GTangent, b: GTangent, c: GTangent) -> float:
    """(D_A Omega)(B, C), assembled from the component formulas."""
    for g in (a, b, c):
        check_gtangent(p, g)
    return _dcov(params, *(_ArgView(p, rmat, params, g) for g in (a, b, c)))


def ext_deriv_omega(p: ProductTwistorPoint, rmat, params: Params,
                    a: GTangent, b: GTangent, c: GTangent) -> float:
    """d Omega(A, B, C); fully antisymmetric."""
    for g in (a, b, c):
        check_gtangent(p, g)
    return _dext(params, *(_ArgView(p, rmat, params, g) for g in (a, b, c)))


def codiff_omega(p: ProductTwistorPoint, rmat, params: Params, a: GTangent) -> float:
    """delta Omega(A) = -2 <R q(V), J1^> on verticals, 0 on horizontals."""
    check_gtangent(p, a)
    return _dcodiff(p, _ArgView(p, rmat, params, a))


def frame_at_point(p: ProductTwistorPoint, params: Params) -> GTangent:
    """H_t-orthonormal frame, one tangent stacked along (8, *point axes): the
    lifts of e1..e4, then the scaled vertical pairs."""
    lead = p.j1.matrix.shape[:-2]
    h = np.zeros((8,) + lead + (4,))
    h[:4] = _EYE4.reshape((4,) + (1,) * len(lead) + (4,))
    v1 = np.zeros((8,) + lead + (4, 4))
    v2 = np.zeros((8,) + lead + (4, 4))
    v1[4:6] = np.stack(vertical_basis(p.j1)) / np.sqrt(_w(params.t1, 2))
    v2[6:8] = np.stack(vertical_basis(p.j2)) / np.sqrt(_w(params.t2, 2))
    return GTangent(h, VerticalVector(v1, v2))


def frame_combination(frame: GTangent, coeffs) -> GTangent:
    """sum_a coeffs[..., a] frame[a]; leading axes of ``coeffs`` give a stacked
    vector and broadcast against the point axes of a stacked frame."""
    return GTangent(np.einsum("...a,a...i->...i", coeffs, frame.horizontal),
                    VerticalVector(np.einsum("...a,a...ij->...ij", coeffs, frame.vertical.v1),
                                   np.einsum("...a,a...ij->...ij", coeffs, frame.vertical.v2)))


def frame_tensor(p: ProductTwistorPoint, rmat, params: Params) -> tuple[np.ndarray, np.ndarray]:
    """D Omega and Jn in the frame (E_a) of ``frame_at_point``.

    T[a, b, c] = (D_{E_a} Omega)(E_b, E_c) and M[b, a] = H_t(E_b, Jn E_a), so
    for A = sum_a x[a] E_a the coefficients of Jn A are M @ x.  ``rmat`` is a
    6x6 array, or one per point, already validated by the caller.  A stacked
    point gives T and M with its leading axes in front, one (8, 8, 8) and
    (8, 8) per point, each from its own operator and weights if those stack.

    The nonzero blocks, with V1_k, rpe_k, rqe_k from the ``_ArgView`` of E_{4+k},
    a, b, c < 4, (k1, k2) = KSIGNS[n] and s1, s2 the orientation signs:

        T[4+k, b, c] = (V1_k - J1^T rqe_k - rqe_k J1)[c, b]
        T[a, b, 4+k] = ((-1)^n rpe_k + J1^T rqe_k)[b, a] = -T[a, 4+k, b]
        M = blockdiag(J1, -k1 s1 J_std, -k2 s2 J_std),  J_std = [[0, 1], [-1, 0]]
    """
    j1 = p.j1.matrix
    e = frame_at_point(p, params)
    ev = _ArgView(p, rmat, params,
                  GTangent(e.horizontal[4:], VerticalVector(e.vertical.v1[4:], e.vertical.v2[4:])))
    jrq = np.swapaxes(j1, -1, -2) @ ev.rqe
    vhh = ev.V1 - (jrq + ev.rqe @ j1)  # [k, ..., c, b]
    hhv = EPS[params.n] * ev.rpe + jrq  # [k, ..., b, a]
    t = np.zeros(j1.shape[:-2] + (8, 8, 8))
    t[..., 4:, :4, :4] = np.moveaxis(vhh, 0, -3).swapaxes(-1, -2)
    t[..., :4, :4, 4:] = np.moveaxis(hhv, 0, -1).swapaxes(-3, -2)
    t[..., :4, 4:, :4] = -np.swapaxes(t[..., :4, :4, 4:], -1, -2)
    k1, k2 = KSIGNS[params.n]
    m = np.zeros(j1.shape[:-2] + (8, 8))
    m[..., :4, :4] = j1
    m[..., 4, 5], m[..., 6, 7] = -k1 * p.j1.sign, -k2 * p.j2.sign
    m[..., 5, 4], m[..., 7, 6] = k1 * p.j1.sign, k2 * p.j2.sign
    return t, m


def nijenhuis_closed_form(p: ProductTwistorPoint, rmat, params: Params,
                          a: GTangent, b: GTangent, c: GTangent) -> float:
    """H_t(N(A, B), C) in closed form; an oracle for the classifier's N condition.

    The signs (-1)^n and sigma(n) are written out here rather than read from
    EPS and SIGMA, so corrupting those tables is detectable.
    """
    for g in (a, b, c):
        check_gtangent(p, g)
    n = params.n
    e = -1.0 if n % 2 else 1.0
    sigma = 1.0 if n in (1, 4) else -1.0
    j1 = p.j1.matrix
    j2 = p.j2.matrix
    t1, t2 = _w(params.t1, 1), _w(params.t2, 1)

    cv1, cv2 = c.vertical.v1, c.vertical.v2
    pc = sigma * t1 * two_vector_of_endo(cv1) + t2 * two_vector_of_endo(cv2)
    qc = t1 * two_vector_of_endo(j1 @ cv1) + t2 * two_vector_of_endo(j2 @ cv2)
    ax, bx, cx = a.horizontal, b.horizontal, c.horizontal
    jax, jbx = _apply(j1, ax), _apply(j1, bx)

    val = (2.0 * e * _pair(wedge_of_pair(ax, jbx) + wedge_of_pair(jax, bx), rmat, pc)
           - 2.0 * _pair(wedge_of_pair(ax, bx) - wedge_of_pair(jax, jbx), rmat, qc))
    if n in (3, 4):
        val = val + 2.0 * (_pair(cx, j1 @ b.vertical.v1, ax) - _pair(cx, j1 @ a.vertical.v1, bx))
    return val


# --- single-fibre forms (independent code path for the restriction check) ----

@dataclass(frozen=True, eq=False)
class SingleTangent:
    """Tangent vector of one twistor fibre bundle: R^4 part plus one vertical."""

    horizontal: np.ndarray
    vertical: np.ndarray


def single_metric(j: OrientedComplexStructure4, t: float,
                  a: SingleTangent, b: SingleTangent) -> float:
    return _dot(a.horizontal, b.horizontal) + t * inner_G(a.vertical, b.vertical)


def single_cov_deriv(j: OrientedComplexStructure4, rmat, t: float, k: int,
                     a: SingleTangent, b: SingleTangent, c: SingleTangent) -> float:
    """(D_A Omega_k)(B, C) for the structure k in {1, 2} on one fibre bundle.

    k = 1 acts on verticals by V -> J V, k = 2 by V -> -J V; the mixed
    component carries the sign -1 for k = 1 and +1 for k = 2.
    """
    sgn = -1.0 if k == 1 else 1.0
    jm = j.matrix
    tw = _w(t, 1)

    def rp(arg, w):  # <R p(V), w>
        return _pair(w, rmat, sgn * tw * two_vector_of_endo(arg.vertical))

    def rq(arg, w):  # <R q(V), w>
        return _pair(w, rmat, tw * two_vector_of_endo(jm @ arg.vertical))

    ax, bx, cx = a.horizontal, b.horizontal, c.horizontal
    jbx, jcx = _apply(jm, bx), _apply(jm, cx)
    val = _pair(cx, a.vertical, bx) - rq(a, wedge_of_pair(bx, jcx) + wedge_of_pair(jbx, cx))
    val = val + rp(c, wedge_of_pair(ax, bx)) + rq(c, wedge_of_pair(ax, jbx))
    return val - (rp(b, wedge_of_pair(ax, cx)) + rq(b, wedge_of_pair(ax, jcx)))


def single_ext_deriv(j: OrientedComplexStructure4, rmat, t: float, k: int,
                     a: SingleTangent, b: SingleTangent, c: SingleTangent) -> float:
    sgn = -1.0 if k == 1 else 1.0

    def hv(x: SingleTangent, y: SingleTangent, v: SingleTangent) -> float:
        rv = _w(t, 1) * two_vector_of_endo(v.vertical)
        return _pair(y.horizontal, v.vertical, x.horizontal) + 2.0 * sgn * _pair(
            wedge_of_pair(x.horizontal, y.horizontal), rmat, rv)

    return hv(a, b, c) + hv(b, c, a) + hv(c, a, b)


def single_codiff(j: OrientedComplexStructure4, rmat, t: float,
                  a: SingleTangent) -> float:
    return -2.0 * t * _pair(j.wedge, rmat, two_vector_of_endo(j.matrix @ a.vertical))


def restriction_residuals(p: ProductTwistorPoint, rmat, params: Params,
                          a: GTangent, b: GTangent, c: GTangent) -> dict[str, float]:
    """Product tensors on first-factor arguments vs. the single-fibre forms.

    Arguments must have vanishing second vertical component; n in {1, 2} pairs
    with the single structure k = 1, n in {3, 4} with k = 2, and the single
    metric weight is t1.  All residuals are identically zero.  Each argument
    is checked once and viewed once; the product side is the arithmetic of
    ``cov_deriv_omega``, ``ext_deriv_omega``, ``codiff_omega`` and ``metric_Ht``.
    """
    for g in (a, b, c):
        check_gtangent(p, g)
        if not np.max(np.abs(g.vertical.v2)) <= VERTICAL_TOL:  # written so that a NaN fails
            raise TangencyError("restriction arguments must have zero second-factor vertical part")
    av, bv, cv = (_ArgView(p, rmat, params, g) for g in (a, b, c))
    k = 1 if params.n in (1, 2) else 2
    t = params.t1
    sa, sb, sc = (SingleTangent(g.horizontal, g.vertical.v1) for g in (a, b, c))
    return {
        "cov_deriv": abs(_dcov(params, av, bv, cv)
                         - single_cov_deriv(p.j1, rmat, t, k, sa, sb, sc)),
        "ext_deriv": abs(_dext(params, av, bv, cv)
                         - single_ext_deriv(p.j1, rmat, t, k, sa, sb, sc)),
        "codiff": abs(_dcodiff(p, av) - single_codiff(p.j1, rmat, t, sa)),
        "metric": abs(_metric(params, a, b) - single_metric(p.j1, t, sa, sb)),
    }
