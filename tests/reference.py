"""Checked references for the metric H_t, the almost complex structure Jn and
the covariant derivative D Omega on tangents of the product twistor space, for
the tests of the frame tensor, its frame, the classifier's contractions and
the theorem suite's counterexamples; the closed-form evaluators with each
argument checked and viewed on its own, for the tests of their stacked
arguments; and Rodrigues's rotation for the tests of the structures' vertical
basis rows."""

import numpy as np

from twistorgh.tensors import (
    GTangent,
    Params,
    ProductTwistorPoint,
    SingleTangent,
    _acs_unchecked,
    _ArgView,
    _dcodiff,
    _dcov,
    _dext,
    _metric,
    _stack,
    check_gtangent,
    single_codiff,
    single_cov_deriv,
    single_ext_deriv,
    single_metric,
)


def metric_Ht(p: ProductTwistorPoint, a: GTangent, b: GTangent, params: Params) -> float:
    check_gtangent(p, a)
    check_gtangent(p, b)
    return _metric(params, a, b)


def acs(p: ProductTwistorPoint, a: GTangent, params: Params) -> GTangent:
    """Almost complex structure Jn: horizontal part by J1, vertical by Kn."""
    check_gtangent(p, a)
    return _acs_unchecked(p, params, a)


def cov_deriv_omega(p: ProductTwistorPoint, rmat, params: Params,
                    a: GTangent, b: GTangent, c: GTangent):
    """(D_A Omega)(B, C), assembled from the component formulas by the kernel
    ``_dcov``: the oracle for the frame tensor T, which the classifier reads."""
    v = _ArgView(p, rmat, params, check_gtangent(p, _stack(p, rmat, params, a, b, c)))
    return _dcov(params, v[0], v[1], v[2])


def one_by_one(kernel, p: ProductTwistorPoint, rmat, params: Params,
               a: GTangent, b: GTangent, c: GTangent):
    """``kernel`` (``_dcov`` or ``_dext``) on arguments checked and viewed one
    at a time: ``cov_deriv_omega`` and ``ext_deriv_omega`` check and view them
    as one stack instead."""
    for g in (a, b, c):
        check_gtangent(p, g)
    return kernel(params, *(_ArgView(p, rmat, params, g) for g in (a, b, c)))


def restriction_one_by_one(p: ProductTwistorPoint, rmat, params: Params,
                           a: GTangent, b: GTangent, c: GTangent) -> dict:
    """The values of ``restriction_residuals``, with each argument checked and
    viewed on its own."""
    k = 1 if params.n in (1, 2) else 2
    t = params.t1
    sa, sb, sc = (SingleTangent(g.horizontal, g.v1) for g in (a, b, c))
    return {
        "cov_deriv": abs(one_by_one(_dcov, p, rmat, params, a, b, c)
                         - single_cov_deriv(p.j1, rmat, t, k, sa, sb, sc)),
        "ext_deriv": abs(one_by_one(_dext, p, rmat, params, a, b, c)
                         - single_ext_deriv(p.j1, rmat, t, k, sa, sb, sc)),
        "codiff": abs(_dcodiff(p, _ArgView(p, rmat, params, check_gtangent(p, a)))
                      - single_codiff(p.j1, rmat, t, sa)),
        "metric": abs(metric_Ht(p, a, b, params) - single_metric(p.j1, t, sa, sb)),
    }


_EYE3 = np.eye(3)
_ANTIPODE_ROT = np.diag([-1.0, 1.0, -1.0])


def rotation_from_e1(u3) -> np.ndarray:
    """Rotations of R^3 taking (1,0,0) to the unit vectors u3; leading axes are kept.

    Rodrigues about the axis e1 x u3, accurate however close u3 is to a pole;
    it is the identity at e1, and the antipode -e1 gets the fixed rotation by
    pi about the second axis.  Its last two columns are the basis rows of u3.
    """
    u3 = np.asarray(u3, dtype=float)
    c = u3[..., 0, None, None]
    s = np.hypot(u3[..., 1], u3[..., 2])[..., None, None]  # |e1 x u3|
    # cross-product matrix of the unit axis, (u3 e1^T - e1 u3^T) / s; zero at the poles
    kx = np.zeros(u3.shape[:-1] + (3, 3))
    kx[..., 1:, 0] = u3[..., 1:]
    kx[..., 0, 1:] = -u3[..., 1:]
    kx /= np.where(s > 0.0, s, 1.0)
    rot = _EYE3 + s * kx + (1.0 - c) * (kx @ kx)
    return np.where((s == 0.0) & (c < 0.0), _ANTIPODE_ROT, rot)
