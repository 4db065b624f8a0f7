"""The metric H_t and a reference for the almost complex structure Jn on
tangents of the product twistor space, and the frame coefficients of a tangent
built by hand, for the tests of the frame tensor, its frame, the classifier's
contractions and the theorem suite's counterexamples; the covariant derivative
D Omega on frame coefficients; and Rodrigues's rotation for the tests of the
structures' vertical basis rows.

``metric_Ht`` is the one formula of H_t: the package needs none, since it
works in the H_t-orthonormal frame of ``frame_vectors``.

Like the closed forms, the helpers that take frame coefficients check nothing:
coefficients stand for a tangent whatever their values.  The tangents built by
hand (``gtangent``) are the tests' own, and ``coefficients`` reads them in the
H_t-orthonormal frame of ``frame_vectors``."""

import numpy as np

from twistorgh.fibre import inner_G
from twistorgh.tensors import (
    GTangent,
    Params,
    ProductTwistorPoint,
    _acs_unchecked,
    _ArgView,
    _dcov,
    _dot,
    frame_vectors,
)


def gtangent(horizontal=None, v1=None, v2=None) -> GTangent:
    """A tangent from its parts; a missing part is zero with the leading axes
    of the given parts, so stacked parts give a stacked tangent."""
    lead = np.broadcast_shapes(*(np.shape(x)[:-k] for x, k in ((horizontal, 1), (v1, 2), (v2, 2))
                                 if x is not None))
    h = np.zeros(lead + (4,)) if horizontal is None else np.asarray(horizontal, dtype=float)
    m1 = np.zeros(lead + (4, 4)) if v1 is None else np.asarray(v1, dtype=float)
    m2 = np.zeros(lead + (4, 4)) if v2 is None else np.asarray(v2, dtype=float)
    return GTangent(h, m1, m2)


def metric_Ht(p: ProductTwistorPoint, a: GTangent, b: GTangent, params: Params) -> float:
    """H_t(A, B) = <X, Y> + t1 G(V1, W1) + t2 G(V2, W2); stacked tangents and
    weights broadcast."""
    return (_dot(a.horizontal, b.horizontal)
            + params.t1 * inner_G(a.v1, b.v1)
            + params.t2 * inner_G(a.v2, b.v2))


def acs(p: ProductTwistorPoint, a: GTangent, params: Params) -> GTangent:
    """Almost complex structure Jn: horizontal part by J1, vertical by Kn."""
    return _acs_unchecked(p, params, a)


def coefficients(p: ProductTwistorPoint, params: Params, a: GTangent) -> np.ndarray:
    """The frame coefficients x[..., i] = H_t(E_i, A) of a tangent A, which the
    closed forms take: the frame (E_i) of ``frame_vectors`` is H_t-orthonormal,
    so A = sum_i x[i] E_i when A is tangent."""
    return np.stack([metric_Ht(p, frame_vectors(p, params, e), a, params) for e in np.eye(8)],
                    axis=-1)


def cov_deriv_omega(p: ProductTwistorPoint, rmat, params: Params, a, b, c):
    """(D_A Omega)(B, C) on frame coefficients, assembled from the component
    formulas by the kernel ``_dcov``: the oracle for the frame tensor T, which
    the classifier reads.  Each argument is viewed on its own, as the closed
    forms in ``tensors`` do."""
    views = (_ArgView(p, rmat, params, frame_vectors(p, params, x)) for x in (a, b, c))
    return _dcov(params, *views)


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
