"""The class read from the four Gray-Hervella components of the frame tensor on
a fixed design: a detector without a seed, whose residuals do not depend on
the scale of R and t.

At a point, T[a, b, c] = (D_{E_a} Omega)(E_b, E_c) of ``tensors.frame_tensor``
lies in the space of tensors with T(X, JY, JZ) = -T(X, Y, Z), which splits
orthogonally into W1 + W2 + W3 + W4 (Gray and Hervella, Ann. Mat. Pura Appl.
123, 1980).  With tjj = T(JX, JY, Z), J given by the frame matrix M:

    P12 T = (T - tjj) / 2      the W1 + W2 part (tjj = -T there)
    P34 T = (T + tjj) / 2      the W3 + W4 part; T + tjj is the quasi-cond tensor
    P1 T  = cyclic(P12 T) / 3  the cyclic sum is 3 on W1 and 0 on W2
    P4 T  = (W0 - W0(., J., J.)) / (d - 2),  W0[a, b, c] = d_ab th_c - d_ac th_b,
            th_c = T[a, a, c], in d dimensions (8 here, 6 on the single
            twistor space); the 1/(d - 2) makes the trace of P4 T equal th
    P2 = P12 - P1,  P3 = P34 - P4

P2 and P3 are formed and their norms taken: |P12|^2 - |P1|^2 would leave a
vanishing part at sqrt(eps), above the class tolerance.

T splits into two families that every P_i keeps orthogonal: family 1, the
entries whose indices all lie in 0:6 (the first factor: the flat term / sqrt t1
and sqrt t1 times a linear map of R), and family 2, the entries with an index
in 6:8 (sqrt t2 times a linear map of R).  Each family has its own scale,
2 / sqrt t1 + sqrt t1 |R|_F and sqrt t2 |R|_F, and the residual of component
i is the larger of the two families' rms of |P_i T| over the design, each
divided by its scale; family 2 is skipped when R = 0, where it is exactly 0.
Both ratios are invariant under the homothety (R / l, l t1, l t2), and the
second depends on R / |R|_F only.

The design is the 72 points (u1, u2) with u1 on the 12 vertices of an
icosahedron and u2 on the 6 vertices of an octahedron, spherical designs that
integrate polynomials of low degree exactly (Delsarte, Goethals and Seidel,
Geom. Dedicata 6, 1977).  The design means of |P_i T|^2 do not change when
either design is rotated (tests/test_gray_hervella.py), so they are the means
over the whole of S^2 x S^2.

A component is present when its residual is above ``tol``; the class is the
least element of ``classifier.CLASS_ORDER`` that contains every present
component, with OTHER above all of them.
"""

import numpy as np

from twistorgh import classifier as cl
from twistorgh import tensors as tn

PHI = (1.0 + 5.0 ** 0.5) / 2.0
_SIGNED = np.array([(0.0, a, b * PHI) for a in (1, -1) for b in (1, -1)])
#: the cyclic shifts of (0, +-1, +-phi), normalised
ICOSAHEDRON = np.concatenate([np.roll(_SIGNED, k, axis=1) for k in range(3)]) / np.hypot(1.0, PHI)
OCTAHEDRON = np.concatenate((np.eye(3), -np.eye(3)))
#: the 72 sphere rows (u1, u2) of the design
DESIGN = np.concatenate((np.repeat(ICOSAHEDRON, 6, axis=0), np.tile(OCTAHEDRON, (12, 1))), axis=1)

#: the components each class of ``classifier.CLASS_ORDER`` admits
CLASS_COMPONENTS = {"K": set(), "W1": {1}, "W2": {2}, "W3": {3}, "W1W2": {1, 2},
                    "W1W3": {1, 3}, "W2W3": {2, 3}, "W1W2W3": {1, 2, 3},
                    "OTHER": {1, 2, 3, 4}}


def projections(T, M):
    """(P1 T, P2 T, P3 T, P4 T), stacked on a new first axis; leading axes of
    T (..., d, d, d) and M (..., d, d) broadcast."""
    d = T.shape[-1]
    mt = np.swapaxes(M, -1, -2)
    tj = (mt @ T.reshape(T.shape[:-2] + (d * d,))).reshape(T.shape)  # T(JX, Y, Z)
    tjj = mt[..., None, :, :] @ tj  # T(JX, JY, Z)
    p12, p34 = 0.5 * (T - tjj), 0.5 * (T + tjj)
    p1 = cl._cyclic(p12) / 3.0
    theta = np.einsum("...aac->...c", T)
    # u[a, b, c] = d_ab th_c - M[a, b] (M^T th)_c, and W0 - W0(X, JY, JZ) = u - u[a, c, b]
    u = (np.eye(d)[..., None] * theta[..., None, None, :]
         - M[..., None] * (theta[..., None, :] @ M)[..., None, :])
    p4 = (u - np.swapaxes(u, -1, -2)) / (d - 2.0)
    return np.stack((p1, p12 - p1, p34 - p4, p4))


#: 1.0 on the entries of family 1 (every index in 0:6), then on those of
#: family 2 (an index in 6:8), stacked over the points' axis
FAMILIES = np.ones((2, 1, 8, 8, 8))
FAMILIES[0, :, 6:] = FAMILIES[0, :, :, 6:] = FAMILIES[0, :, :, :, 6:] = 0.0
FAMILIES[1] -= FAMILIES[0]
#: points per chunk of ``design_means``: three chunks of 24 points ran the
#: design over twice as fast as one of 72 (2.8 against 6.3 ms on a 2-vCPU box,
#: numpy 2.4)
CHUNK = 24


def design_means(rmat, component, t, n, rows=DESIGN):
    """The mean over the sphere rows ``rows`` (u1, u2) of |P_i T^f|^2: an array
    (4, 2) over component i = 1..4 and family f = 1, 2."""
    T, M = tn.frame_tensor(cl._points(rows, component), rmat, tn.Params(t[0], t[1], n))
    total = np.zeros((4, 2))
    for lo in range(0, len(rows), CHUNK):
        parts = projections(FAMILIES * T[lo:lo + CHUNK], M[lo:lo + CHUNK]).reshape(4, 2, -1)
        total += np.einsum("ifk,ifk->if", parts, parts)
    return total / len(rows)


def scales(rmat, t):
    """The scales of the two families: 2 / sqrt t1 + sqrt t1 |R|_F and sqrt t2 |R|_F."""
    norm = float(np.linalg.norm(rmat))
    sq1, sq2 = np.sqrt(t[0]), np.sqrt(t[1])
    return 2.0 / sq1 + sq1 * norm, sq2 * norm


def residuals(rmat, component, t, n, rows=DESIGN):
    """The residuals of the components W1..W4: for each, the larger of the two
    families' rms over the design divided by the family's scale."""
    rms = np.sqrt(design_means(rmat, component, t, n, rows))
    scale1, scale2 = scales(rmat, t)
    first = rms[:, 0] / scale1
    return np.maximum(first, rms[:, 1] / scale2) if scale2 > 0.0 else first


def class_of(res, tol=1e-9):
    """The least class of ``classifier.CLASS_ORDER`` that holds every component
    whose residual is above ``tol``."""
    present = {i + 1 for i, r in enumerate(res) if r > tol}
    return next(c for c in cl.CLASS_ORDER if present <= CLASS_COMPONENTS[c])


def detect(rmat, component, t, n, tol=1e-9):
    """The class of the operator ``rmat`` on ``component`` at weights t and structure n."""
    return class_of(residuals(rmat, component, t, n), tol)
