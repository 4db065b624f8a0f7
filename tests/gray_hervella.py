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

``design_residuals`` is that direct route, and stays the reference.  The
detector reads compiled forms instead, one set per (component, n), compiled
once from six design evaluations at t = (1, 1): u = 0, e_s = Id / sqrt 6,
e_tau = diag(Id, -Id) / sqrt 6 and one element each of B, W+ and W-.  Family 1
is affine in u = t1 R and family 2 linear in R, and the design mean is
invariant under SO(3) x SO(3) acting on (s, B, W+, W-), so by Schur's lemma
(Singer and Thorpe, 1969) each mean |P_i T^f|^2 is a 3 x 3 form on
(1, s', tau') plus one weight per block.  ``residuals`` evaluates them:

    family 1:  sqrt(|F1_i (1, t1 s', t1 tau')|^2 + sum lam1 t1^2 |block|^2) / (2 + t1 |R|_F)
    family 2:  sqrt(|F2_i (0, s', tau')|^2 + sum lam2 |block|^2) / |R|_F,  skipped at R = 0

with s', tau' R's Frobenius coordinates on e_s and e_tau, and the blocks
sqrt 2 |B|_F and the traceless parts of W+ and W-.

A component is present when its residual is above ``tol``; the class is the
least element of ``classifier.CLASS_ORDER`` that contains every present
component, with OTHER above all of them.

The same forms give the classification atlas (ROADMAP item 3): ``nullity`` is
the dimension of the set of operators u = t1 R on which a class holds, and
``carried`` lists the sets of components that can be present together.  Both
measure against the forms' overall scale, since the rows of a component that
vanishes are roundoff of it, and assert that no value lies between VANISH_REL
and NONZERO_MIN of it.
"""

import functools
import itertools

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


def design_residuals(rmat, component, t, n, rows=DESIGN):
    """The residuals of the components W1..W4 on the direct route: for each, the
    larger of the two families' rms over the design divided by the family's
    scale.  The forms are compiled from this route, which stays their reference."""
    rms = np.sqrt(design_means(rmat, component, t, n, rows))
    scale1, scale2 = scales(rmat, t)
    first = rms[:, 0] / scale1
    return np.maximum(first, rms[:, 1] / scale2) if scale2 > 0.0 else first


_E = np.eye(6)
#: the operators of the compile, unit in the Frobenius norm: u = 0, e_s, e_tau,
#: and one element each of B, W+ and W-
COMPILE_OPERATORS = np.array([
    np.zeros((6, 6)), np.eye(6) / 6 ** 0.5, np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) / 6 ** 0.5,
    (np.outer(_E[3], _E[0]) + np.outer(_E[0], _E[3])) / 2 ** 0.5,
    (np.outer(_E[0], _E[1]) + np.outer(_E[1], _E[0])) / 2 ** 0.5,
    (np.outer(_E[3], _E[4]) + np.outer(_E[4], _E[3])) / 2 ** 0.5])
#: points per chunk of the compile: 6 points of 6 operators are 36 frame tensors
COMPILE_CHUNK = 6


def design_columns(component, n, operators):
    """The design columns of ``operators`` (k, 6, 6) at t = (1, 1), chunk by
    chunk of points: arrays (4, 2, k, entries) over component i and family f,
    holding P_i T^f of the first operator and, of each other one, P_i T^f minus
    the first's."""
    params = tn.Params(1.0, 1.0, n)
    for lo in range(0, len(DESIGN), COMPILE_CHUNK):
        points = cl._points(DESIGN[lo:lo + COMPILE_CHUNK], component)
        T, M = tn.frame_tensor(points, operators[:, None], params)
        parts = projections(FAMILIES[:, None] * T, M).reshape(4, 2, len(operators), -1)
        yield np.concatenate((parts[:, :, :1], parts[:, :, 1:] - parts[:, :, :1]), axis=2)


@functools.cache
def forms(component, n):
    """The compiled forms (F, lam) of ``component`` and n.  For component i and
    family f, F[i, f] is the 3 x 3 triangular factor of a QR of the design
    columns of u = 0, e_s and e_tau, and lam[i, f] holds the squared norms of
    the columns of B, W+ and W-, all over 72.  By Schur's lemma for SO(3) x
    SO(3) on (s, B, W+, W-), the design mean of |P_i T^f(u)|^2 at t = (1, 1) is
    then |F[i, f] (1, s', tau')|^2 + lam[i, f] . (|B|, |W+|, |W-|)^2, in the
    terms of ``coordinates``.  Family 2 is linear in u, so its u = 0 column,
    and the first column of its factor, is exactly zero."""
    tri, lam = np.zeros((4, 2, 0, 3)), np.zeros((4, 2, 3))
    for cols in design_columns(component, n, COMPILE_OPERATORS):
        stacked = np.concatenate((tri, np.swapaxes(cols[:, :, :3], -1, -2)), axis=-2)
        tri = np.linalg.qr(stacked, mode="r")
        lam += np.einsum("ifbk,ifbk->ifb", cols[:, :, 3:], cols[:, :, 3:])
    tri, lam = tri / len(DESIGN) ** 0.5, lam / len(DESIGN)
    tri.flags.writeable = lam.flags.writeable = False
    return tri, lam


def coordinates(rmat):
    """(s', tau', blocks): R's Frobenius coordinates on e_s and e_tau, and the
    norms sqrt 2 |B|_F, |W+|_F and |W-|_F of its other parts, W+- taken
    traceless (a non-strict trace lies in e_s and e_tau)."""
    plus, minus = rmat[:3, :3], rmat[3:, 3:]
    a, d = np.trace(plus), np.trace(minus)
    blocks = [2 ** 0.5 * np.linalg.norm(rmat[3:, :3]), np.linalg.norm(plus - a / 3.0 * np.eye(3)),
              np.linalg.norm(minus - d / 3.0 * np.eye(3))]
    return (a + d) / 6 ** 0.5, (a - d) / 6 ** 0.5, np.array(blocks)


def residuals(rmat, component, t, n):
    """The residuals of the components W1..W4 from the compiled forms: family 1
    at u = t1 R over 2 + t1 |R|_F, family 2 at R / |R|_F, skipped at R = 0.  They
    are those of ``design_residuals`` to roundoff."""
    tri, lam = forms(component, n)
    s, tau, blocks = coordinates(rmat)
    norm, t1 = float(np.linalg.norm(rmat)), t[0]

    def rms(f, x, b):
        return np.sqrt(np.sum((tri[:, f] @ x) ** 2, axis=-1) + lam[:, f] @ b ** 2)

    first = rms(0, np.array([1.0, t1 * s, t1 * tau]), t1 * blocks) / (2.0 + t1 * norm)
    if norm == 0.0:
        return first
    return np.maximum(first, rms(1, np.array([0.0, s, tau]) / norm, blocks / norm))


def class_of(res, tol=1e-9):
    """The least class of ``classifier.CLASS_ORDER`` that holds every component
    whose residual is above ``tol``."""
    present = {i + 1 for i, r in enumerate(res) if r > tol}
    return next(c for c in cl.CLASS_ORDER if present <= CLASS_COMPONENTS[c])


def detect(rmat, component, t, n, tol=1e-9):
    """The class of the operator ``rmat`` on ``component`` at weights t and structure n."""
    return class_of(residuals(rmat, component, t, n), tol)


#: a value measured against the forms' scale is zero at or below VANISH_REL of
#: it, nonzero above NONZERO_MIN, and never in between
VANISH_REL = 1e-12
NONZERO_MIN = 1e-3
#: the dimensions of the B, W+ and W- blocks
BLOCK_DIMS = np.array([9, 5, 5])


def _nonzero(values, scale):
    """values > NONZERO_MIN scale, asserting that none lies in the gap."""
    rel = np.asarray(values) / scale
    assert np.all((rel <= VANISH_REL) | (rel > NONZERO_MIN)), rel
    return rel > NONZERO_MIN


def _scale(component, n):
    """The forms' overall scale max(|F|, sqrt max lam): the rows of a vanishing
    component are roundoff of it, not of their own size."""
    tri, lam = forms(component, n)
    return max(np.abs(tri).max(), np.sqrt(lam.max()))


def _rows(component, n, comps, families):
    """The (1, s', tau') rows and the block weights of the components ``comps``
    in ``families``."""
    tri, lam = forms(component, n)
    idx = np.ix_([i - 1 for i in comps], [f - 1 for f in families])
    return tri[idx].reshape(-1, 3), np.sqrt(lam[idx]).reshape(-1, 3)


def cell(component, n, vanish, families=(1, 2), strict=False):
    """The operators u on which the components ``vanish`` vanish in
    ``families``, as (x0, null, free): the point x0 and an orthonormal basis
    ``null`` of the affine set of (s', tau') (of s', with tau' = 0, when
    ``strict``), and the blocks among B, W+ and W- left free; None when empty."""
    scale = _scale(component, n)
    rows, weights = _rows(component, n, vanish, families)
    free = ~_nonzero(weights, scale).any(axis=0)
    a, b = (rows[:, 1:2] if strict else rows[:, 1:]), rows[:, 0]
    if not len(rows):
        return np.zeros(a.shape[1]), np.eye(a.shape[1]), free
    u, sv, vt = np.linalg.svd(a)
    rank = np.count_nonzero(_nonzero(sv, scale))
    x0 = -vt[:rank].T @ ((u[:, :rank].T @ b) / sv[:rank])
    if _nonzero(np.linalg.norm(a @ x0 + b), scale):
        return None
    return x0, vt[rank:].T, free


def nullity(component, n, cls, strict):
    """The dimension of the cell of the class ``cls`` (item 3's atlas): the
    operators u = t1 R, strict ones when ``strict``, on which it holds; None
    when no operator does."""
    c = cell(component, n, {1, 2, 3, 4} - CLASS_COMPONENTS[cls], strict=strict)
    if c is None:
        return None
    _, null, free = c
    return null.shape[1] + int(BLOCK_DIMS[free].sum())


def carried(component, n, families=(1, 2)):
    """The sets of components that can be present together in ``families``, in
    order of size.  S is carried when the cell where the components outside S
    vanish is not empty and no component of S vanishes on all of it: then one
    operator carries all of S, since no affine space is a finite union of
    proper affine subspaces."""
    scale = _scale(component, n)
    out = []
    for inside in itertools.chain.from_iterable(itertools.combinations(range(1, 5), k)
                                                for k in range(5)):
        c = cell(component, n, set(range(1, 5)) - set(inside), families)
        if c is None:
            continue
        x0, null, free = c

        def present(i):
            rows, weights = _rows(component, n, [i], families)
            on_cell = (rows @ np.concatenate(([1.0], x0)), (rows[:, 1:] @ null).ravel(),
                       weights[:, free].ravel())
            return _nonzero(np.concatenate(on_cell), scale).any()

        if all(present(i) for i in inside):
            out.append(set(inside))
    return out
