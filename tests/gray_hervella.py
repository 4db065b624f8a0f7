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
detector reads ``table`` instead.  Family 1 is affine in u = t1 R and family 2
linear in R, and the design mean is invariant under SO(3) x SO(3) acting on
(s, B, W+, W-), so by Schur's lemma (Singer and Thorpe, 1969) the mean of
|P_i T^f|^2 at t = (1, 1) is a 3 x 3 form on (1, a + d, a - d), a = tr R[:3, :3]
and d = tr R[3:, 3:], plus one weight per block.  Six design evaluations give
them: u = 0, e_s = Id / sqrt 6, e_tau = diag(Id, -Id) / sqrt 6 and one element
each of B, W+ and W-.  Each form is c v v^T, c, v and the weights lam rational
(ROADMAP finding A), and ``residuals`` evaluates these rows, never the Gram,
whose vanishing part would stay at sqrt(eps) (finding B):

    family 1:  hypot(sqrt c |v . (1, t1 (a+d), t1 (a-d))|, sqrt(lam . t1^2 b^2)) / (2 + t1 |R|_F)
    family 2:  hypot(sqrt c |v . (0, a+d, a-d)|, sqrt(lam . b^2)) / |R|_F,  skipped at R = 0

with b the norms sqrt 2 |B|_F and those of the traceless parts of W+ and W-.

A component is present when its residual is above ``tol``; the class is the
least element of ``classifier.CLASS_ORDER`` that contains every present
component, with OTHER above all of them.  ``cell``, ``nullity`` and
``carried`` solve the same table over Q for the atlas (ROADMAP item 3), so no
tolerance decides a cell.
"""

import functools
import itertools
from fractions import Fraction

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
    scale.  The table is compiled from this route, which stays its reference."""
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


#: (1, s', tau') -> finding A's (1, a + d, a - d) on the compile's trivial
#: columns; the block columns stay, each operator having block norm 1
FINDING_A = np.array([1.0, 6 ** -0.5, 6 ** -0.5, 1.0, 1.0, 1.0])


def _rank_one(g):
    """(c, v) with the 3 x 3 Fraction form g = c v v^T exactly and v's first
    nonzero entry 1; c = 0 and v = 0 when g = 0."""
    k = next((k for k in range(3) if g[k][k]), 0)
    c, v = g[k][k], tuple(x / (g[k][k] or 1) for x in g[k])
    assert all(g[a][b] == c * v[a] * v[b] for a in range(3) for b in range(3)), g
    return c, v


def _compile(component, n):
    """The rows (c, v, lam) of W1..W4 in family 1, then in family 2: the design
    Gram of ``COMPILE_OPERATORS`` in finding A's coordinates, snapped to fractions."""
    gram = sum(cols @ np.swapaxes(cols, -1, -2)
               for cols in design_columns(component, n, COMPILE_OPERATORS)) / len(DESIGN)
    gram *= np.outer(FINDING_A, FINDING_A)
    snap = np.vectorize(lambda x: Fraction(x).limit_denominator(81), otypes=[object])(gram)
    assert np.abs(snap.astype(float) - gram).max() <= 1e-12, (component, n)
    # Schur: the blocks are orthogonal to each other and to (1, a + d, a - d)
    assert np.all((snap * (1 - np.eye(6, dtype=int)))[..., 3:] == 0), (component, n)
    return [tuple((*_rank_one(snap[i, f, :3, :3]), tuple(snap[i, f].diagonal()[3:]))
                  for i in range(4)) for f in (0, 1)]


def keys(component, n):
    """The keys of ``table`` that hold the family-1 and the family-2 rows of
    ``component`` and n: (1, s1, n <= 2) and (2, component)."""
    return (1, component[0], n <= 2), (2, component)


@functools.cache
def table():
    """The 8 tables: under each key, the ``Fraction`` rows (c, v, lam) of W1..W4.
    Compiles all 16 (component, n) and asserts that the rows depend on the key only."""
    out = {}
    for component, n in itertools.product(cl.COMPONENTS, (1, 2, 3, 4)):
        for key, rows in zip(keys(component, n), _compile(component, n)):
            assert out.setdefault(key, rows) == rows, (component, n)
    return out


def residuals(rmat, component, t, n):
    """The residuals of the components W1..W4 from the table: family 1 at u = t1 R
    over 2 + t1 |R|_F, family 2 at R / |R|_F, skipped at R = 0.  They are those
    of ``design_residuals`` to roundoff.  The blocks are taken traceless: a
    non-strict trace lies in a + d and a - d."""
    plus, minus = rmat[:3, :3], rmat[3:, 3:]
    a, d = np.trace(plus), np.trace(minus)
    blocks = np.array([2 ** 0.5 * np.linalg.norm(rmat[3:, :3]),
                       np.linalg.norm(plus - a / 3.0 * np.eye(3)),
                       np.linalg.norm(minus - d / 3.0 * np.eye(3))])
    norm, t1 = float(np.linalg.norm(rmat)), t[0]
    one, two = keys(component, n)

    def rms(key, x, b):
        c, v, lam = (np.array(col, float) for col in zip(*table()[key]))
        return np.hypot(np.sqrt(c) * np.abs(v @ x), np.sqrt(lam @ b ** 2))

    first = rms(one, np.array([1.0, t1 * (a + d), t1 * (a - d)]), t1 * blocks) / (2.0 + t1 * norm)
    if norm == 0.0:
        return first
    return np.maximum(first, rms(two, np.array([0.0, a + d, a - d]) / norm, blocks / norm))


def class_of(res, tol=1e-9):
    """The least class of ``classifier.CLASS_ORDER`` that holds every component
    whose residual is above ``tol``."""
    present = {i + 1 for i, r in enumerate(res) if r > tol}
    return next(c for c in cl.CLASS_ORDER if present <= CLASS_COMPONENTS[c])


def detect(rmat, component, t, n, tol=1e-9):
    """The class of the operator ``rmat`` on ``component`` at weights t and structure n."""
    return class_of(residuals(rmat, component, t, n), tol)


#: a residual is zero at or below VANISH_REL and nonzero above NONZERO_MIN;
#: the tests assert that none lies in between
VANISH_REL = 1e-12
NONZERO_MIN = 1e-3


def _solve(rows):
    """The set {y in Q^2 : r . (1, y) = 0 for each row r} as (y0, null), y0 with
    its free coordinates 0 and null the basis of the reduced row echelon form,
    so both depend on the set only; None when it is empty."""
    echelon = {}  # pivot column: its row, reduced
    for r in rows:
        for col, e in echelon.items():
            r = [a - r[col] * b for a, b in zip(r, e)]
        col = next((j for j in (1, 2) if r[j]), None)
        if col is None and r[0]:
            return None
        if col is not None:
            r = [a / r[col] for a in r]
            echelon = {k: [a - e[col] * b for a, b in zip(e, r)] for k, e in echelon.items()}
            echelon[col] = r
    y0 = tuple(-echelon[k][0] if k in echelon else Fraction(0) for k in (1, 2))
    null = tuple(tuple(-echelon[k][j] if k in echelon else Fraction(k == j) for k in (1, 2))
                 for j in (1, 2) if j not in echelon)
    return y0, null


def cell(component, n, vanish, families=(1, 2), strict=False):
    """The operators u = t1 R on which the components ``vanish`` vanish in
    ``families``, as (x0, null, free): their (t1 (a + d), t1 (a - d)), with
    a = d when ``strict``, from ``_solve``, and the blocks among B, W+ and W-
    left free; None when there are none.  Equal cells are equal tuples."""
    rows = [table()[keys(component, n)[f - 1]][i - 1] for i in vanish for f in families]
    solved = _solve([v for c, v, _ in rows if c] + [(0, 0, 1)] * strict)
    if solved is None:
        return None
    return (*solved, tuple(not any(lam[j] for _, _, lam in rows) for j in range(3)))


def nullity(component, n, cls, strict):
    """The dimension of the cell of the class ``cls`` (item 3's atlas), over the
    strict operators when ``strict``; None when it is empty."""
    found = cell(component, n, {1, 2, 3, 4} - CLASS_COMPONENTS[cls], strict=strict)
    # B, W+ and W- have dimensions 9, 5 and 5
    return None if found is None else len(found[1]) + sum(
        dim for dim, free in zip((9, 5, 5), found[2]) if free)


def carried(component, n, families=(1, 2)):
    """The sets of components that can be present together in ``families``, in
    order of size.  S is carried when the cell where the components outside S
    vanish is not empty and no component of S vanishes on all of it: then one
    operator carries all of S, since no affine space is a finite union of
    proper affine subspaces.  Component i vanishes on all of a cell exactly when
    the cell does not shrink as i joins the components that vanish."""
    out = []
    for inside in itertools.chain.from_iterable(itertools.combinations(range(1, 5), k)
                                                for k in range(5)):
        outside = {1, 2, 3, 4} - set(inside)
        found = cell(component, n, outside, families)
        if found is not None and all(cell(component, n, outside | {i}, families) != found
                                     for i in inside):
            out.append(set(inside))
    return out
