"""The detector of tests/gray_hervella.py: its projectors, its design, its
compiled forms, and the classes and the atlas it reads.

- The four projections sum to T, are orthogonal and idempotent, and have the
  defining properties of W1..W4; each splits orthogonally between the two
  factor families.
- The design means do not change when the icosahedron and the octahedron are
  rotated, the direct route's residuals do not change under R -> g R g^T for
  g in SO(3) x SO(3), and orientation reversal maps them between components.
- Every row of perfbench/reference.json gets its recorded class, and every
  residual lies far from the tolerance.
- The compiled forms give the direct route's classes and residuals, and they
  are the Schur forms of the full 21-element basis.
- The atlas from the forms is ROADMAP item 3's table, and the least classes of
  its strict cells are ``classifier.ALLOWED_DETECTED``.
- Four corollaries of the atlas, not statements of the paper: for n = 1, 2 the
  cells with W3 coincide; on +- and -+ the K, W1, W2 and W1W2 cells are one
  point for n = 1, 2, and the strict W1W2 cell is the flat operator for
  n = 3, 4; the W1W3 and W2W3 cells never meet.
- The W1W3 witness reads W1W3 at every scale, which the sampled detector does
  not (ROADMAP aim 3), and no class changes under the homothety
  (R / l, l t1, l t2) or with t2 / t1.
- No proper class that contains W4 occurs.
- At random points, each of the conditions W1-cond, quasi-cond, d Omega and
  delta Omega vanishes exactly when the components outside its class do.
- Over all symmetric operators, the second factor's family carries no
  component, W3 alone, or all four (ROADMAP item 13).
- The first factor's family is the single twistor space's W1, W2 and W3 + W4
  parts (ROADMAP items 6 and 13).
"""

import itertools

import numpy as np
import pytest

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import tensors as tn

import gray_hervella as gh
from gray_hervella import NONZERO_MIN, VANISH_REL
from test_reference_survey import _reference, _workloads

TOL = 1e-9
#: bound of the projector identities, relative to |T|
ALGEBRA_REL = 1e-14
#: bound of the rotation invariance of a design mean, relative to |T|^2
ROTATION_REL = 1e-13
#: relative bound of the agreement of two routes, of a symmetry and of the Schur structure
ROUTE_REL = 1e-13
#: every (component, n)
STRUCTURES = [(component, n) for component in cl.COMPONENTS for n in (1, 2, 3, 4)]


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.fixture(scope="module")
def survey():
    """(row, operator, residuals) of each reference row."""
    workloads = _workloads()
    out = []
    for row in _reference()["classify"]["rows"]:
        rmat = workloads.build_operator(cur, row)
        t = (row["t1"], row["t2"])
        out.append((row, rmat, gh.design_residuals(rmat, row["component"], t, row["n"])))
    return out


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projectors_split_the_frame_tensor(component, n):
    rng = np.random.default_rng([90, n, cl.COMPONENTS.index(component)])
    T, M = tn.frame_tensor(cl._points(rng.standard_normal((20, 6)), component),
                           cur.random_strict_operator(rng), tn.Params(0.7, 1.9, n))
    size = np.sqrt(np.sum(T ** 2, axis=(-3, -2, -1)))[:, None, None, None]
    # T lies in the space of D Omega: T(X, JY, JZ) = -T(X, Y, Z)
    tjj_bc = np.einsum("pjb,pkc,pajk->pabc", M, M, T)
    assert np.abs(tjj_bc + T).max() <= ALGEBRA_REL * size.max()
    parts = gh.projections(T, M)
    assert np.abs(parts.sum(axis=0) - T).max() <= ALGEBRA_REL * size.max()
    for i in range(4):
        again = gh.projections(parts[i], M)
        for j in range(4):
            want = parts[i] if i == j else 0.0
            assert np.all(np.abs(again[j] - want) <= ALGEBRA_REL * size), (i, j)
            if i < j:
                cross = np.sum(parts[i] * parts[j], axis=(-3, -2, -1))
                assert np.all(np.abs(cross) <= ALGEBRA_REL * size[:, 0, 0, 0] ** 2), (i, j)
    p1, p2, p3, p4 = parts
    assert np.all(np.abs(p1 + np.swapaxes(p1, -3, -2)) <= ALGEBRA_REL * size)  # totally skew
    assert np.all(np.abs(cl._cyclic(p2)) <= ALGEBRA_REL * size)
    trace = np.einsum("...aac->...c", parts)
    assert np.all(np.abs(trace[:3]) <= ALGEBRA_REL * size[:, 0, 0])
    assert np.all(np.abs(trace[3] - np.einsum("paac->pc", T)) <= ALGEBRA_REL * size[:, 0, 0])
    # W1 + W2 is where T(JX, JY, Z) = -T, W3 + W4 where it is T
    tjj = np.einsum("pia,pjb,...pijc->...pabc", M, M, parts)
    assert np.all(np.abs(tjj[:2] + parts[:2]) <= ALGEBRA_REL * size)
    assert np.all(np.abs(tjj[2:] - parts[2:]) <= ALGEBRA_REL * size)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projections_split_between_the_families(component, n):
    rng = np.random.default_rng([91, n, cl.COMPONENTS.index(component)])
    rows = rng.standard_normal((20, 6))
    rmat = cur.random_strict_operator(rng)
    T, M = tn.frame_tensor(cl._points(rows, component), rmat, tn.Params(0.7, 1.9, n))
    size2 = np.sum(T ** 2, axis=(-3, -2, -1))
    whole = np.sum(gh.projections(T, M) ** 2, axis=(-3, -2, -1))
    families = np.sum(gh.projections(gh.FAMILIES * T, M) ** 2, axis=(-3, -2, -1))
    assert np.all(np.abs(families.sum(axis=1) - whole) <= ALGEBRA_REL * size2)
    # family 1 is the first factor's: it does not see u2 or t2
    other = np.concatenate((rows[:, :3], rng.standard_normal((20, 3))), axis=1)
    T2, _ = tn.frame_tensor(cl._points(other, component), rmat, tn.Params(0.7, 5.3, n))
    first = gh.FAMILIES[0, 0] == 1.0
    assert np.abs(T2[:, first] - T[:, first]).max() <= ALGEBRA_REL * np.sqrt(size2.max())


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_1_is_the_split_of_the_single_twistor_space(component, n):
    # family 1 lives on 0:6, where M is the single twistor space's structure, so
    # its W1, W2 and W3 + W4 parts are the projectors' in 6 dimensions.  The
    # trace of W4 runs over 6 indices there, so the W3/W4 split differs: by up
    # to 0.14 of max|T^1| here, and P4 of family 1 reaches 0.28 of it outside 0:6
    rng = np.random.default_rng([96, n, cl.COMPONENTS.index(component)])
    outside = gh.FAMILIES[0, 0] == 0.0
    for _ in range(5):
        T, M = tn.frame_tensor(cl._points(rng.standard_normal((20, 6)), component),
                               cur.random_strict_operator(rng),
                               tn.Params(*rng.uniform(0.3, 2.0, 2), n))
        first = gh.FAMILIES[0] * T
        bound = 1e-13 * np.abs(first).max()
        p1, p2, p3, p4 = gh.projections(first, M)
        q1, q2, q3, q4 = gh.projections(T[:, :6, :6, :6], M[:, :6, :6])
        for got, want in ((p1, q1), (p2, q2), (p3 + p4, q3 + q4)):
            assert np.abs(got[:, :6, :6, :6] - want).max() <= bound
            assert np.abs(got[:, outside]).max() <= bound
        # the 6-dimensional factor 1 / (d - 2) gives P4 the trace of T
        theta = np.einsum("paac->pc", T[:, :6, :6, :6])
        assert np.abs(np.einsum("paac->pc", q4) - theta).max() <= bound


@pytest.mark.parametrize("component", cl.COMPONENTS)
def test_design_means_do_not_depend_on_the_rotation_of_the_design(component):
    rng = np.random.default_rng([92, cl.COMPONENTS.index(component)])
    for n in (1, 2, 3, 4):
        for rmat in (cur.random_strict_operator(rng), cur.model("kaehler_witness", s=12.0)):
            t = tuple(rng.uniform(0.3, 2.0, 2))
            want = gh.design_means(rmat, component, t, n)
            for _ in range(3):
                g1, g2 = random_rotation(rng), random_rotation(rng)
                rows = np.concatenate((gh.DESIGN[:, :3] @ g1.T, gh.DESIGN[:, 3:] @ g2.T), axis=1)
                got = gh.design_means(rmat, component, t, n, rows)
                assert np.all(np.abs(got - want) <= ROTATION_REL * want.sum(axis=0)), (n, got)


@pytest.mark.parametrize("component, n", STRUCTURES)
def test_residuals_are_invariant_under_the_rotation_of_the_halves(component, n):
    # ROADMAP item 2's symmetries of the direct route, which let the forms take
    # one element per block: R -> g R g^T with g = diag(g+, g-) in SO(3) x SO(3)
    # keeps every residual, and swap_halves (orientation reversal) maps ++ to --
    # and +- to -+, residual for residual
    rng = np.random.default_rng([97, n, cl.COMPONENTS.index(component)])
    strict = cur.random_strict_operator(rng)
    trace = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    for rmat in (strict, strict + 0.3 * trace):  # B != 0 in both; the second is not strict
        t = tuple(rng.uniform(0.3, 2.0, 2))
        want = gh.design_residuals(rmat, component, t, n)
        g = np.zeros((6, 6))
        g[:3, :3], g[3:, 3:] = random_rotation(rng), random_rotation(rng)
        swapped = component.translate(str.maketrans("+-", "-+"))
        for got in (gh.design_residuals(g @ rmat @ g.T, component, t, n),
                    gh.design_residuals(cur.swap_halves(rmat), swapped, t, n)):
            assert np.all(np.abs(got - want) <= ROUTE_REL * want.max()), (got, want)


#: the block of each element of the full basis: (1, s, tau), then B, W+ and W-
FULL_BLOCKS = np.repeat(np.arange(4), [3, 9, 5, 5])


def full_basis():
    """The 21 elements e_s, e_tau, the 9 of B and the 5 of each Weyl block, an
    orthonormal basis of the symmetric 6x6 operators."""
    e = np.eye(6)
    sym = [(np.outer(e[a], e[b]) + np.outer(e[b], e[a])) / 2 ** 0.5 for a, b in
           [(0, 1), (0, 2), (1, 2)]]
    diag = [np.diag([1.0, -1.0, 0.0]) / 2 ** 0.5, np.diag([1.0, 1.0, -2.0]) / 6 ** 0.5]
    weyl = np.zeros((5, 6, 6))
    weyl[:3, :3, :3] = [x[:3, :3] for x in sym]
    weyl[3:, :3, :3] = diag
    return np.concatenate((gh.COMPILE_OPERATORS[1:3],
                           [(np.outer(e[3 + i], e[j]) + np.outer(e[j], e[3 + i])) / 2 ** 0.5
                            for i in range(3) for j in range(3)],
                           weyl, np.roll(weyl, (3, 3), axis=(1, 2))))


@pytest.mark.parametrize("component, n", [("++", 1), ("+-", 3)])
def test_the_forms_are_the_schur_forms_of_the_full_basis(component, n):
    # the Gram matrix of u = 0 and all 21 basis columns is formed for this check only
    basis = full_basis()
    assert np.allclose(np.einsum("kab,lab->kl", basis, basis), np.eye(21), rtol=0.0, atol=1e-15)
    operators = np.concatenate((np.zeros((1, 6, 6)), basis))
    gram = sum(cols @ np.swapaxes(cols, -1, -2)
               for cols in gh.design_columns(component, n, operators)) / len(gh.DESIGN)
    top = np.abs(gram).max()
    for a in range(4):
        for b in range(4):
            block = gram[..., FULL_BLOCKS == a, :][..., FULL_BLOCKS == b]
            if a != b:
                assert np.abs(block).max() <= ROUTE_REL * top, (a, b)
            elif a > 0:  # scalar on B, W+ and W-
                m = block.shape[-1]
                scalar = np.trace(block, axis1=-2, axis2=-1)[..., None, None] / m
                assert np.abs(block - scalar * np.eye(m)).max() <= ROUTE_REL * top
    tri, lam = gh.forms(component, n)
    trivial = gram[..., FULL_BLOCKS == 0, :][..., FULL_BLOCKS == 0]
    assert np.abs(np.swapaxes(tri, -1, -2) @ tri - trivial).max() <= ROUTE_REL * top
    weights = np.stack([np.diagonal(gram, axis1=-2, axis2=-1)[..., FULL_BLOCKS == a].mean(axis=-1)
                        for a in (1, 2, 3)], axis=-1)
    assert np.abs(lam - weights).max() <= ROUTE_REL * top


def test_the_compiled_forms_agree_with_the_direct_route(survey):
    flat = cur.model("flat")
    cases = [(rmat, row["component"], (row["t1"], row["t2"]), row["n"], res)
             for row, rmat, res in survey]
    cases += [(flat, component, (0.7, 1.9), n, gh.design_residuals(flat, component, (0.7, 1.9), n))
              for component, n in STRUCTURES]
    for rmat, component, t, n, want in cases:
        got = gh.residuals(rmat, component, t, n)
        assert gh.class_of(got, TOL) == gh.class_of(want, TOL), (component, n, got, want)
        above = want > TOL
        assert np.all(np.abs(got - want)[above] <= ROUTE_REL * want[above]), (got, want)
        assert np.all(got[got <= TOL] <= VANISH_REL), got
    # R = 0: family 2 is skipped, not divided by zero
    assert [gh.detect(flat, component, (0.7, 1.9), n, TOL) for component, n in STRUCTURES] \
        == ["W3", "W3", "W1W2", "W1W2"] * 4
    for component, n in STRUCTURES:
        assert np.all(gh.forms(component, n)[0][:, 1, :, 0] == 0.0)  # family 2's u = 0 column


#: ROADMAP item 3's atlas: for each class of ``classifier.CLASS_ORDER`` but
#: OTHER, the nullity of its cell over all 21 operators u = t1 R, then over the
#: strict ones in parentheses; - where no operator holds the class
ATLAS = {
    # components    n          K      W1     W2     W3     W1W2   W1W3   W2W3   W1W2W3
    (("++", "--"), (1, 2)): "-      -      -      15(14) -      15(14) 15(14) 15(14)",
    (("++", "--"), (3, 4)): "-      -      -      -      6(5)   -      -      15(14)",
    (("+-", "-+"), (1, 2)): "0(-)   0(-)   0(-)   7(6)   0(-)   7(6)   7(6)   7(6)",
    (("+-", "-+"), (3, 4)): "-      0(-)   0(-)   -      1(0)   6(5)   6(5)   7(6)",
}


def test_the_atlas_is_the_table_of_roadmap_item_3():
    def entry(component, n, cls):
        full, strict = (gh.nullity(component, n, cls, s) for s in (False, True))
        if full is None and strict is None:
            return "-"
        return f"{full}({'-' if strict is None else strict})"

    bad = []
    for (components, ns), want in ATLAS.items():
        for component, n in itertools.product(components, ns):
            got = [entry(component, n, cls) for cls in cl.CLASS_ORDER[:-1]]
            if got != want.split():
                bad.append(f"{component}, n = {n}: {' '.join(got)}")
    assert bad == [], "\n".join(bad)


def test_allowed_detected_is_the_least_classes_of_the_strict_cells():
    # a class's least class is the smallest class below it with the same strict
    # nullity: cells nest, so equal nullity means equal cells
    for n in (1, 2, 3, 4):
        least = {"OTHER"}
        for component in cl.COMPONENTS:
            strict = {cls: gh.nullity(component, n, cls, True) for cls in cl.CLASS_ORDER[:-1]}
            least |= {min((b for b in strict if strict[b] == k
                           and gh.CLASS_COMPONENTS[b] <= gh.CLASS_COMPONENTS[cls]),
                          key=lambda b: len(gh.CLASS_COMPONENTS[b]))
                      for cls, k in strict.items() if k is not None}
        assert least == cl.ALLOWED_DETECTED[n], n


# Corollaries of the atlas (ROADMAP item 14), read from the cells of the forms;
# they are not statements of the paper.  A cell is the set of operators
# u = t1 R, in the coordinates (s', tau') of ``gh.coordinates``, so
# s' = t1 s / (2 sqrt 6) with s = 2 trace R.

#: the largest difference between the coordinates of two cells that are one set;
#: every cell point here has coordinates of order 1
CELL_ABS = 1e-12


def class_cell(component, n, cls, strict=False):
    """The cell (x0, null, free) of the class ``cls``, or None when it is empty."""
    return gh.cell(component, n, {1, 2, 3, 4} - gh.CLASS_COMPONENTS[cls], strict=strict)


def same_cell(a, b):
    """Whether the cells a and b are the same set of operators."""
    (x0, null, free), (y0, other, other_free) = a, b
    proj, gap = null @ null.T, x0 - y0
    return (np.array_equal(free, other_free) and null.shape == other.shape
            and np.abs(proj - other @ other.T).max() <= CELL_ABS
            and np.abs(gap - proj @ gap).max() <= CELL_ABS)


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("strict", [False, True])
def test_corollary_for_n_1_and_2_the_cells_with_w3_coincide(component, n, strict):
    # the W3, W1W3, W2W3 and W1W2W3 cells are one set on every component
    w3 = class_cell(component, n, "W3", strict)
    for cls in ("W1W3", "W2W3", "W1W2W3"):
        assert same_cell(class_cell(component, n, cls, strict), w3), cls


@pytest.mark.parametrize("component", ["+-", "-+"])
@pytest.mark.parametrize("n", [1, 2])
def test_corollary_on_mixed_components_the_k_to_w1w2_cells_are_one_point(component, n):
    # the K, W1, W2 and W1W2 cells are the same single operator, and not a strict one
    kaehler = class_cell(component, n, "K")
    assert kaehler[1].shape[1] == 0 and not kaehler[2].any()
    for cls in ("W1", "W2", "W1W2"):
        assert same_cell(class_cell(component, n, cls), kaehler), cls
        assert class_cell(component, n, cls, strict=True) is None, cls


@pytest.mark.parametrize("component", ["+-", "-+"])
@pytest.mark.parametrize("n", [3, 4])
def test_corollary_on_mixed_components_the_strict_w1w2_cell_is_flat(component, n):
    # the strict W1W2 cell is the one point s' = 0 with no free block: u = 0
    x0, null, free = class_cell(component, n, "W1W2", strict=True)
    assert null.shape == (1, 0) and not free.any()
    assert abs(x0[0]) <= CELL_ABS


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [3, 4])
def test_corollary_the_w1w3_and_w2w3_cells_never_meet(component, n):
    # both hold exactly where W3 does, which no operator reaches for n = 3, 4;
    # on +- and -+ the two cells are parallel, through the strict points
    # t1 s = 3 and t1 s = -6, and on ++ and -- both are empty
    assert class_cell(component, n, "W3") is None
    w13, w23 = class_cell(component, n, "W1W3"), class_cell(component, n, "W2W3")
    if component in ("++", "--"):
        assert w13 is None and w23 is None
        return
    proj, gap = w13[1] @ w13[1].T, w13[0] - w23[0]
    assert np.abs(proj - w23[1] @ w23[1].T).max() <= CELL_ABS
    assert np.linalg.norm(gap - proj @ gap) > NONZERO_MIN
    t1_s = [2 * 6 ** 0.5 * class_cell(component, n, cls, strict=True)[0][0]
            for cls in ("W1W3", "W2W3")]
    assert np.allclose(t1_s, [3.0, -6.0], rtol=0.0, atol=CELL_ABS)


def test_every_reference_row_keeps_its_class(survey):
    assert len(survey) == 256
    bad = [f"row {row['id']}: {gh.class_of(res, TOL)} != {row['detected']} ({res})"
           for row, _, res in survey if gh.class_of(res, TOL) != row["detected"]]
    assert bad == [], "\n".join(bad)
    # no residual lies near the tolerance
    res = np.array([r for _, _, r in survey])
    assert np.all((res <= VANISH_REL) | (res > NONZERO_MIN)), np.sort(res[res > VANISH_REL])[:5]


def test_no_proper_class_contains_w4(survey):
    for component, n in STRUCTURES:
        sets = gh.carried(component, n)
        assert all(s == {1, 2, 3, 4} for s in sets if 4 in s), (component, n, sets)
        assert sets[-1] == {1, 2, 3, 4}
    sets = [{i + 1 for i, r in enumerate(res) if r > TOL} for _, _, res in survey]
    assert all(s == {1, 2, 3, 4} for s in sets if 4 in s)
    assert {1, 2, 3, 4} in sets


@pytest.mark.parametrize("s", [1e-18, 1e-6, 12.0, 1e8, 1e12])
def test_the_w1w3_witness_reads_w1w3_at_every_scale(s):
    # constant curvature on +- with n = 3 and t1 = 3/s (statement 4.6b), on both
    # routes; the sampled detector reads K at s = 1e-18 and OTHER at s = 1e8 and 1e12
    for route in (gh.residuals, gh.design_residuals):
        res = route(cur.model("constant_curvature", s=s), "+-", (3.0 / s, 1.0), 3)
        assert gh.class_of(res, TOL) == "W1W3", route
        at12 = route(cur.model("constant_curvature", s=12.0), "+-", (0.25, 1.0), 3)
        assert np.allclose(res[[0, 2]], at12[[0, 2]], rtol=1e-12, atol=0.0)
        assert np.all(res[[1, 3]] <= VANISH_REL)


@pytest.mark.parametrize("lam", [1e-12, 1e-6, 1e6, 1e12])
def test_no_class_changes_under_the_homothety_or_with_t2(survey, lam):
    # 64 rows, every fourth, at (R / lam, lam t1, lam t1 rho) for 4 ratios rho = t2 / t1:
    # 1024 configurations over the four values of lam, on the direct route (the
    # compiled forms hold the homothety by construction)
    bad = []
    for row, rmat, _ in survey[::4]:
        for rho in (1e-12, 1e-3, 1e3, 1e12):
            t1 = lam * row["t1"]
            res = gh.design_residuals(rmat / lam, row["component"], (t1, t1 * rho), row["n"])
            if gh.class_of(res, TOL) != row["detected"]:
                bad.append(f"row {row['id']} at rho = {rho}: {gh.class_of(res, TOL)} "
                           f"!= {row['detected']}")
    assert bad == [], "\n".join(bad)


#: a condition of the sampled detector, and the components W1..W4 that vanish with it
ROUTES = {"W1-cond": (2, 3, 4), "quasi-cond": (3, 4), "dΩ": (1, 3, 4), "δΩ": (4,)}


def test_the_component_route_and_the_condition_route_vanish_together(survey):
    rng = np.random.default_rng(94)
    seen = {cond: set() for cond in ROUTES}
    for row, rmat, _ in survey:
        points = cl._points(rng.standard_normal((4, 6)), row["component"])
        T, M = tn.frame_tensor(points, rmat, tn.Params(row["t1"], row["t2"], row["n"]))
        # the scale of T: a K row's T is roundoff, relative to |T| at the point
        # it would not vanish
        scale = sum(gh.scales(rmat, (row["t1"], row["t2"])))
        parts = np.abs(gh.projections(T, M)).max(axis=(-3, -2, -1))
        for cond, q in cl._condition_tensors(T, M, tuple(ROUTES)):
            if cl._SLOTS[cond][:2] == (cl._A, cl._A):  # on (A, A, C) only Q's symmetric part
                q = 0.5 * (q + np.swapaxes(q, -3, -2))
            by_condition = np.abs(q.reshape(len(q), -1)).max(axis=1) / scale
            by_components = parts[[i - 1 for i in ROUTES[cond]]].max(axis=0) / scale
            for value in (by_condition, by_components):
                assert np.all((value <= VANISH_REL) | (value > NONZERO_MIN)), (row["id"], cond)
            assert np.array_equal(by_condition <= VANISH_REL, by_components <= VANISH_REL), \
                (row["id"], cond, by_condition, by_components)
            seen[cond] |= set(by_condition <= VANISH_REL)
    assert all(v == {True, False} for v in seen.values()), seen


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_2_carries_no_component_w3_alone_or_all_four(component, n):
    # family 2 is linear in R, and the design means are the sphere's, so
    # vanishing over the design is vanishing everywhere
    assert gh.carried(component, n, families=(2,)) == [set(), {3}, {1, 2, 3, 4}]
