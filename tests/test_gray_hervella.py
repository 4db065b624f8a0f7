"""The detector of tests/gray_hervella.py: its projectors, its design, and the
classes it reads.

- The four projections sum to T, are orthogonal and idempotent, and have the
  defining properties of W1..W4; each splits orthogonally between the two
  factor families.
- The design means do not change when the icosahedron and the octahedron are
  rotated.
- Every row of perfbench/reference.json gets its recorded class, and every
  residual lies far from the tolerance.
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
from test_reference_survey import _reference, _workloads

TOL = 1e-9
#: bound of the projector identities, relative to |T|
ALGEBRA_REL = 1e-14
#: bound of the rotation invariance of a design mean, relative to |T|^2
ROTATION_REL = 1e-13
VANISH_REL = 1e-12
NONZERO_MIN = 1e-3


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
        out.append((row, rmat, gh.residuals(rmat, row["component"], t, row["n"])))
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


def test_every_reference_row_keeps_its_class(survey):
    assert len(survey) == 256
    bad = [f"row {row['id']}: {gh.class_of(res, TOL)} != {row['detected']} ({res})"
           for row, _, res in survey if gh.class_of(res, TOL) != row["detected"]]
    assert bad == [], "\n".join(bad)
    # no residual lies near the tolerance
    res = np.array([r for _, _, r in survey])
    assert np.all((res <= VANISH_REL) | (res > NONZERO_MIN)), np.sort(res[res > VANISH_REL])[:5]


def test_no_proper_class_contains_w4(survey):
    rng = np.random.default_rng(93)
    sets = [{i + 1 for i, r in enumerate(res) if r > TOL} for _, _, res in survey]
    for component in cl.COMPONENTS:
        for n in (1, 2, 3, 4):
            res = gh.residuals(cur.random_strict_operator(rng), component,
                               tuple(rng.uniform(0.3, 2.0, 2)), n)
            sets.append({i + 1 for i, r in enumerate(res) if r > TOL})
    assert all(s == {1, 2, 3, 4} for s in sets if 4 in s)
    assert {1, 2, 3, 4} in sets


@pytest.mark.parametrize("s", [1e-18, 1e-6, 12.0, 1e8, 1e12])
def test_the_w1w3_witness_reads_w1w3_at_every_scale(s):
    # constant curvature on +- with n = 3 and t1 = 3/s (statement 4.6b); the
    # sampled detector reads K at s = 1e-18 and OTHER at s = 1e8 and 1e12
    res = gh.residuals(cur.model("constant_curvature", s=s), "+-", (3.0 / s, 1.0), 3)
    assert gh.class_of(res, TOL) == "W1W3"
    at12 = gh.residuals(cur.model("constant_curvature", s=12.0), "+-", (0.25, 1.0), 3)
    assert np.allclose(res[[0, 2]], at12[[0, 2]], rtol=1e-12, atol=0.0)
    assert np.all(res[[1, 3]] <= VANISH_REL)


@pytest.mark.parametrize("lam", [1e-12, 1e-6, 1e6, 1e12])
def test_no_class_changes_under_the_homothety_or_with_t2(survey, lam):
    # 64 rows, every fourth, at (R / lam, lam t1, lam t1 rho) for 4 ratios rho = t2 / t1:
    # 1024 configurations over the four values of lam
    bad = []
    for row, rmat, _ in survey[::4]:
        for rho in (1e-12, 1e-3, 1e3, 1e12):
            t1 = lam * row["t1"]
            got = gh.detect(rmat / lam, row["component"], (t1, t1 * rho), row["n"], TOL)
            if got != row["detected"]:
                bad.append(f"row {row['id']} at rho = {rho}: {got} != {row['detected']}")
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


#: an orthonormal basis of the symmetric 6x6 operators: E_aa and (E_ab + E_ba) / sqrt 2
SYMMETRIC_BASIS = np.array([(np.outer(e, f) + np.outer(f, e)) / (2.0 if a == b else 2 ** 0.5)
                            for a, e in enumerate(np.eye(6)) for b, f in enumerate(np.eye(6))
                            if a <= b])


@pytest.mark.parametrize("component", cl.COMPONENTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_2_carries_no_component_w3_alone_or_all_four(component, n):
    # Family 2 is linear in R, so the operators on which P_i T vanishes there over
    # the design form a subspace K_i of the 21 dimensions.  An operator carries
    # exactly the components S when it lies in every K_i outside S and in none
    # inside; such an operator exists when the intersection V_S of the K_i
    # outside S lies in no K_i inside S, since no space is a finite union of
    # proper subspaces.  The design means are the sphere's, so vanishing over the
    # design is vanishing everywhere.
    assert SYMMETRIC_BASIS.shape == (21, 6, 6)
    points, params = cl._points(gh.DESIGN, component), tn.Params(0.7, 1.9, n)

    def family_2(rmat):
        T, M = tn.frame_tensor(points, rmat, params)
        return gh.projections(gh.FAMILIES[1] * T, M).reshape(4, -1)

    maps = np.stack([family_2(e) for e in SYMMETRIC_BASIS], axis=-1)  # (4, entries, 21)
    c = np.random.default_rng([95, n, cl.COMPONENTS.index(component)]).standard_normal(21)
    scale = np.abs(maps).max() * np.abs(c).sum()
    combined = family_2(np.tensordot(c, SYMMETRIC_BASIS, 1))
    assert np.abs(combined - maps @ c).max() <= ALGEBRA_REL * scale
    # the triangular factors keep each map's kernel and singular values in 21 x 21
    tri = np.linalg.qr(maps, mode="r")
    size = max(np.linalg.norm(r, 2) for r in tri)

    def kernel(maps_out):
        if not maps_out:
            return np.eye(21)
        sv, vt = np.linalg.svd(np.concatenate(tri[list(maps_out)]))[1:]
        assert np.all((sv <= VANISH_REL * size) | (sv > NONZERO_MIN * size)), sv / size
        return vt[np.count_nonzero(sv > VANISH_REL * size):].T

    carried = []
    for inside in itertools.chain.from_iterable(itertools.combinations(range(4), k)
                                                for k in range(5)):
        v = kernel([i for i in range(4) if i not in inside])
        if v.shape[1] == 0:
            continue
        norms = np.array([np.linalg.norm(tri[i] @ v, 2) / size for i in inside])
        assert np.all((norms <= VANISH_REL) | (norms > NONZERO_MIN)), (inside, norms)
        if np.all(norms > NONZERO_MIN):
            carried.append({i + 1 for i in inside})
    assert carried == [set(), {3}, {1, 2, 3, 4}]
