import csv
import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import fibre, fourdim as fd, selftest, tensors as tn

from random_fourdim import half
from reference import acs, coefficients, cov_deriv_omega, gtangent

RNG = np.random.default_rng(606)

FAST = cl.SamplingConfig(seed=3)
DEFAULT = cl.SamplingConfig(seed=7)


def residual(cond, rmat, component, t, n, cfg, sample=cl.SAMPLE):
    """Sup of one condition's normalized residual over the seeded sample."""
    return cl.condition_residuals(rmat, component, t, n, cfg, (cond,), sample)[cond]


def class_parts(name):
    """The parts W1, W2, W3 a class name lists, as digits; OTHER lies above every class."""
    return set("0123") if name == "OTHER" else set(name[1::2])


class TestConfigAndNames:
    def test_config_holds_only_the_seed(self):
        # the class threshold is the constant TOL
        with pytest.raises(TypeError):
            cl.SamplingConfig(seed=0, tol=1e-6)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(cl.ClassifierError, match="seed must be an integer"):
            cl.SamplingConfig(seed=seed)

    @pytest.mark.parametrize("seed,match", [(1.5, "seed must be an integer"),
                                            (True, "seed must be an integer"),
                                            ("3", "seed must be an integer"),
                                            (-1, "seed must be a non-negative integer")])
    def test_selftest_seed_follows_the_config_rule(self, seed, match):
        with pytest.raises(cl.ClassifierError, match=match):
            selftest.run_selftest(seed)

    def test_unknown_condition(self):
        with pytest.raises(cl.ClassifierError, match="unknown condition"):
            residual("bogus", cur.model("flat"), "++", (1.0, 1.0), 1, FAST)

    def test_unknown_component(self):
        with pytest.raises(cl.ClassifierError, match="component"):
            residual("N", cur.model("flat"), "+", (1.0, 1.0), 1, FAST)


class TestResiduals:
    def test_flat_codifferential_is_exactly_zero(self):
        assert residual("δΩ", cur.model("flat"), "++", (1.0, 1.0), 1, FAST) == 0.0

    def test_flat_nijenhuis_small_on_first_structures(self):
        assert residual("N", cur.model("flat"), "++", (1.0, 1.0), 1, FAST) < 1e-13

    def test_flat_covariant_derivative_is_large(self):
        for component in ("++", "+-"):
            for n in (1, 2, 3, 4):
                assert residual("DΩ", cur.model("flat"), component,
                                (1.0, 1.0), n, FAST) > 0.1

    def test_partial_run_matches_full_run(self):
        # both samples fill chunks of 16 points, whose conditions share the
        # J-twists and argument outer products in a full run only
        rmat = cur.model("constant_curvature", s=12.0)
        for sample in (cl.SAMPLE, cl.REDUCED_SAMPLE):
            for component in cl.COMPONENTS:
                full = cl.condition_residuals(rmat, component, (0.25, 1.0), 3, FAST,
                                              sample=sample)
                for cond in cl.CONDITIONS:
                    assert residual(cond, rmat, component, (0.25, 1.0), 3, FAST, sample) == \
                        full[cond], (sample, component, cond)
        assert cl.condition_residuals(rmat, "+-", (0.25, 1.0), 3, FAST, conditions=()) == {}


class TestClassify:
    @pytest.mark.parametrize("rmat,component,t,n,expected", [
        (cur.model("flat"), "++", (1.0, 1.0), 1, "W3"),
        (cur.model("flat"), "++", (1.0, 1.0), 3, "W1W2"),
        (cur.model("constant_curvature", s=12.0), "+-", (0.25, 1.0), 3, "W1W3"),
        (cur.model("constant_curvature", s=-12.0), "+-", (0.5, 1.0), 3, "W2W3"),
        (cur.model("constant_curvature", s=-12.0), "+-", (0.5, 1.0), 4, "W2W3"),
        (cur.model("kaehler_witness", s=12.0), "+-", (0.5, 1.0), 1, "K"),
        (cur.model("kaehler_witness", s=12.0), "+-", (0.5, 1.0), 2, "K"),
        (cur.model("w1_witness", s=12.0), "+-", (0.25, 1.0), 3, "W1"),
        (cur.model("w2_witness", s=-12.0), "+-", (0.5, 1.0), 4, "W2"),
    ])
    def test_detected_class(self, rmat, component, t, n, expected):
        assert cl.classify(rmat, component, t, n, FAST).detected == expected

    def test_einstein_asd_is_hermitian_semi_kaehler(self):
        wm = cur.random_traceless_symmetric(np.random.default_rng(5))
        rmat = cur.model("einstein_asd", s=5.2, Wminus=wm)
        report = cl.classify(rmat, "+-", (0.8, 1.1), 1, FAST)
        assert report.detected == "W3"
        assert report.flags["strict"]
        assert not report.flags["possible_class_violation"]

    def test_witness_flags(self):
        report = cl.classify(cur.model("kaehler_witness", s=12.0), "+-", (0.5, 1.0), 1, FAST)
        assert not report.flags["strict"]

    def test_class_outside_the_possible_set_is_flagged_not_silenced(self, monkeypatch):
        # a strict Einstein operator is W3 for n = 1; with W3 taken out of the
        # possible set the class is still reported, and flagged
        rmat = cur.model("einstein_asd", s=5.2,
                         Wminus=cur.random_traceless_symmetric(np.random.default_rng(5)))
        monkeypatch.setitem(cl.ALLOWED_DETECTED, 1, frozenset({"K", "OTHER"}))
        report = cl.classify(rmat, "+-", (0.8, 1.1), 1, FAST)
        assert report.flags["strict"]
        assert report.detected == "W3"
        assert report.flags["possible_class_violation"]

    def test_strict_operator_read_as_kaehler_is_flagged(self):
        # no strict operator is Kaehler: on +- with n = 1 the K cell is the
        # non-strict Kaehler witness alone.  At s = 1e-18 the absolute threshold
        # reads constant curvature as K, which the possible set must flag
        report = cl.classify(cur.model("constant_curvature", s=1e-18), "+-", (6e18, 1.0), 1,
                             DEFAULT)
        assert report.flags["strict"]
        assert report.detected == "K"
        assert report.flags["possible_class_violation"]

    def test_monotone_in_the_lattice(self):
        for rmat, component, t, n in [
            (cur.model("kaehler_witness", s=12.0), "+-", (0.5, 1.0), 1),
            (cur.model("w1_witness", s=12.0), "+-", (0.25, 1.0), 3),
            (cur.model("constant_curvature", s=-12.0), "+-", (0.5, 1.0), 3),
            (cur.model("flat"), "++", (1.0, 1.0), 1),
        ]:
            report = cl.classify(rmat, component, t, n, FAST)
            passing = {c for c in cl.CLASS_ORDER
                       if all(report.residuals[k] <= cl.TOL
                              for k in cl.CLASS_CONDITIONS[c])}
            assert report.detected in passing
            for c in passing:
                above = {d for d in cl.CLASS_ORDER if class_parts(c) <= class_parts(d)}
                assert above <= passing

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_is_rejected(self, bad):
        rmat = cur.model("constant_curvature", s=12.0)
        rmat[2, 2] = bad
        with pytest.raises(cur.CurvatureError, match="non-finite"):
            cl.classify(rmat, "+-", (0.25, 1.0), 3, FAST)

    def test_overflowing_residuals_are_rejected(self):
        # finite inputs whose frame tensor overflows: the sup must keep the NaN
        rmat = cur.model("constant_curvature", s=1e300)
        with np.errstate(all="ignore"):
            res = cl.condition_residuals(rmat, "+-", (1e300, 1.0), 3, FAST)
            assert any(np.isnan(r) for r in res.values())
            with pytest.raises(cl.ClassifierError, match="non-finite"):
                cl.classify(rmat, "+-", (1e300, 1.0), 3, FAST)

    @pytest.mark.parametrize("component", cl.COMPONENTS)
    def test_array_likes_give_the_same_report(self, component):
        # condition_residuals reads the operator as given; classify converts it
        reports = {cl.classify(rmat, component, (0.25, 1.0), 3, FAST).to_json()
                   for rmat in (np.eye(6).tolist(), np.eye(6, dtype=int), np.eye(6))}
        assert len(reports) == 1

    def test_numpy_integers_give_the_same_report(self):
        # the report holds Python ints, which JSON can write
        rmat = cur.model("constant_curvature", s=12.0)
        want = cl.classify(rmat, "+-", (0.25, 1.0), 3, FAST).to_json()
        got = cl.classify(rmat, "+-", np.array([0.25, 1]), np.int64(3),
                          cl.SamplingConfig(np.int64(3)))
        assert got.to_json() == want

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(cl.ClassifierError, match="n must be an integer"):
            cl.classify(cur.model("flat"), "++", (1.0, 1.0), n, FAST)

    @pytest.mark.parametrize("n", [0, 5, 7])
    def test_n_must_be_a_structure_index(self, n):
        with pytest.raises(cl.ClassifierError, match="n must be in 1..4"):
            cl.classify(cur.model("flat"), "++", (1.0, 1.0), n, FAST)

    @pytest.mark.parametrize("t", [(0.25,), (0.25, 1.0, 9.0), 0.25, ("a", 1.0), "12",
                                   [[0.25, 1.0]], (True, 1.0), ("0.25", 1.0)])
    def test_t_must_be_a_pair(self, t):
        # a bool or a str would pass float(), as 1.0 and 0.25
        with pytest.raises(cl.ClassifierError, match="t must be a pair"):
            cl.classify(cur.model("flat"), "++", t, 1, FAST)

    @pytest.mark.parametrize("t", [(-1.0, 1.0), (0.25, 0.0), (np.inf, 1.0), (1.0, np.inf),
                                   (np.nan, 1.0), (1.0, np.nan), (10 ** 400, 1.0)])
    def test_weights_must_be_positive_and_finite(self, t):
        with pytest.raises(cl.ClassifierError, match="positive and finite"):
            cl.classify(cur.model("flat"), "++", t, 1, FAST)

    def test_report_json_refuses_nan(self):
        report = cl.classify(cur.model("flat"), "++", (1.0, 1.0), 1, FAST)
        report.residuals["DΩ"] = float("nan")
        with pytest.raises(ValueError):
            report.to_json()

    def test_possible_classes_for_strict_operators(self):
        rng = np.random.default_rng(2718)
        for _ in range(10):
            rmat = cur.random_strict_operator(rng)
            t = (float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
            for n, component in ((1, "++"), (2, "+-"), (3, "++"), (4, "+-")):
                report = cl.classify(rmat, component, t, n, FAST)
                assert report.detected in cl.ALLOWED_DETECTED[n]
                assert not report.flags["possible_class_violation"]


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        rmat = cur.model("constant_curvature", s=12.0)
        one = cl.classify(rmat, "+-", (0.25, 1.0), 3, DEFAULT).to_json()
        two = cl.classify(rmat, "+-", (0.25, 1.0), 3, DEFAULT).to_json()
        assert one == two

    def test_seed_changes_the_sample(self):
        rmat = cur.model("flat")
        a = residual("DΩ", rmat, "++", (1.0, 1.0), 1, FAST)
        b = residual("DΩ", rmat, "++", (1.0, 1.0), 1, cl.SamplingConfig(seed=4))
        assert a != b

    def test_csv_round(self):
        report = cl.classify(cur.model("flat"), "++", (1.0, 1.0), 1, FAST, source="model:flat")
        text = report.to_csv()
        header, row = text.strip().split("\n")
        assert header.split(",")[0] == "detected"
        assert row.split(",")[0] == "W3"
        assert len(header.split(",")) == len(row.split(","))

    @pytest.mark.parametrize("source", ["", 'in,put "x"\nop.json'], ids=["plain", "quoted"])
    def test_csv_cells_are_the_json_fields(self, source):
        report = cl.classify(cur.model("constant_curvature", s=12.0), "+-", (0.25, 1.0), 3,
                             cl.SamplingConfig(), source=source)
        doc = report.to_json_dict()
        fields = [("detected", doc["detected"])]
        for part in ("config", "flags", "residuals"):
            fields += doc[part].items()
        header, row = csv.reader(io.StringIO(report.to_csv()))
        assert header == [name for name, _ in fields]
        assert len(row) == len(fields)
        for cell, (name, value) in zip(row, fields):
            if isinstance(value, float):
                assert float(cell) == value, name
            elif isinstance(value, bool):
                assert cell == ("True" if value else "False"), name
            elif isinstance(value, int):
                assert cell == str(value), name
            else:
                assert isinstance(value, str) and cell == value, name


def reversed_structure(phi, j):
    """phi J phi^T for an orientation-reversing phi, built from the half of its
    two-vector of the opposite sign; the other half must vanish and the build
    must give phi J phi^T back."""
    conj = phi @ j.matrix @ phi.T
    w = fd.two_vector_of_endo(conj)
    assert np.max(np.abs(half(w, j.sign))) < 1e-12
    out = fd.OrientedComplexStructure4(half(w, -j.sign), -j.sign)
    assert_allclose(out.matrix, conj, rtol=0, atol=1e-12)
    return out


class TestOrientationSymmetry:
    def test_pointwise_equivariance_under_orientation_reversal(self):
        # push every datum forward by an orientation-reversing isometry; all
        # tensors must be preserved and the component signs flip
        rng = np.random.default_rng(99)
        phi = fibre.random_orthogonal(4, rng)
        if np.linalg.det(phi) > 0:
            phi = phi @ np.diag([1.0, 1.0, 1.0, -1.0])
        lam = fd.two_vector_of_endo(phi @ fd.S_BASIS_ENDOS @ phi.T).T  # Lambda^2 phi
        rmat = cur.random_strict_operator(rng)
        rmat2 = lam @ rmat @ lam.T
        rmat2 = 0.5 * (rmat2 + rmat2.T)
        params = tn.Params(0.9, 1.4, 3)
        for comp in ("++", "+-"):
            p = cl._points(rng.standard_normal(6), comp)
            p2 = tn.ProductTwistorPoint(*(reversed_structure(phi, j) for j in (p.j1, p.j2)))
            for _ in range(10):
                abc = [rng.standard_normal(8) for _ in range(3)]
                # the same tangents pushed forward, read in the frame at p2
                abc2 = [coefficients(p2, params, gtangent(phi @ g.horizontal,
                                                          phi @ g.v1 @ phi.T,
                                                          phi @ g.v2 @ phi.T))
                        for g in (tn.frame_vectors(p, params, x) for x in abc)]
                assert cov_deriv_omega(p2, rmat2, params, *abc2) == pytest.approx(
                    cov_deriv_omega(p, rmat, params, *abc), abs=1e-10)
                assert tn.codiff_omega(p2, rmat2, params, abc2[0]) == pytest.approx(
                    tn.codiff_omega(p, rmat, params, abc[0]), abs=1e-10)
                assert tn.nijenhuis_closed_form(p2, rmat2, params, *abc2) == pytest.approx(
                    tn.nijenhuis_closed_form(p, rmat, params, *abc), abs=1e-10)

    def test_block_swap_matches_detected_classes(self):
        # classifying on -- with the half-swapped operator reproduces ++
        for rmat, t, n in [
            (cur.model("flat"), (1.0, 1.0), 1),
            (cur.model("flat"), (1.0, 1.0), 3),
            (cur.model("asd_ricci_flat",
                       Wminus=cur.random_traceless_symmetric(np.random.default_rng(8))),
             (0.8, 1.1), 3),
        ]:
            plus = cl.classify(rmat, "++", t, n, FAST).detected
            minus = cl.classify(cur.swap_halves(rmat), "--", t, n, FAST).detected
            assert plus == minus
        # and +- pairs with -+
        rmat = cur.model("kaehler_witness", s=12.0)
        assert cl.classify(cur.swap_halves(rmat), "-+", (0.5, 1.0), 1, FAST).detected == \
            cl.classify(rmat, "+-", (0.5, 1.0), 1, FAST).detected == "K"


def _contract(T, x, y, z):
    return np.einsum("...abc,...ka,...kb,...kc->...k", T, x, y, z)


def _sampled_sup(rmat, component, t, n, cfg, value, norm_slots, sample=cl.SAMPLE):
    """Sup of |value(T, A, B, C, JA, JB, JC)| / (1 + product of the slot norms)
    over the classifier's seeded sample of ``sample`` = (points, triples)."""
    params = tn.Params(t[0], t[1], n)
    rng = np.random.default_rng(cfg.seed)
    num_points, k = sample
    worst = 0.0
    for _ in range(num_points):
        p = cl._points(rng.standard_normal(6), component)
        coeffs = rng.standard_normal((k, 3, 8))
        T, M = tn.frame_tensor(p, rmat, params)
        args = (*coeffs.transpose(1, 0, 2), *(coeffs @ M.T).transpose(1, 0, 2))
        norms = np.linalg.norm(coeffs, axis=2)
        nrm = 1.0 + np.prod(norms[:, norm_slots], axis=1)
        worst = max(worst, float(np.max(np.abs(value(T, *args)) / nrm)))
    return worst


class TestLiteralReadings:
    def test_w13_literal_sign_fails_on_the_witness(self):
        rmat = cur.model("constant_curvature", s=12.0)
        good = residual("W1W3-cond", rmat, "+-", (0.25, 1.0), 3, FAST)

        def wrong_sign(T, a, b, c, ja, jb, jc):
            return _contract(T, a, a, c) + _contract(T, ja, ja, c)

        bad = _sampled_sup(rmat, "+-", (0.25, 1.0), 3, FAST, wrong_sign, [0, 0, 2])
        assert good <= 1e-9
        assert bad > 1e-3

    def test_w23_literal_cyclic_fails_on_the_witness(self):
        rmat = cur.model("constant_curvature", s=-12.0)
        good = residual("W2W3-cond", rmat, "+-", (0.5, 1.0), 3, FAST)

        def literal(T, a, b, c, ja, jb, jc):
            return (_contract(T, a, a, c) - _contract(T, ja, ja, c)
                    + _contract(T, b, b, a) - _contract(T, jb, jb, a)
                    + _contract(T, c, c, b) - _contract(T, jc, jc, b))

        bad = _sampled_sup(rmat, "+-", (0.5, 1.0), 3, FAST, literal, [0, 1, 2])
        assert good <= 1e-9
        assert bad > 1e-3

    # the full sample is two geometry blocks of 32 points, each contracted in
    # two chunks of 16; the reduced one is one partial block of 16 points.
    # The other shapes are not production samples but exercise the remaining
    # block splits: 1 point is a partial chunk, 17 points one full chunk and
    # a 1-point one, and 40 points a full block and a partial one of 8
    @pytest.mark.parametrize("sample", [(1, 8), (17, 8), (40, 8), cl.REDUCED_SAMPLE,
                                        cl.SAMPLE])
    @pytest.mark.parametrize("component", cl.COMPONENTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sampler_reproduces_the_classifier(self, n, component, sample):
        # the classifier evaluates points in stacked blocks and chunks; a
        # per-point loop over the same stream must give the same sups for every
        # condition
        rmat = cur.random_strict_operator(np.random.default_rng([17, n]))
        t = (0.3, 1.2)
        cfg = cl.SamplingConfig(seed=3)
        params = tn.Params(t[0], t[1], n)
        norm_slots = {"W1-cond": [0, 0, 2], "W1W3-cond": [0, 0, 2], "δΩ": [0]}
        rng = np.random.default_rng(cfg.seed)
        num_points, k = sample
        want = dict.fromkeys(cl.CONDITIONS, 0.0)
        for _ in range(num_points):
            p = cl._points(rng.standard_normal(6), component)
            coeffs = rng.standard_normal((k, 3, 8))
            T, M = tn.frame_tensor(p, rmat, params)
            assert (T.shape, M.shape) == ((8, 8, 8), (8, 8))
            norms = np.linalg.norm(coeffs, axis=2)
            for c, vals in cl.condition_values(T, M, coeffs).items():
                nrm = 1.0 + np.prod(norms[:, norm_slots.get(c, [0, 1, 2])], axis=1)
                want[c] = max(want[c], float(np.max(np.abs(vals) / nrm)))
        got = cl.condition_residuals(rmat, component, t, n, cfg, sample=sample)
        assert got == pytest.approx(want, rel=1e-12)

        def w13(T, a, b, c, ja, jb, jc):
            return _contract(T, a, a, c) - _contract(T, ja, ja, c)

        assert _sampled_sup(rmat, component, t, n, cfg, w13, [0, 0, 2], sample) == \
            pytest.approx(got["W1W3-cond"], rel=1e-12)


class TestFrameTensorContractions:
    @pytest.mark.parametrize("component", cl.COMPONENTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_condition_values_match_the_public_evaluators(self, component, n):
        rng = np.random.default_rng([41, n, cl.COMPONENTS.index(component)])
        rmat = cur.random_strict_operator(rng)
        params = tn.Params(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)), n)
        # the classifier's per-point stream: u1, u2, then the coefficient triples
        draws = [(rng.standard_normal(6), rng.standard_normal((4, 3, 8))) for _ in range(2)]
        # both points once more as one stacked call
        T2, M2 = tn.frame_tensor(cl._points(np.stack([u for u, _ in draws]), component),
                                 rmat, params)
        stacked = cl.condition_values(T2, M2, np.stack([x for _, x in draws]))
        assert {v.shape for v in stacked.values()} == {(2, 4)}
        for i, (u, coeffs) in enumerate(draws):
            p = cl._points(u, component)
            T, M = tn.frame_tensor(p, rmat, params)
            values = cl.condition_values(T, M, coeffs)
            for k in range(len(coeffs)):
                a, b, c = coeffs[k]
                # Jn of each argument by the reference, read in the frame
                ja, jb, jc = (coefficients(p, params, acs(p, g, params))
                              for g in (tn.frame_vectors(p, params, x) for x in (a, b, c)))

                def d(x, y, z):
                    return cov_deriv_omega(p, rmat, params, x, y, z)

                expected = {
                    "DΩ": d(a, b, c),
                    "W1-cond": d(a, a, c),
                    "dΩ": tn.ext_deriv_omega(p, rmat, params, a, b, c),
                    "N": tn.nijenhuis_closed_form(p, rmat, params, a, b, c),
                    "δΩ": tn.codiff_omega(p, rmat, params, a),
                    "quasi-cond": d(a, b, c) + d(ja, jb, c),
                    "W1W3-cond": d(a, a, c) - d(ja, ja, c),
                    "W2W3-cond": (d(a, b, c) - d(ja, jb, c) + d(b, c, a) - d(jb, jc, a)
                                  + d(c, a, b) - d(jc, ja, b)),
                }
                assert set(values) == set(expected)
                for cond, want in expected.items():
                    assert values[cond][k] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))
                    assert stacked[cond][i, k] == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


def _dense_condition_values(T, M, coeffs):
    """Each condition as one dense einsum of T with its (J-twisted) slot arguments."""
    x, y, z = (coeffs[..., i, :] for i in range(3))

    def j(v):  # coefficients of Jn V
        return np.einsum("...ij,...kj->...ki", M, v)

    def t(a, b, c):
        return _contract(T, a, b, c)

    def cyclic(f, a, b, c):
        return f(a, b, c) + f(b, c, a) + f(c, a, b)

    def w23(a, b, c):
        return t(a, b, c) - t(j(a), j(b), c)

    return {
        "DΩ": t(x, y, z),
        "W1-cond": t(x, x, z),
        "dΩ": cyclic(t, x, y, z),
        "N": t(j(x), y, z) + t(x, j(y), z) - t(j(y), x, z) - t(y, j(x), z),
        "δΩ": -np.einsum("...aac,...kc->...k", T, x),
        "quasi-cond": t(x, y, z) + t(j(x), j(y), z),
        "W1W3-cond": t(x, x, z) - t(j(x), j(x), z),
        "W2W3-cond": cyclic(w23, x, y, z),
    }


class TestSharedContraction:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_condition_values_match_dense_einsum(self, lead, k, n):
        rng = np.random.default_rng([23, len(lead), k, n])
        rmat = cur.random_strict_operator(rng)
        params = tn.Params(0.7, 1.3, n)
        T, M = tn.frame_tensor(cl._points(rng.standard_normal(lead + (6,)), "+-"), rmat, params)
        coeffs = rng.standard_normal(lead + (k, 3, 8))
        want = _dense_condition_values(T, M, coeffs)
        got = cl.condition_values(T, M, coeffs)
        assert list(got) == list(cl.CONDITIONS)
        for cond in cl.CONDITIONS:
            assert got[cond].shape == lead + (k,)
            scale = np.max(np.abs(want[cond]))
            assert np.max(np.abs(got[cond] - want[cond])) <= 1e-13 * scale, cond
            # asked alone, a condition indexes only the slots it uses
            slots = 1 if cond == "δΩ" else 3
            alone = cl.condition_values(T, M, coeffs[..., :slots, :], (cond,))
            assert np.array_equal(alone[cond], got[cond]), cond


class TestGeometryCache:
    ARGS = (cur.model("constant_curvature", s=12.0), "+-", (0.25, 1.0), 3)

    @staticmethod
    def cached(rows, component):
        rows = np.ascontiguousarray(rows)
        return cl._block_points(rows.tobytes(), rows.shape, component)

    def test_warm_call_equals_cold_call_bit_for_bit(self):
        cfg = cl.SamplingConfig(seed=5)
        cl._block_points.cache_clear()
        cold = cl.condition_residuals(*self.ARGS, cfg)
        assert cl._block_points.cache_info().misses == 2
        warm = cl.condition_residuals(*self.ARGS, cfg)
        assert cl._block_points.cache_info().hits == 2
        cl._block_points.cache_clear()
        again = cl.condition_residuals(*self.ARGS, cfg)
        assert [v.hex() for v in warm.values()] == [v.hex() for v in cold.values()]
        assert [v.hex() for v in again.values()] == [v.hex() for v in cold.values()]

    @pytest.mark.parametrize("factor", ["j1", "j2"])
    @pytest.mark.parametrize("field", ["u", "wedge", "matrix", "basis"])
    def test_cached_arrays_are_read_only(self, factor, field):
        p = self.cached(np.random.default_rng(31).standard_normal((4, 6)), "+-")
        a = getattr(getattr(p, factor), field)
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0

    def test_same_rows_on_each_component_give_its_structures(self):
        rows = np.random.default_rng(32).standard_normal((5, 6))
        for component in cl.COMPONENTS:
            p = self.cached(rows, component)
            want = cl._points(rows, component)
            assert (p.j1.sign, p.j2.sign) == cl.component_signs(component)
            for got, ref in ((p.j1, want.j1), (p.j2, want.j2)):
                assert np.array_equal(got.wedge, ref.wedge), component
                assert np.array_equal(got.basis, ref.basis), component

    def test_partial_block_hits_the_cache(self):
        # the reduced sample is one partial block of 16 points
        cfg = cl.SamplingConfig(seed=11)
        cl._block_points.cache_clear()
        first = cl.condition_residuals(*self.ARGS, cfg, sample=cl.REDUCED_SAMPLE)
        assert cl._block_points.cache_info()[:2] == (0, 1)
        assert cl.condition_residuals(*self.ARGS, cfg, sample=cl.REDUCED_SAMPLE) == first
        assert cl._block_points.cache_info()[:2] == (1, 1)

    def test_cache_stays_bounded_over_many_seeds(self):
        assert cl._block_points.cache_info().maxsize == cl.GEOMETRY_CACHE_BLOCKS >= 6
        for seed in range(3 * cl.GEOMETRY_CACHE_BLOCKS):
            cl.condition_residuals(*self.ARGS, cl.SamplingConfig(seed=seed), ("δΩ",),
                                   cl.REDUCED_SAMPLE)
            assert cl._block_points.cache_info().currsize <= cl.GEOMETRY_CACHE_BLOCKS
        assert cl._block_points.cache_info().currsize == cl.GEOMETRY_CACHE_BLOCKS

    def test_selftest_does_not_reach_the_cache(self):
        # its rows never recur, so its structures are built directly
        cl.condition_residuals(*self.ARGS, FAST)
        before = cl._block_points.cache_info()
        assert before.currsize > 0
        assert selftest.all_ok(selftest.run_selftest(seed=1))
        assert cl._block_points.cache_info() == before


class TestMemory:
    def test_default_config_peak_allocation_stays_under_1_mib(self):
        # geometry blocks of 32 points, contracted in chunks of 16, bound the
        # traced peak at 943 KiB (numpy 2.4): the block's draw and T, the
        # chunk's argument outer product, and the 46 KiB of the two blocks'
        # structures that the geometry cache keeps.  One 64-point geometry block
        # peaks at 1260 KiB, one stack of all 64 points contracted at once at 2.6 MiB.
        rmat = cur.model("constant_curvature", s=12.0)
        args = (rmat, "+-", (0.25, 1.0), 3, cl.SamplingConfig())
        cl.condition_residuals(*args)  # first-call allocations are not the budget's
        cl._block_points.cache_clear()  # but building the structures is
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cl.condition_residuals(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 2 ** 20


class TestTheoremSuite:
    def test_unknown_id(self):
        with pytest.raises(cl.ClassifierError, match="unknown theorem id"):
            cl.verify_theorem("bogus", FAST)

    @pytest.mark.parametrize("tid", ["4.2a", "4.2b", "4.6b", "4.8b"])
    def test_sample_of_statements_at_another_seed(self, tid):
        result = cl.verify_theorem(tid, FAST)
        assert result.passed, [c for c in result.checks if not c["ok"]]

    def test_suite_makes_its_calls_on_the_full_and_the_reduced_sample(self, monkeypatch):
        # the suite's cost and its geometry-cache hits rest on this mix of calls;
        # every violation, 4.2a's four included, is sampled on the reduced sample
        orig = cl.condition_residuals
        mix = {}

        def counted(rmat, component, t, n, cfg, conditions=cl.CONDITIONS, sample=cl.SAMPLE):
            key = (sample, len(conditions))
            mix[key] = mix.get(key, 0) + 1
            return orig(rmat, component, t, n, cfg, conditions, sample)

        monkeypatch.setattr(cl, "condition_residuals", counted)
        assert all(r.passed for r in cl.verify_all(DEFAULT))
        assert mix == {(cl.SAMPLE, 1): 22, (cl.SAMPLE, 2): 22, (cl.REDUCED_SAMPLE, 1): 44}

    def test_pointwise_counterexamples_are_the_closed_forms(self):
        # the suite reads each counterexample as one entry or trace of the frame
        # tensor; the closed forms at the configuration it names pin those indices.
        # 4.2a: V = (0, s1+), X = e1, Y = e3; 4.6a: delta Omega of V = (0, s3+)
        p = cl._counterexample_point()
        const12 = cur.model("constant_curvature", s=12.0)
        x, y = (gtangent(horizontal=np.eye(4)[i]) for i in (0, 2))
        p42, p46 = tn.Params(1.0, 1.0, 1), tn.Params(3.0 / 12.0, 1.0, 3)
        want = {
            "4.2a": cov_deriv_omega(p, const12, p42, *(
                coefficients(p, p42, g) for g in (gtangent(v2=fd.S_BASIS_ENDOS[0]), x, y))),
            "4.6a": tn.codiff_omega(p, const12, p46,
                                    coefficients(p, p46, gtangent(v2=fd.S_BASIS_ENDOS[2]))),
        }
        for tid, value in want.items():
            (got,) = [c["value"] for c in cl.verify_theorem(tid, FAST).checks
                      if c["name"] == "pointwise-counterexample"]
            assert abs(value) > 1.0, tid
            assert abs(got - abs(value)) <= 1e-14 * abs(value), (tid, got, value)

    def test_result_serialization(self):
        result = cl.verify_theorem("4.9a", FAST)
        doc = result.to_json_dict()
        assert doc["id"] == "4.9a"
        assert doc["passed"] is True
        assert all({"name", "value", "bound", "require", "ok"} <= set(c) for c in doc["checks"])

    def test_report_lists_failures(self):
        good = cl.TheoremResult("4.2a", "s", True, [])
        bad = cl.TheoremResult("4.2b", "s", False, [])
        report = cl.verify_report_json([good, bad])
        assert '"failed_ids": [\n      "4.2b"\n    ]' in report
