import tracemalloc

import numpy as np
import pytest

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import fibre, fourdim as fd, tensors as tn

RNG = np.random.default_rng(606)

FAST = cl.SamplingConfig(seed=3, num_points=16, num_arg_triples=8)
DEFAULT = cl.SamplingConfig(seed=7)


def class_parts(name):
    """The parts W1, W2, W3 a class name lists, as digits; OTHER lies above every class."""
    return set("0123") if name == "OTHER" else set(name[1::2])


class TestConfigAndNames:
    def test_config_validation(self):
        with pytest.raises(cl.ClassifierError):
            cl.SamplingConfig(seed=0, num_points=0)
        with pytest.raises(cl.ClassifierError):
            cl.SamplingConfig(seed=0, tol=-1.0)
        for tol in (np.inf, np.nan):
            with pytest.raises(cl.ClassifierError, match="finite"):
                cl.SamplingConfig(seed=0, tol=tol)

    def test_unknown_condition(self):
        with pytest.raises(cl.ClassifierError, match="unknown condition"):
            cl.residual("bogus", cur.model("flat"), "++", (1.0, 1.0), 1, FAST)

    def test_unknown_component(self):
        with pytest.raises(cl.ClassifierError, match="component"):
            cl.residual("N", cur.model("flat"), "+", (1.0, 1.0), 1, FAST)


class TestResiduals:
    def test_flat_codifferential_is_exactly_zero(self):
        assert cl.residual("δΩ", cur.model("flat"), "++", (1.0, 1.0), 1, FAST) == 0.0

    def test_flat_nijenhuis_small_on_first_structures(self):
        assert cl.residual("N", cur.model("flat"), "++", (1.0, 1.0), 1, FAST) < 1e-13

    def test_flat_covariant_derivative_is_large(self):
        for component in ("++", "+-"):
            for n in (1, 2, 3, 4):
                assert cl.residual("DΩ", cur.model("flat"), component,
                                   (1.0, 1.0), n, FAST) > 0.1

    def test_partial_run_matches_full_run(self):
        # the default config fills blocks of 16 points, whose conditions share
        # the J-twists and argument outer products in a full run only
        rmat = cur.model("constant_curvature", s=12.0)
        for cfg in (FAST, cl.SamplingConfig()):
            for component in cl.COMPONENTS:
                full = cl.condition_residuals(rmat, component, (0.25, 1.0), 3, cfg)
                for cond in cl.CONDITIONS:
                    assert cl.residual(cond, rmat, component, (0.25, 1.0), 3, cfg) == \
                        full[cond], (cfg, component, cond)
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

    def test_impossible_tolerance_detects_only_exact_zeros(self):
        # for the zero operator the codifferential is exactly zero, so the
        # first class whose conditions all pass is W1W2W3; the detector flags
        # it as impossible for n = 1 rather than silencing it
        cfg = cl.SamplingConfig(seed=3, num_points=16, num_arg_triples=8, tol=1e-30)
        report = cl.classify(cur.model("flat"), "++", (1.0, 1.0), 1, cfg)
        assert report.detected == "W1W2W3"
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
                       if all(report.residuals[k] <= FAST.tol
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
        a = cl.residual("DΩ", rmat, "++", (1.0, 1.0), 1, FAST)
        b = cl.residual("DΩ", rmat, "++", (1.0, 1.0), 1,
                        cl.SamplingConfig(seed=4, num_points=16, num_arg_triples=8))
        assert a != b

    def test_csv_round(self):
        report = cl.classify(cur.model("flat"), "++", (1.0, 1.0), 1, FAST, source="model:flat")
        text = report.to_csv()
        header, row = text.strip().split("\n")
        assert header.split(",")[0] == "detected"
        assert row.split(",")[0] == "W3"
        assert len(header.split(",")) == len(row.split(","))


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
            j1 = fd.OrientedComplexStructure4(phi @ p.j1.matrix @ phi.T, -p.j1.sign)
            j2 = fd.OrientedComplexStructure4(phi @ p.j2.matrix @ phi.T, -p.j2.sign)
            p2 = tn.ProductTwistorPoint(j1, j2)
            frame = tn.frame_at_point(p, params)
            for _ in range(10):
                abc = [tn.frame_combination(frame, rng.standard_normal(8)) for _ in range(3)]
                abc2 = [tn.gtangent(phi @ g.horizontal,
                                    phi @ g.vertical.v1 @ phi.T,
                                    phi @ g.vertical.v2 @ phi.T) for g in abc]
                assert tn.cov_deriv_omega(p2, rmat2, params, *abc2) == pytest.approx(
                    tn.cov_deriv_omega(p, rmat, params, *abc), abs=1e-10)
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


def _sampled_sup(rmat, component, t, n, cfg, value, norm_slots):
    """Sup of |value(T, A, B, C, JA, JB, JC)| / (1 + product of the slot norms)
    over the classifier's seeded sample."""
    params = tn.Params(t[0], t[1], n)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(cfg.num_points):
        p = cl._points(rng.standard_normal(6), component)
        coeffs = rng.standard_normal((cfg.num_arg_triples, 3, 8))
        T, M = tn.frame_tensor(p, rmat, params)
        args = (*coeffs.transpose(1, 0, 2), *(coeffs @ M.T).transpose(1, 0, 2))
        norms = np.linalg.norm(coeffs, axis=2)
        nrm = 1.0 + np.prod(norms[:, norm_slots], axis=1)
        worst = max(worst, float(np.max(np.abs(value(T, *args)) / nrm)))
    return worst


class TestLiteralReadings:
    def test_w13_literal_sign_fails_on_the_witness(self):
        rmat = cur.model("constant_curvature", s=12.0)
        good = cl.residual("W1W3-cond", rmat, "+-", (0.25, 1.0), 3, FAST)

        def wrong_sign(T, a, b, c, ja, jb, jc):
            return _contract(T, a, a, c) + _contract(T, ja, ja, c)

        bad = _sampled_sup(rmat, "+-", (0.25, 1.0), 3, FAST, wrong_sign, [0, 0, 2])
        assert good <= 1e-9
        assert bad > 1e-3

    def test_w23_literal_cyclic_fails_on_the_witness(self):
        rmat = cur.model("constant_curvature", s=-12.0)
        good = cl.residual("W2W3-cond", rmat, "+-", (0.5, 1.0), 3, FAST)

        def literal(T, a, b, c, ja, jb, jc):
            return (_contract(T, a, a, c) - _contract(T, ja, ja, c)
                    + _contract(T, b, b, a) - _contract(T, jb, jb, a)
                    + _contract(T, c, c, b) - _contract(T, jc, jc, b))

        bad = _sampled_sup(rmat, "+-", (0.5, 1.0), 3, FAST, literal, [0, 1, 2])
        assert good <= 1e-9
        assert bad > 1e-3

    @pytest.mark.parametrize("num_points", [1, 17, 64])
    @pytest.mark.parametrize("component", cl.COMPONENTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sampler_reproduces_the_classifier(self, n, component, num_points):
        # the classifier evaluates points in stacked blocks; a per-point loop
        # over the same stream must give the same sups for every condition
        rmat = cur.random_strict_operator(np.random.default_rng([17, n]))
        t = (0.3, 1.2)
        cfg = cl.SamplingConfig(seed=3, num_points=num_points, num_arg_triples=8)
        params = tn.Params(t[0], t[1], n)
        norm_slots = {"W1-cond": [0, 0, 2], "W1W3-cond": [0, 0, 2], "δΩ": [0]}
        rng = np.random.default_rng(cfg.seed)
        want = dict.fromkeys(cl.CONDITIONS, 0.0)
        for _ in range(num_points):
            p = cl._points(rng.standard_normal(6), component)
            coeffs = rng.standard_normal((cfg.num_arg_triples, 3, 8))
            T, M = tn.frame_tensor(p, rmat, params)
            assert (T.shape, M.shape) == ((8, 8, 8), (8, 8))
            norms = np.linalg.norm(coeffs, axis=2)
            for c, vals in cl.condition_values(T, M, coeffs).items():
                nrm = 1.0 + np.prod(norms[:, norm_slots.get(c, [0, 1, 2])], axis=1)
                want[c] = max(want[c], float(np.max(np.abs(vals) / nrm)))
        got = cl.condition_residuals(rmat, component, t, n, cfg)
        assert got == pytest.approx(want, rel=1e-12)

        def w13(T, a, b, c, ja, jb, jc):
            return _contract(T, a, a, c) - _contract(T, ja, ja, c)

        assert _sampled_sup(rmat, component, t, n, cfg, w13, [0, 0, 2]) == pytest.approx(
            got["W1W3-cond"], rel=1e-12)


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
            frame = tn.frame_at_point(p, params)
            for k in range(len(coeffs)):
                a, b, c = (tn.frame_combination(frame, x) for x in coeffs[k])
                ja, jb, jc = (tn.acs(p, g, params) for g in (a, b, c))

                def d(x, y, z):
                    return tn.cov_deriv_omega(p, rmat, params, x, y, z)

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


class TestMemory:
    def test_default_config_peak_allocation_stays_under_1_mib(self):
        # blocks of points bound the traced peak (0.81 MiB, most of it the
        # block's argument outer product); one stack of all 64 points takes 2.6 MiB
        rmat = cur.model("constant_curvature", s=12.0)
        args = (rmat, "+-", (0.25, 1.0), 3, cl.SamplingConfig())
        cl.condition_residuals(*args)  # first-call allocations are not the budget's
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
    def test_sample_of_statements_at_reduced_sampling(self, tid):
        result = cl.verify_theorem(tid, FAST)
        assert result.passed, [c for c in result.checks if not c["ok"]]

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
