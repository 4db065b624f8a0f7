import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twistorgh import classifier as cl, curvature as cur
from twistorgh import fibre, fourdim as fd, tensors as tn

from random_fourdim import drawn_strict_operator, random_ocs, random_vertical_endo

RNG = np.random.default_rng(404)

E = np.eye(4)


class TestDecompose:
    def test_identity_operator(self):
        blocks = cur.decompose(np.eye(6))
        assert blocks.s == pytest.approx(12.0)
        assert_allclose(blocks.B, np.zeros((3, 3)))
        assert_allclose(blocks.Wplus, np.zeros((3, 3)), atol=1e-15)
        assert_allclose(blocks.Wminus, np.zeros((3, 3)), atol=1e-15)
        assert blocks.strict

    def test_zero_operator(self):
        blocks = cur.decompose(np.zeros((6, 6)))
        assert blocks.s == 0.0
        assert blocks.strict

    def test_half_projector_is_non_strict(self):
        blocks = cur.decompose(np.diag([1.0, 1, 1, 0, 0, 0]))
        assert blocks.s == pytest.approx(6.0)
        assert_allclose(blocks.Wplus, 0.5 * np.eye(3), atol=1e-15)
        assert_allclose(blocks.Wminus, -0.5 * np.eye(3), atol=1e-15)
        assert not blocks.strict

    def test_asymmetric_rejected(self):
        mat = np.zeros((6, 6))
        mat[0, 1] = 1.0
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.decompose(mat)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        mat = cur.random_strict_operator(rng)
        blocks = cur.decompose(mat)
        assert blocks.strict
        assert_allclose(cur.compose(blocks.s, blocks.B, blocks.Wplus, blocks.Wminus), mat,
                        atol=1e-13)

    def test_compose_then_decompose(self):
        s = 7.5
        b = RNG.standard_normal((3, 3))
        wp = cur.random_traceless_symmetric(RNG)
        wm = cur.random_traceless_symmetric(RNG)
        blocks = cur.decompose(cur.compose(s, b, wp, wm))
        assert blocks.s == pytest.approx(s, abs=1e-12)
        assert_allclose(blocks.B, b, atol=1e-13)
        assert_allclose(blocks.Wplus, wp, atol=1e-13)
        assert_allclose(blocks.Wminus, wm, atol=1e-13)

    @pytest.mark.parametrize("blocks", [{"Wplus": np.diag([np.nan, 0.0, 0.0])},
                                        {"B": np.full((3, 3), np.nan)},
                                        {"Wminus": np.diag([np.inf, 0.0, 0.0])},
                                        {"s": np.nan}])
    def test_compose_rejects_non_finite_blocks(self, blocks):
        with pytest.raises(cur.CurvatureError, match="finite"):
            cur.compose(**blocks)

    def test_compose_rejects_asymmetric_weyl(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(cur.CurvatureError, match="symmetric"):
            cur.compose(0.0, Wplus=bad)

    def test_symmetry_tolerance_is_relative_to_the_entries(self):
        # entries near 1e5 whose only asymmetry is roundoff (about 1e-11,
        # a few ulp) pass; a relative asymmetry of 1e-6 is still rejected
        mat = 1e5 * cur.random_strict_operator(np.random.default_rng(12))
        scale = float(np.max(np.abs(mat)))
        assert 1e4 < scale < 1e6
        roundoff = mat.copy()
        roundoff[0, 4] += 1.5e-11
        assert np.max(np.abs(roundoff - roundoff.T)) > cur.SYM_TOL
        assert cur.decompose(roundoff).strict
        wp = 1e5 * cur.random_traceless_symmetric(np.random.default_rng(13))
        wp_roundoff = wp.copy()
        wp_roundoff[1, 2] += 1.5e-11
        cur.compose(0.0, Wplus=wp_roundoff)

        skewed = mat.copy()
        skewed[0, 4] += 1e-6 * scale
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.check_operator(skewed)
        wp_skewed = wp.copy()
        wp_skewed[1, 2] += 1e-6 * float(np.max(np.abs(wp)))
        with pytest.raises(cur.CurvatureError, match="symmetric"):
            cur.compose(0.0, Wplus=wp_skewed)

    def test_stacked_operators_are_bounded_one_by_one(self):
        # the same absolute asymmetry is roundoff in a large operator and a
        # defect in a small one, also when both sit in one stack
        big = 1e5 * cur.random_strict_operator(np.random.default_rng(14))
        small = cur.random_strict_operator(np.random.default_rng(15))
        assert np.abs(small).max() < 10.0
        big[0, 4] += 1.5e-11
        small[0, 4] += 1.5e-11
        stack = cur.check_operator(np.stack([big, big]), stacked=True)
        assert stack.shape == (2, 6, 6)
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.check_operator(np.stack([big, small]), stacked=True)

    def test_a_stack_needs_the_stacked_flag(self):
        stack = np.stack([cur.random_strict_operator(np.random.default_rng(16))] * 2)
        with pytest.raises(cur.CurvatureError, match="must be 6x6"):
            cur.check_operator(stack)
        # so classify refuses a stack of operators
        with pytest.raises(cur.CurvatureError, match="must be 6x6"):
            cl.classify(stack, "++", (1.0, 1.0), 1, cl.SamplingConfig(num_points=1))

    def test_strict_trace_relation(self):
        mat = cur.random_strict_operator(RNG)
        blocks = cur.decompose(mat)
        assert float(np.trace(mat)) == pytest.approx(blocks.s / 2.0, abs=1e-10)


class TestModels:
    def test_flat(self):
        assert_allclose(cur.model("flat"), np.zeros((6, 6)))

    def test_constant_curvature(self):
        assert_allclose(cur.model("constant_curvature", s=12.0), np.eye(6))

    def test_kaehler_witness(self):
        assert_allclose(cur.model("kaehler_witness", s=12.0), np.diag([1.0, 1, 1, 0, 0, 0]))
        assert not cur.decompose(cur.model("kaehler_witness", s=12.0)).strict

    def test_witnesses_share_the_annihilating_form(self):
        assert_allclose(cur.model("w1_witness", s=6.0),
                        cur.model("kaehler_witness", s=6.0))

    def test_w2_witness_requires_negative_scalar(self):
        cur.model("w2_witness", s=-3.0)
        with pytest.raises(cur.CurvatureError, match="s < 0"):
            cur.model("w2_witness", s=3.0)

    @pytest.mark.parametrize("name", [n for n, (params, _) in cur.MODEL_SPECS.items()
                                      if "s" in params])
    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    def test_non_finite_scalar_is_rejected(self, name, s):
        params = {p: np.zeros((3, 3)) for p in cur.MODEL_SPECS[name][0]} | {"s": s}
        with pytest.raises(cur.CurvatureError, match="finite s"):
            cur.model(name, **params)

    def test_einstein_models_reject_b(self):
        wm = cur.random_traceless_symmetric(RNG)
        with pytest.raises(cur.CurvatureError, match="B = 0"):
            cur.model("einstein_asd", s=1.0, Wminus=wm, B=np.eye(3))

    def test_unknown_model(self):
        with pytest.raises(cur.CurvatureError, match="unknown model"):
            cur.model("bogus")

    def test_missing_parameter(self):
        with pytest.raises(cur.CurvatureError, match="requires"):
            cur.model("constant_curvature")

    def test_strictness_of_strict_models(self):
        wm = cur.random_traceless_symmetric(RNG)
        for mat in (cur.model("asd_ricci_flat", Wminus=wm),
                    cur.model("einstein_asd", s=4.0, Wminus=wm),
                    cur.model("asd_general", s=4.0, B=RNG.standard_normal((3, 3)), Wminus=wm)):
            assert cur.decompose(mat).strict

    def test_block_mapping_structure(self):
        # B exchanges the halves; W blocks act inside them
        mat = cur.compose(0.0, B=RNG.standard_normal((3, 3)))
        plus = np.concatenate([RNG.standard_normal(3), np.zeros(3)])
        image = mat @ plus
        assert np.max(np.abs(image[:3])) < 1e-14
        mat = cur.compose(0.0, Wminus=cur.random_traceless_symmetric(RNG))
        assert np.max(np.abs(mat @ plus)) < 1e-14


class TestCurvatureEndo:
    def test_zero(self):
        assert_allclose(cur.curvature_endo(np.zeros((6, 6)), E[0], E[1]), np.zeros((4, 4)))

    def test_identity_gives_wedge_endomorphism(self):
        r = cur.curvature_endo(np.eye(6), E[0], E[1])
        assert_allclose(r @ E[0], E[1], atol=1e-14)
        assert_allclose(r @ E[1], -E[0], atol=1e-14)
        assert_allclose(r @ E[2], np.zeros(4), atol=1e-14)

    def test_antisymmetric_in_arguments(self):
        mat = cur.random_strict_operator(RNG)
        x, y = RNG.standard_normal((2, 4))
        assert_allclose(cur.curvature_endo(mat, x, y), -cur.curvature_endo(mat, y, x),
                        atol=1e-13)


class TestCoupling:
    def _setup(self):
        p = tn.ProductTwistorPoint(random_ocs(1, RNG), random_ocs(-1, RNG))
        v = tn.VerticalVector(random_vertical_endo(p.j1, RNG),
                              random_vertical_endo(p.j2, RNG))
        return p, v

    def test_zero_curvature(self):
        p, v = self._setup()
        x, y = RNG.standard_normal((2, 4))
        assert cur.coupling(np.zeros((6, 6)), x, y, p, v, tn.Params(1.0, 1.0, 1)) == 0.0

    def test_linear_in_t1(self):
        p, v = self._setup()
        v = tn.VerticalVector(v.v1, np.zeros((4, 4)))
        x, y = RNG.standard_normal((2, 4))
        mat = cur.random_strict_operator(RNG)
        one = cur.coupling(mat, x, y, p, v, tn.Params(1.0, 1.0, 1))
        two = cur.coupling(mat, x, y, p, v, tn.Params(2.0, 1.0, 1))
        assert two == pytest.approx(2.0 * one, abs=1e-12)

    def test_matches_commutator_action(self):
        # oracle: H_t(R(X, Y)J, V) with R(X, Y) acting by commutators
        for _ in range(20):
            p, v = self._setup()
            x, y = RNG.standard_normal((2, 4))
            mat = cur.random_strict_operator(RNG)
            params = tn.Params(0.7, 1.9, 1)
            r = cur.curvature_endo(mat, x, y)
            j1, j2 = p.j1.matrix, p.j2.matrix
            oracle = (params.t1 * fibre.inner_G(r @ j1 - j1 @ r, v.v1)
                      + params.t2 * fibre.inner_G(r @ j2 - j2 @ r, v.v2))
            assert cur.coupling(mat, x, y, p, v, params) == pytest.approx(oracle, abs=1e-10)

    def test_verticality_enforced(self):
        p, _ = self._setup()
        bad = tn.VerticalVector(p.j1.matrix.copy(), np.zeros((4, 4)))
        with pytest.raises(tn.TangencyError, match="anticommute"):
            cur.coupling(np.eye(6), E[0], E[1], p, bad, tn.Params(1.0, 1.0, 1))


def test_commutator_lemma_thousand_trials():
    # G([r, a], b) = <R([a, b]^), x ^ y> for r the endomorphism of R(x ^ y)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        m = rng.standard_normal((6, 6))
        rmat = 0.5 * (m + m.T)
        qa = rng.standard_normal((4, 4))
        qb = rng.standard_normal((4, 4))
        a, b = 0.5 * (qa - qa.T), 0.5 * (qb - qb.T)
        x, y = rng.standard_normal((2, 4))
        r = cur.curvature_endo(rmat, x, y)
        lhs = fibre.inner_G(r @ a - a @ r, b)
        rhs = float((rmat @ fd.two_vector_of_endo(a @ b - b @ a)) @ fd.wedge_of_pair(x, y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + np.linalg.norm(x) * np.linalg.norm(y)))
    assert worst < 1e-10


class TestSerialization:
    def test_both_forms_emitted(self):
        doc = cur.to_json_dict(cur.model("kaehler_witness", s=12.0))
        assert set(doc) == {"matrix", "blocks"}
        assert doc["blocks"]["strict"] is False
        assert doc["blocks"]["s"] == pytest.approx(6.0)

    def test_matrix_round_trip(self):
        mat = cur.random_strict_operator(RNG)
        doc = cur.to_json_dict(mat)
        assert_allclose(cur.from_json_dict({"matrix": doc["matrix"]}), mat)

    def test_blocks_round_trip(self):
        mat = cur.random_strict_operator(RNG)
        doc = json.loads(json.dumps(cur.to_json_dict(mat)))
        del doc["matrix"]
        assert_allclose(cur.from_json_dict(doc), mat, atol=1e-12)

    def test_some_form_required(self):
        with pytest.raises(cur.SchemaError, match="'matrix' or 'blocks'"):
            cur.from_json_dict({})

    def test_inconsistent_forms_rejected(self):
        doc = cur.to_json_dict(cur.model("constant_curvature", s=12.0))
        doc["blocks"]["s"] = 0.0
        with pytest.raises(cur.SchemaError, match="different operators"):
            cur.from_json_dict(doc)

    def test_both_forms_accepted_when_consistent(self, tmp_path):
        mat = cur.random_strict_operator(RNG)
        assert_allclose(cur.from_json_dict(cur.to_json_dict(mat)), mat)
        # at scale 1e8 the blocks differ from the matrix by roundoff (about 3e-8)
        big = cur.random_strict_operator(np.random.default_rng(0), scale=1e8)
        path = tmp_path / "big.json"
        cur.write_json(big, path)
        np.testing.assert_array_equal(cur.read_json(path), big)
        # a relative mismatch of 1e-6 is still rejected
        doc = cur.to_json_dict(big)
        doc["blocks"]["B"][0][0] += 1e-6 * np.abs(big).max()
        with pytest.raises(cur.SchemaError, match="different operators"):
            cur.from_json_dict(doc)

    def test_nan_blocks_are_not_consistent_with_a_matrix(self):
        doc = {"matrix": np.eye(6).tolist(), "blocks": {"s": np.nan}}
        with pytest.raises(cur.SchemaError):
            cur.from_json_dict(doc)

    def test_field_errors_are_named(self):
        with pytest.raises(cur.SchemaError, match="'matrix'"):
            cur.from_json_dict({"matrix": [[1, 2], [3, 4]]})
        with pytest.raises(cur.SchemaError, match="blocks.s"):
            cur.from_json_dict({"blocks": {"s": "twelve"}})
        with pytest.raises(cur.SchemaError, match="unknown field"):
            cur.from_json_dict({"blocks": {"Q": [[0] * 3] * 3}})

    def test_asymmetric_matrix_is_a_validation_error(self):
        mat = np.eye(6).tolist()
        mat[0][1] = 0.5
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.from_json_dict({"matrix": mat})

    def test_file_round_trip(self, tmp_path):
        mat = cur.model("einstein_asd", s=5.0, Wminus=cur.random_traceless_symmetric(RNG))
        path = tmp_path / "op.json"
        cur.write_json(mat, path)
        assert_allclose(cur.read_json(path), mat)


class TestHelpers:
    def test_swap_halves_is_an_involution(self):
        mat = cur.random_strict_operator(RNG)
        assert_allclose(cur.swap_halves(cur.swap_halves(mat)), mat)

    def test_swap_halves_exchanges_weyl_blocks(self):
        wp = cur.random_traceless_symmetric(RNG)
        wm = cur.random_traceless_symmetric(RNG)
        swapped = cur.decompose(cur.swap_halves(cur.compose(3.0, None, wp, wm)))
        assert_allclose(swapped.Wplus, wm, atol=1e-13)
        assert_allclose(swapped.Wminus, wp, atol=1e-13)

    def test_perturbed_moves_only_the_requested_block(self):
        mat = cur.model("kaehler_witness", s=12.0)
        pert = cur.perturbed(mat, "B", np.random.default_rng(1))
        blocks = cur.decompose(pert)
        assert np.linalg.norm(blocks.B) > 0.01
        assert_allclose(blocks.Wplus, cur.decompose(mat).Wplus, atol=1e-12)
        with pytest.raises(cur.CurvatureError, match="unknown perturbation"):
            cur.perturbed(mat, "bogus", np.random.default_rng(1))

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e8])
    def test_random_strict_operator_is_the_blockwise_draw(self, scale):
        for seed in range(20):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = cur.random_strict_operator(rng, scale), drawn_strict_operator(replay, scale)
            assert got.tobytes() == want.tobytes(), seed
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_stacked_rows_give_the_per_row_operators(self):
        rows = np.random.default_rng(5).standard_normal((3, 4, cur.STRICT_NORMALS))
        ops = cur.strict_operators(rows, 2.5)
        assert ops.shape == (3, 4, 6, 6)
        for i in np.ndindex(3, 4):
            assert ops[i].tobytes() == cur.strict_operators(rows[i], 2.5).tobytes()
        cur.check_operator(ops, stacked=True)
        with pytest.raises(cur.CurvatureError, match="28 normals"):
            cur.strict_operators(rows[..., :27])
