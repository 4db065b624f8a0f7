import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twistorgh import classifier as cl, curvature as cur
from twistorgh import fibre, fourdim as fd

from random_fourdim import (assert_tangent, drawn_strict_operator, half, random_ocs,
                            vertical_pair)

RNG = np.random.default_rng(404)
#: the models that take a scalar part s
SCALAR_MODELS = [n for n, (params, _, _) in cur.MODEL_SPECS.items() if "s" in params]

E = np.eye(4)


def malformed(size):
    """Values given for a size x size matrix that are no numeric matrix, by name:
    numpy reads the booleans and strings as numbers, and the others raise its
    ValueError, TypeError or OverflowError."""
    zeros = [[0] * size for _ in range(size)]
    return {"ragged": [[1, 2], [3]], "object": {"a": 1},
            "integer-beyond-float": [[10 ** 400] + zeros[0][1:]] + zeros[1:],
            "booleans": [[True] + [False] * (size - 1)] + [[False] * size] * (size - 1),
            "strings": [["1"] + zeros[0][1:]] + zeros[1:],
            "boolean-array": np.eye(size, dtype=bool)}


#: the documented Python entry points of a matrix: (size, call)
MATRIX_ENTRIES = {
    "compose-B": (3, lambda m: cur.compose(B=m)),
    "compose-Wplus": (3, lambda m: cur.compose(Wplus=m)),
    "compose-Wminus": (3, lambda m: cur.compose(Wminus=m)),
    "model": (3, lambda m: cur.model("einstein_asd", s=1.0, Wminus=m)),
    "decompose": (6, cur.decompose),
    "classify": (6, lambda m: cl.classify(m, "+-", (1, 1), 3, cl.SamplingConfig())),
}


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

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e7, 1e8])
    def test_strict_operators_read_strict_at_every_scale(self, scale):
        # the Weyl traces carry roundoff of the entries, so their bound is
        # relative to max(1, max|R|) like the symmetry bound
        rng = np.random.default_rng(int(np.log10(scale)))
        for _ in range(50):
            mat = scale * cur.random_strict_operator(rng)
            assert cur.decompose(mat).strict
            assert cur.to_json_dict(mat)["blocks"]["strict"] is True

    @pytest.mark.parametrize("scale", [1e-2, 1.0, 1e4, 1e6, 1e8])
    def test_relative_weyl_trace_reads_non_strict_at_every_scale(self, scale):
        rng = np.random.default_rng(17)
        for sign in (1, -1):
            blocks = cur.decompose(scale * cur.random_strict_operator(rng))
            r = float(np.abs(cur.compose(blocks.s, blocks.B, blocks.Wplus, blocks.Wminus)).max())
            shift = (1e-6 * r / 3.0) * np.eye(3)   # adds 1e-6 max|R| to one trace
            wplus = blocks.Wplus + (shift if sign == 1 else 0.0)
            wminus = blocks.Wminus + (shift if sign == -1 else 0.0)
            mat = cur.compose(blocks.s, blocks.B, wplus, wminus)
            assert not cur.decompose(mat).strict

    @pytest.mark.parametrize("blocks", [{"Wplus": np.diag([np.nan, 0.0, 0.0])},
                                        {"B": np.full((3, 3), np.nan)},
                                        {"Wminus": np.diag([np.inf, 0.0, 0.0])},
                                        {"s": np.nan}])
    def test_compose_rejects_non_finite_blocks(self, blocks):
        with pytest.raises(cur.CurvatureError, match="finite"):
            cur.compose(**blocks)

    # float() would read True as 1 and "12" as 12, and raise OverflowError at 10**400
    @pytest.mark.parametrize("s, message", [(True, "must be a number"), ("12", "must be a number"),
                                            (10 ** 400, "integer beyond the float range")],
                             ids=["True", "12", "10**400"])
    def test_compose_rejects_a_scalar_that_is_no_number(self, s, message):
        with pytest.raises(cur.CurvatureError, match=message) as info:
            cur.compose(s)
        assert not isinstance(info.value, cur.SchemaError)
        assert_allclose(cur.compose(np.int64(12)), cur.compose(12.0), rtol=0, atol=0)

    @pytest.mark.parametrize("kind", list(malformed(3)))
    @pytest.mark.parametrize("entry", MATRIX_ENTRIES)
    def test_malformed_matrices_are_schema_errors(self, entry, kind):
        # one rule reads a matrix from Python and from a document
        size, call = MATRIX_ENTRIES[entry]
        with pytest.raises(cur.SchemaError):
            call(malformed(size)[kind])

    def test_tuples_and_integer_arrays_read_as_the_list(self):
        wm = [[1, 2, 0], [2, 3, 0], [0, 0, 0]]
        want = cur.compose(1.0, Wminus=wm)
        for same in (tuple(map(tuple, wm)), np.array(wm), np.array(wm, dtype=np.uint8)):
            assert cur.compose(1.0, Wminus=same).tobytes() == want.tobytes()
        mat = np.diag([3, 1, 1, 2, 2, 2]).tolist()
        want = cur.check_operator(mat)
        for same in (tuple(map(tuple, mat)), np.array(mat)):
            assert cur.check_operator(same).tobytes() == want.tobytes()

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
        # defect in a small one, so each operator of a stack meets its own bound
        big = 1e5 * cur.random_strict_operator(np.random.default_rng(14))
        small = cur.random_strict_operator(np.random.default_rng(15))
        assert np.abs(small).max() < 10.0
        big[0, 4] += 1.5e-11
        small[0, 4] += 1.5e-11
        stack = np.stack([big, small])
        assert cur.check_operator(stack[0]).shape == (6, 6)
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.check_operator(stack[1])

    def test_classify_refuses_a_stack(self):
        stack = np.stack([cur.random_strict_operator(np.random.default_rng(16))] * 2)
        with pytest.raises(cur.CurvatureError, match="must be 6x6"):
            cl.classify(stack, "++", (1.0, 1.0), 1, cl.SamplingConfig(seed=0))

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

    @pytest.mark.parametrize("name", SCALAR_MODELS)
    # float() would read True as 1 and "12" as 12, and raise OverflowError at 10**400
    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan, True, "12", 10 ** 400],
                             ids=["inf", "-inf", "nan", "True", "12", "10**400"])
    def test_non_finite_scalar_is_rejected(self, name, s):
        params = {p: np.zeros((3, 3)) for p in cur.MODEL_SPECS[name][0]} | {"s": s}
        # a bad value, not a bad parameter set: the CLI's exit 3, not 2
        with pytest.raises(cur.CurvatureError, match="s must be (finite|a number)") as info:
            cur.model(name, **params)
        assert not isinstance(info.value, cur.SchemaError)

    def test_einstein_models_reject_b(self):
        wm = cur.random_traceless_symmetric(RNG)
        with pytest.raises(cur.CurvatureError, match="B = 0"):
            cur.model("einstein_asd", s=1.0, Wminus=wm, B=np.eye(3))

    def test_unknown_model(self):
        with pytest.raises(cur.SchemaError, match="unknown model"):
            cur.model("bogus")

    def test_missing_parameter(self):
        with pytest.raises(cur.SchemaError, match="requires s, got none"):
            cur.model("constant_curvature")

    def test_parameter_set_is_a_schema_error(self):
        with pytest.raises(cur.SchemaError, match="requires no parameters, got s"):
            cur.model("flat", s=12.0)
        with pytest.raises(cur.SchemaError, match="requires s, B, Wminus, got B, s$"):
            cur.model("asd_general", s=12.0, B=np.eye(3))

    def test_builders_receive_the_scalar_as_a_float(self):
        # an int s and a numpy scalar build the bits of the float
        for name in SCALAR_MODELS:
            params = {p: np.zeros((3, 3)) for p in cur.MODEL_SPECS[name][0] if p != "s"}
            s = -12 if name == "w2_witness" else 12
            want = cur.model(name, **params, s=float(s))
            for other in (s, np.int64(s), np.float32(s)):
                np.testing.assert_array_equal(cur.model(name, **params, s=other), want)

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

    def test_linear_in_the_operator(self):
        m1, m2 = cur.random_strict_operator(RNG), cur.random_strict_operator(RNG)
        x, y = RNG.standard_normal((2, 4))
        assert_allclose(cur.curvature_endo(2.0 * m1 - 0.5 * m2, x, y),
                        2.0 * cur.curvature_endo(m1, x, y) - 0.5 * cur.curvature_endo(m2, x, y),
                        atol=1e-12)

    def test_scalar_part_is_a_multiple_of_the_wedge(self):
        x, y = RNG.standard_normal((2, 4))
        assert_allclose(cur.curvature_endo(cur.compose(6.0), x, y),
                        0.5 * fd.endo_of_two_vector(fd.wedge_of_pair(x, y)), atol=1e-13)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_commutator_with_a_structure_is_vertical(self, sign):
        # [r, J] is tangent at J and lies in the span of the vertical basis,
        # the direction the curvature-commutator oracle pairs with
        for _ in range(20):
            j = random_ocs(sign, RNG)
            x, y = RNG.standard_normal((2, 4))
            r = cur.curvature_endo(cur.random_strict_operator(RNG), x, y)
            c = assert_tangent(j.matrix, r @ j.matrix - j.matrix @ r)
            u2, u3 = vertical_pair(j)
            in_span = fibre.inner_G(c, u2) * u2 + fibre.inner_G(c, u3) * u3
            assert np.max(np.abs(c - in_span)) < 1e-10 * (1.0 + np.max(np.abs(c)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_weyl_half_commutes_with_opposite_structures(self, sign):
        # R built from the Weyl block of one half takes values in that half, so
        # its endomorphism commutes with every structure of the other half
        w = cur.random_traceless_symmetric(RNG)
        mat = cur.compose(0.0, Wplus=w) if sign == 1 else cur.compose(0.0, Wminus=w)
        for _ in range(20):
            x, y = RNG.standard_normal((2, 4))
            r = cur.curvature_endo(mat, x, y)
            assert np.max(np.abs(half(fd.two_vector_of_endo(r), -sign))) < 1e-12
            j = random_ocs(-sign, RNG).matrix
            assert np.max(np.abs(r @ j - j @ r)) < 1e-12


class TestSerialization:
    def test_both_forms_emitted(self):
        doc = cur.to_json_dict(cur.model("kaehler_witness", s=12.0))
        assert set(doc) == {"matrix", "blocks"}
        assert doc["blocks"]["strict"] is False
        assert doc["blocks"]["s"] == pytest.approx(6.0)
        # the block form is written in the order of its field table
        assert list(doc["blocks"]) == [*cur.BLOCK_FIELDS, "strict"]

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
        big = 1e8 * cur.random_strict_operator(np.random.default_rng(0))
        path = tmp_path / "big.json"
        cur.write_json(big, path)
        np.testing.assert_array_equal(cur.read_json(path), big)
        # a relative mismatch of 1e-6 is still rejected
        doc = cur.to_json_dict(big)
        doc["blocks"]["B"][0][0] += 1e-6 * np.abs(big).max()
        with pytest.raises(cur.SchemaError, match="different operators"):
            cur.from_json_dict(doc)

    @pytest.mark.parametrize("k", [-6, 0, 3, 6])
    def test_asymmetry_within_the_bound_reads_back(self, k):
        # a Weyl block's asymmetry is bounded relative to the operator, as the
        # matrix's is, so every operator check_operator accepts is read back
        rng = np.random.default_rng([7, k + 6])
        for _ in range(20):
            mat = 10.0 ** k * cur.random_strict_operator(rng)
            i, j = rng.choice(3, 2, replace=False) + 3 * rng.integers(2)
            mat[i, j] += cur.SYM_TOL / 2 * max(1.0, float(np.abs(mat).max()))
            doc = json.loads(json.dumps(cur.to_json_dict(cur.check_operator(mat))))
            assert cur.from_json_dict(doc).tobytes() == mat.tobytes()

    def test_nan_blocks_are_not_consistent_with_a_matrix(self):
        doc = {"matrix": np.eye(6).tolist(), "blocks": {"s": np.nan}}
        with pytest.raises(cur.SchemaError):
            cur.from_json_dict(doc)

    @pytest.mark.parametrize("name", ["constant_curvature", "kaehler_witness"])
    def test_written_strict_flag_reads_back(self, name):
        mat = cur.model(name, s=12.0)
        doc = json.loads(json.dumps(cur.to_json_dict(mat)))
        assert doc["blocks"]["strict"] is cur.decompose(mat).strict
        np.testing.assert_array_equal(cur.from_json_dict(doc), mat)
        del doc["matrix"]
        assert_allclose(cur.from_json_dict(doc), mat, atol=1e-15)
        doc["blocks"]["strict"] = not doc["blocks"]["strict"]
        with pytest.raises(cur.SchemaError, match="blocks.strict"):
            cur.from_json_dict(doc)

    @pytest.mark.parametrize("flag", ["maybe", 1, None, [True]])
    def test_non_boolean_strict_flag_rejected(self, flag):
        with pytest.raises(cur.SchemaError, match="must be true or false"):
            cur.from_json_dict({"blocks": {"s": 12.0, "strict": flag}})
        doc = cur.to_json_dict(cur.model("flat"))
        doc["blocks"]["strict"] = flag
        with pytest.raises(cur.SchemaError, match="must be true or false"):
            cur.from_json_dict(doc)

    def test_invalid_blocks_raise_the_validation_error(self):
        # like a matrix, non-finite or asymmetric blocks are invalid operators,
        # not malformed documents; an s beyond the float range stays a schema error
        for blocks in ({"s": np.inf}, {"Wminus": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}):
            with pytest.raises(cur.CurvatureError) as info:
                cur.from_json_dict({"blocks": blocks})
            assert not isinstance(info.value, cur.SchemaError)
        with pytest.raises(cur.SchemaError, match="'blocks.s' holds an integer beyond the float"):
            cur.from_json_dict({"blocks": {"s": 10 ** 400}})

    def test_field_errors_are_named(self):
        with pytest.raises(cur.SchemaError, match="'matrix'"):
            cur.from_json_dict({"matrix": [[1, 2], [3, 4]]})
        with pytest.raises(cur.SchemaError, match="blocks.s"):
            cur.from_json_dict({"blocks": {"s": "twelve"}})
        with pytest.raises(cur.SchemaError, match="unknown field"):
            cur.from_json_dict({"blocks": {"Q": [[0] * 3] * 3}})
        # a misspelt top-level field is refused, not dropped beside valid blocks
        with pytest.raises(cur.SchemaError, match=r"no other field, got \['blocks', 'matirx'\]"):
            cur.from_json_dict({"blocks": {"s": 12.0}, "matirx": [[0] * 6] * 6})

    @pytest.mark.parametrize("doc", [
        {"blocks": {"s": True}},
        {"blocks": {"s": "12"}},
        {"matrix": [["1", "0", "0", "0", "0", "0"]] + np.eye(6)[1:].tolist()},
        {"matrix": [[True, 0, 0, 0, 0, 0]] + np.eye(6)[1:].tolist()},
        {"matrix": [[False, 1.0, 0, 0, 0, 0]] + np.eye(6)[1:].tolist()},
        {"blocks": {"B": [["0"] * 3] * 3}},
        {"blocks": {"Wplus": [[True, 0, 0], [0, False, 0], [0, 0, 0]]}},
        {"blocks": {"Wminus": [[0, 0, 0], [0, 0, 0], [0, 0, "0.5"]]}},
    ])
    def test_booleans_and_strings_are_not_numbers(self, doc):
        # numpy reads true as 1, false as 0 and "1" as 1.0; a document must say 1
        with pytest.raises(cur.SchemaError, match="must hold numbers|must be a number"):
            cur.from_json_dict(doc)

    def test_integers_beyond_the_float_range_are_schema_errors(self):
        huge = 10 ** 400
        with pytest.raises(cur.SchemaError, match="'matrix'"):
            cur.from_json_dict({"matrix": [[huge] + [0] * 5] + np.eye(6)[1:].tolist()})
        with pytest.raises(cur.SchemaError, match="'blocks.s'"):
            cur.from_json_dict({"blocks": {"s": huge}})

    def test_integer_entries_are_numbers(self):
        mat = np.eye(6, dtype=int).tolist()
        np.testing.assert_array_equal(cur.from_json_dict({"matrix": mat}), np.eye(6))
        assert_allclose(cur.from_json_dict({"blocks": {"s": 12}}), np.eye(6))

    def test_asymmetric_matrix_is_a_validation_error(self):
        mat = np.eye(6).tolist()
        mat[0][1] = 0.5
        with pytest.raises(cur.CurvatureError, match="not symmetric"):
            cur.from_json_dict({"matrix": mat})

    def test_undecodable_files_are_schema_errors(self, tmp_path):
        # the decoder's RecursionError and its ValueError past the digit limit
        path = tmp_path / "op.json"
        for text in ("[" * 100_000, '{"matrix": [[1' + "0" * 5000 + "]]}", "{not json"):
            path.write_text(text)
            with pytest.raises(cur.SchemaError):
                cur.read_json(path)

    def test_file_round_trip(self, tmp_path):
        mat = cur.model("einstein_asd", s=5.0, Wminus=cur.random_traceless_symmetric(RNG))
        path = tmp_path / "op.json"
        cur.write_json(mat, path)
        assert_allclose(cur.read_json(path), mat)
        # one write of the indented document and a newline
        text = json.dumps(cur.to_json_dict(mat), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == text


class TestHelpers:
    def test_swap_halves_is_an_involution(self):
        mat = cur.random_strict_operator(RNG)
        assert_allclose(cur.swap_halves(cur.swap_halves(mat)), mat)

    def test_swap_halves_exchanges_weyl_blocks(self):
        b = RNG.standard_normal((3, 3))
        wp = cur.random_traceless_symmetric(RNG)
        wm = cur.random_traceless_symmetric(RNG)
        swapped = cur.decompose(cur.swap_halves(cur.compose(3.0, b, wp, wm)))
        assert_allclose(swapped.Wplus, wm, atol=1e-13)
        assert_allclose(swapped.Wminus, wp, atol=1e-13)
        assert swapped.B.tobytes() == b.T.tobytes()

    def test_perturbed_moves_only_the_requested_block(self):
        mat = cur.model("kaehler_witness", s=12.0)
        pert = cur.perturbed(mat, "B", np.random.default_rng(1))
        blocks = cur.decompose(pert)
        assert np.linalg.norm(blocks.B) > 0.01
        assert_allclose(blocks.Wplus, cur.decompose(mat).Wplus, atol=1e-12)

    def test_random_strict_operator_is_the_blockwise_draw(self):
        for seed in range(20):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = cur.random_strict_operator(rng), drawn_strict_operator(replay)
            assert got.tobytes() == want.tobytes(), seed
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_stacked_rows_give_the_per_row_operators(self):
        rows = np.random.default_rng(5).standard_normal((3, 4, cur.STRICT_NORMALS))
        ops = cur.strict_operators(rows)
        assert ops.shape == (3, 4, 6, 6)
        for i in np.ndindex(3, 4):
            assert ops[i].tobytes() == cur.strict_operators(rows[i]).tobytes()
            cur.check_operator(ops[i])
