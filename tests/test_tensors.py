import numpy as np
import pytest
from numpy.testing import assert_allclose

from twistorgh import classifier as cl
from twistorgh import curvature as cur
from twistorgh import fibre, fourdim as fd, tensors as tn

from random_fourdim import negate_sign_table, random_ocs, random_vertical_endo, vertical_pair
from reference import (acs, coefficients, cov_deriv_omega, gtangent, metric_Ht, one_by_one,
                       restriction_one_by_one)

RNG = np.random.default_rng(505)
E = np.eye(4)


def point(component="++", rng=RNG):
    s1 = 1 if component[0] == "+" else -1
    s2 = 1 if component[1] == "+" else -1
    return tn.ProductTwistorPoint(random_ocs(s1, rng), random_ocs(s2, rng))


def random_coeffs(k=3, rng=RNG):
    """k rows of frame coefficients, the arguments the closed forms take."""
    return [rng.standard_normal(8) for _ in range(k)]


def random_args(p, params, k=3, rng=RNG):
    """k tangents, for the references of H_t and Jn."""
    return [tn.frame_vectors(p, params, x) for x in random_coeffs(k, rng)]


def read(p, params, *tangents):
    """The frame coefficients of tangents built by hand."""
    return [coefficients(p, params, g) for g in tangents]


def canonical_point():
    # J1 the structure of sqrt2 s1+, J2 of sqrt2 s2+
    return tn.ProductTwistorPoint(fd.OrientedComplexStructure4([1, 0, 0], 1),
                                  fd.OrientedComplexStructure4([0, 1, 0], 1))


def omega(p, a, b, params):
    """The fundamental form Omega(A, B) = H_t(Jn A, B) of the references."""
    return metric_Ht(p, acs(p, a, params), b, params)


def production(cond, p, rmat, params, *args):
    """Condition ``cond`` by the classifier's route on the frame coefficients
    ``args``."""
    x = np.array(args)[None]
    return float(cl.condition_values(*tn.frame_tensor(p, rmat, params), x, (cond,))[cond][0])


class TestParams:
    def test_validation(self):
        tn.Params(1.0, 2.0, 3)
        with pytest.raises(ValueError, match="positive"):
            tn.Params(-1.0, 1.0, 1)
        with pytest.raises(ValueError, match="n must be"):
            tn.Params(1.0, 1.0, 5)

    @pytest.mark.parametrize("t", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
    def test_non_finite_weights_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            tn.Params(t[0], t[1], 1)


class TestMetric:
    def test_horizontal_lift_is_isometric(self):
        p = point()
        params = tn.Params(3.0, 0.5, 1)
        a = gtangent(horizontal=E[0])
        assert metric_Ht(p, a, a, params) == pytest.approx(1.0)

    def test_vertical_scaling(self):
        p = point()
        u2, _ = vertical_pair(p.j1)
        a = gtangent(v1=u2)  # G-unit vertical direction
        assert metric_Ht(p, a, a, tn.Params(3.0, 1.0, 1)) == pytest.approx(3.0)

    def test_no_cross_term(self):
        p = point()
        u2, _ = vertical_pair(p.j2)
        a = gtangent(horizontal=RNG.standard_normal(4))
        b = gtangent(v2=u2)
        assert metric_Ht(p, a, b, tn.Params(1.3, 0.7, 2)) == 0.0

    def test_positive_definite(self):
        p = point("+-")
        params = tn.Params(0.4, 2.2, 4)
        for a in random_args(p, params):
            assert metric_Ht(p, a, a, params) > 0.0

    def test_large_vertical_vector_is_accepted(self):
        # a vector of |V| ~ 1e7 read in the frame and evaluated scales linearly
        rng = np.random.default_rng(17)
        p = point("+-", rng)
        v1 = random_vertical_endo(p.j1, rng)
        v2 = random_vertical_endo(p.j2, rng)
        x, y = (gtangent(horizontal=h) for h in rng.standard_normal((2, 4)))
        params = tn.Params(0.9, 1.4, 3)
        rmat = cur.model("constant_curvature", s=12.0)
        unit = cov_deriv_omega(p, rmat, params, *read(p, params, gtangent(v1=v1, v2=v2), x, y))
        big = cov_deriv_omega(p, rmat, params,
                              *read(p, params, gtangent(v1=1e7 * v1, v2=1e7 * v2), x, y))
        assert big == pytest.approx(1e7 * unit, rel=1e-9)


class TestAlmostComplexStructures:
    def test_horizontal_action(self):
        p = point()
        x = RNG.standard_normal(4)
        for n in (1, 2, 3, 4):
            out = acs(p, gtangent(horizontal=x), tn.Params(1.0, 1.0, n))
            assert_allclose(out.horizontal, p.j1.matrix @ x)

    def test_vertical_sign_table_n3(self):
        p = point()
        v1 = random_vertical_endo(p.j1, RNG)
        v2 = random_vertical_endo(p.j2, RNG)
        out = acs(p, gtangent(v1=v1, v2=v2), tn.Params(1.0, 1.0, 3))
        assert_allclose(out.v1, -(p.j1.matrix @ v1))
        assert_allclose(out.v2, p.j2.matrix @ v2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_is_minus_identity(self, n):
        p = point("+-")
        params = tn.Params(0.9, 1.4, n)
        for a in random_args(p, params):
            twice = acs(p, acs(p, a, params), params)
            assert_allclose(twice.horizontal, -a.horizontal, atol=1e-12)
            assert_allclose(twice.v1, -a.v1, atol=1e-12)
            assert_allclose(twice.v2, -a.v2, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_metric_compatibility(self, n):
        p = point("-+")
        params = tn.Params(1.7, 0.6, n)
        a, b, _ = random_args(p, params)
        assert metric_Ht(p, acs(p, a, params), acs(p, b, params), params) == \
            pytest.approx(metric_Ht(p, a, b, params), abs=1e-12)


class TestFundamentalForm:
    def test_horizontal_value(self):
        p = point()
        params = tn.Params(1.0, 1.0, 1)
        a = gtangent(horizontal=E[0])
        b = gtangent(horizontal=p.j1.matrix @ E[0])
        assert omega(p, a, b, params) == pytest.approx(1.0)

    def test_antisymmetry(self):
        p = point("+-")
        params = tn.Params(0.8, 1.1, 2)
        a, b, _ = random_args(p, params)
        assert omega(p, a, b, params) == pytest.approx(-omega(p, b, a, params), abs=1e-12)
        assert omega(p, a, a, params) == pytest.approx(0.0, abs=1e-12)

    def test_vertical_pair_n1(self):
        p = point()
        v1 = random_vertical_endo(p.j1, RNG)
        w1 = random_vertical_endo(p.j1, RNG)
        params = tn.Params(1.0, 1.0, 1)
        val = omega(p, gtangent(v1=v1), gtangent(v1=w1), params)
        assert val == pytest.approx(fibre.inner_G(p.j1.matrix @ v1, w1), abs=1e-12)


class TestCovariantDerivative:
    def test_all_horizontal_vanishes(self):
        p = point("+-")
        params = tn.Params(0.7, 1.2, 3)
        rmat = cur.random_strict_operator(RNG)
        args = [gtangent(horizontal=RNG.standard_normal(4)) for _ in range(3)]
        assert cov_deriv_omega(p, rmat, params, *read(p, params, *args)) == 0.0

    def test_flat_vertical_horizontal_value(self):
        # V1 the endomorphism of s2+ at J1 = structure of s1+: <V1 e1, e3> = 1/sqrt2
        p = canonical_point()
        v = gtangent(v1=fd.endo_of_two_vector(fd.embed_half([0, 1, 0], 1)))
        b = gtangent(horizontal=E[0])
        c = gtangent(horizontal=E[2])
        for n in (1, 2, 3, 4):
            params = tn.Params(1.0, 1.0, n)
            val = cov_deriv_omega(p, np.zeros((6, 6)), params, *read(p, params, v, b, c))
            assert val == pytest.approx(1.0 / np.sqrt(2.0))

    def test_structure_index_difference(self):
        # same mixed arguments, n = 1 vs n = 2: difference is -2 t2 <R V2^, Z ^ X>
        p = point("+-")
        rmat = np.eye(6)
        t1, t2 = 0.9, 1.7
        v2 = random_vertical_endo(p.j2, RNG)
        v = gtangent(v2=v2)
        z = gtangent(horizontal=RNG.standard_normal(4))
        x = gtangent(horizontal=RNG.standard_normal(4))
        d1, d2 = (cov_deriv_omega(p, rmat, params, *read(p, params, z, x, v))
                  for params in (tn.Params(t1, t2, 1), tn.Params(t1, t2, 2)))
        expected = -2.0 * t2 * float((rmat @ fd.two_vector_of_endo(v2))
                                     @ fd.wedge_of_pair(z.horizontal, x.horizontal))
        assert d1 - d2 == pytest.approx(expected, abs=1e-12)

    def test_antisymmetric_in_last_two_slots(self):
        p = point()
        params = tn.Params(1.3, 0.4, 4)
        rmat = cur.random_strict_operator(RNG)
        a, b, c = random_coeffs()
        assert cov_deriv_omega(p, rmat, params, a, b, c) == pytest.approx(
            -cov_deriv_omega(p, rmat, params, a, c, b), abs=1e-11)

    def test_purely_vertical_patterns_vanish(self):
        p = point("+-")
        params = tn.Params(0.6, 0.9, 2)
        rmat = cur.random_strict_operator(RNG)
        w = gtangent(v1=random_vertical_endo(p.j1, RNG))
        u = gtangent(v2=random_vertical_endo(p.j2, RNG))
        x = gtangent(horizontal=RNG.standard_normal(4))
        w, u, x = read(p, params, w, u, x)
        assert cov_deriv_omega(p, rmat, params, w, x, u) == 0.0
        assert cov_deriv_omega(p, rmat, params, x, u, w) == 0.0
        assert cov_deriv_omega(p, rmat, params, w, u, w) == 0.0


#: the entries of T that can be nonzero: T[v, h, h], T[h, h, v] and T[h, v, h]
NONZERO_BLOCKS = np.zeros((8, 8, 8), dtype=bool)
NONZERO_BLOCKS[4:, :4, :4] = NONZERO_BLOCKS[:4, :4, 4:] = NONZERO_BLOCKS[:4, 4:, :4] = True


class TestFrameTensor:
    """The block-built T and closed-form M: exact zeros outside the blocks, and
    equal to the general evaluators entry by entry."""

    @staticmethod
    def block_rows(rng):
        # u1 = +e1 and u1 = -e1 take both pole branches of the frame rotation,
        # as do u2 = -e1 and u2 = +e1; the last row is a generic point
        rows = rng.standard_normal((3, 6))
        rows[0] = [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]
        rows[1] = [-1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        return rows

    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_public_evaluators(self, component, n):
        rng = np.random.default_rng(700 + n)
        rows = self.block_rows(rng)
        params = tn.Params(0.7, 1.6, n)
        rmat = cur.random_strict_operator(rng)
        T, M = tn.frame_tensor(cl._points(rows, component), rmat, params)
        assert T.shape == (3, 8, 8, 8) and M.shape == (3, 8, 8)
        assert np.all(T[:, ~NONZERO_BLOCKS] == 0.0)
        assert np.array_equal(T[:, :4, 4:, :4], -np.swapaxes(T[:, :4, :4, 4:], -1, -2))
        bound = 1e-13 * np.abs(T).max()
        for i, row in enumerate(rows):
            p = cl._points(row, component)
            # the frame along one argument axis each: the evaluators broadcast
            # them to the full 8x8x8 grid
            e = np.eye(8)
            ref = cov_deriv_omega(p, rmat, params, e[:, None, None], e[:, None], e)
            eb, ec = (tn.frame_vectors(p, params, x) for x in (e[:, None], e))
            assert ref.shape == (8, 8, 8)
            assert np.abs(T[i] - ref).max() <= bound
            ref_m = metric_Ht(p, eb, acs(p, ec, params), params)
            assert ref_m.shape == (8, 8)
            assert np.abs(M[i] - ref_m).max() <= 1e-13

    @staticmethod
    def pole_rows(rng):
        """Sphere rows (u1, u2) whose factors each meet the exact poles +-e1 and
        points 1e-6, 1e-9 and 1e-12 rad from each pole, plus two random rows."""
        near = [[pole * np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)]
                for pole in (1.0, -1.0) for theta, phi in ((1e-6, 0.4), (1e-9, 2.1), (1e-12, -1.3))]
        u = np.vstack([[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], near, rng.standard_normal((2, 3))])
        return np.hstack([u, np.roll(u, 3, axis=0)])

    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_operators_and_weights_match_the_derivative_kernel(self, component, n):
        # one point per row, each with its own operator and weights, against
        # the _dcov route (cov_deriv_omega on the frame vectors) row by row
        rng = np.random.default_rng(720 + n)
        rows = self.pole_rows(rng)
        rmats = cur.strict_operators(rng.standard_normal((len(rows), cur.STRICT_NORMALS)))
        t1, t2 = rng.uniform(0.2, 3.0, (2, len(rows)))
        with np.errstate(all="raise"):
            T, M = tn.frame_tensor(cl._points(rows, component), rmats, tn.Params(t1, t2, n))
        assert T.shape == (len(rows), 8, 8, 8) and M.shape == (len(rows), 8, 8)
        assert np.all(T[:, ~NONZERO_BLOCKS] == 0.0)
        e = np.eye(8)
        for i, row in enumerate(rows):
            p = cl._points(row, component)
            params = tn.Params(t1[i], t2[i], n)
            ref = cov_deriv_omega(p, rmats[i], params, e[:, None, None], e[:, None], e)
            eb, ec = (tn.frame_vectors(p, params, x) for x in (e[:, None], e))
            assert np.abs(T[i] - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.abs(M[i] - metric_Ht(p, eb, acs(p, ec, params), params)).max() <= 1e-13

    @staticmethod
    def kaehler_rows():
        """Rows 1e-6, 1e-9 and 1e-12 rad from either pole of the first sphere, two
        per offset; the second of each pair has its second sphere equally near
        that pole."""
        rng = np.random.default_rng(901)
        rows = rng.standard_normal((12, 6))
        for i, (pole, theta) in enumerate((pole, theta) for pole in (1.0, -1.0)
                                          for theta in (1e-6, 1e-9, 1e-12)):
            rows[2 * i:2 * i + 2, :3] = [pole * np.cos(theta), np.sin(theta), np.sin(theta)]
            rows[2 * i + 1, 3:] = [pole * np.cos(theta), 0.0, -np.sin(theta)]
        return rows

    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    def test_frame_vectors_are_tangent(self, component):
        # what makes frame coefficients valid arguments of the closed forms: any
        # coefficients give vertical parts skew and anticommuting with their
        # structure, to 1e-10 max(1, max|V|) per vector, at the poles too
        rng = np.random.default_rng(930)
        rows = np.vstack([self.pole_rows(rng), self.kaehler_rows()])
        t1, t2 = rng.uniform(0.2, 3.0, (2, len(rows)))
        p = cl._points(rows, component)
        # coefficients over 16 decades, stacked in front of the points' axis
        coeffs = 10.0 ** rng.uniform(-8.0, 8.0, (6, len(rows), 1)) * rng.standard_normal(
            (6, len(rows), 8))
        g = tn.frame_vectors(p, tn.Params(t1, t2, 1), coeffs)
        for j, v in ((p.j1.matrix, g.v1), (p.j2.matrix, g.v2)):
            assert v.shape == (6, len(rows), 4, 4)
            bound = 1e-10 * np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))
            assert np.all(np.abs(v + np.swapaxes(v, -1, -2)).max(axis=(-2, -1)) <= bound)
            assert np.all(np.abs(j @ v + v @ j).max(axis=(-2, -1)) <= bound)

    def test_kaehler_witness_vanishes_near_the_poles(self):
        # the witness is Kaehler for (+-, n = 1, t1 = 6/s) at every point; near
        # a pole of the first sphere the frame stays vertical to roundoff
        # (test_frame_vectors_are_tangent), so T stays at roundoff too
        p = cl._points(self.kaehler_rows(), "+-")
        params = tn.Params(0.5, 1.0, 1)
        T, _ = tn.frame_tensor(p, cur.model("kaehler_witness", s=12.0), params)
        assert np.abs(T).max() <= 1e-14

    def test_corrupted_sign_table_moves_T(self, monkeypatch):
        rng = np.random.default_rng(900)
        p = cl._points(self.block_rows(rng), "+-")
        rmat = cur.random_strict_operator(rng)
        params = tn.Params(0.8, 1.2, 3)
        intact, _ = tn.frame_tensor(p, rmat, params)
        negate_sign_table(monkeypatch)
        corrupted, _ = tn.frame_tensor(p, rmat, params)
        assert np.abs(corrupted - intact).max() > 1e-3


def row(g: tn.GTangent, i: int) -> tn.GTangent:
    return tn.GTangent(g.horizontal[i], g.v1[i], g.v2[i])


class TestStackedEvaluators:
    """A stack of configurations, one per point of a stacked point, evaluates
    to the unstacked calls row by row."""

    @pytest.mark.parametrize("index", [slice(3, 10), slice(14, 21), 5])
    def test_indexing_a_stacked_point_slices_its_arrays(self, index):
        # the structures are not rebuilt, so u is not normalised again and
        # every array is that of the rows it slices, bit for bit
        p = cl._points(np.random.default_rng(810).standard_normal((16, 6)), "+-")
        q = p[index]
        for got, whole in ((q.j1, p.j1), (q.j2, p.j2)):
            assert got.sign == whole.sign
            for name in ("u", "wedge", "matrix", "basis"):
                want = getattr(whole, name)[index]
                assert getattr(got, name).shape == want.shape, name
                assert getattr(got, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_equal_unstacked_calls(self, component, n):
        rng = np.random.default_rng(800 + n)
        rows = rng.standard_normal((16, 6))
        # both pole branches of the frame rotation on each factor
        rows[0] = [1.0, 0.0, 0.0, -1.0, 0.0, 0.0]
        rows[1] = [-1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        t = rng.uniform(0.3, 2.0, (16, 2))
        rmat = np.stack([cur.random_strict_operator(rng) for _ in range(16)])
        coeffs = rng.standard_normal((16, 3, 8))
        p = cl._points(rows, component)
        params = tn.Params(t[:, 0], t[:, 1], n)
        args = [coeffs[:, s] for s in range(3)]
        k = 1 if n in (1, 2) else 2

        def evaluators(p, rmat, params, args):
            # the restriction and single-fibre forms take the first-factor parts
            first = [x[..., :6] for x in args]
            sa, sb, sc = (tn.SingleTangent(g.horizontal, g.v1)
                          for g in (tn.frame_vectors(p, params, x) for x in args))
            out = dict(zip("TM", tn.frame_tensor(p, rmat, params)))
            out.update(tn.restriction_residuals(p, rmat, params, *first))
            out.update({
                "cov_deriv_omega": cov_deriv_omega(p, rmat, params, *args),
                "ext_deriv_omega": tn.ext_deriv_omega(p, rmat, params, *args),
                "codiff_omega": tn.codiff_omega(p, rmat, params, args[0]),
                "nijenhuis_closed_form": tn.nijenhuis_closed_form(p, rmat, params, *args),
                "single_metric": tn.single_metric(p.j1, params.t1, sa, sb),
                "single_cov_deriv": tn.single_cov_deriv(p.j1, rmat, params.t1, k, sa, sb, sc),
                "single_ext_deriv": tn.single_ext_deriv(p.j1, rmat, params.t1, k, sa, sb, sc),
                "single_codiff": tn.single_codiff(p.j1, rmat, params.t1, sa),
            })
            return out

        stacked = evaluators(p, rmat, params, args)
        for i in range(16):
            unstacked = evaluators(cl._points(rows[i], component), rmat[i],
                                   tn.Params(t[i, 0], t[i, 1], n),
                                   [x[i] for x in args])
            for name, value in unstacked.items():
                assert np.shape(stacked[name]) == (16,) + np.shape(value), name
                assert np.all(np.abs(stacked[name][i] - value)
                              <= 1e-13 * np.maximum(1.0, np.abs(value))), (name, i)


class TestStackedArguments:
    """The closed forms view their three arguments as one stack; the values
    are those of viewing each argument on its own, and each trial of the stack
    is evaluated apart from the others."""

    #: arguments of one shape, so the stack broadcasts none of them
    EQUAL = ["stacked", "block"]
    #: arguments the stack broadcasts to a common shape
    BROADCAST = ["unstacked-0", "unstacked-1", "unstacked-2", "frame"]
    THREE_SLOT = [cov_deriv_omega, tn.ext_deriv_omega, tn.nijenhuis_closed_form]

    @staticmethod
    def layout(name, n, rng):
        """(point, operator, weights, coefficient arguments) of one layout."""
        if name == "block":  # 16 trials, each with its own point, operator and weights
            t = rng.uniform(0.3, 2.0, (16, 2))
            rmat = cur.strict_operators(rng.standard_normal((16, cur.STRICT_NORMALS)))
            p = cl._points(rng.standard_normal((16, 6)), ("++", "+-")[(n - 1) % 2])
            params = tn.Params(t[:, 0], t[:, 1], n)
            coeffs = rng.standard_normal((3, 16, 8))
        else:
            p = point(("++", "+-", "-+", "--")[n - 1], rng)
            rmat = cur.random_strict_operator(rng)
            params = tn.Params(0.7, 1.6, n)
            if name == "stacked":  # three arguments stacked along (5,) at one point
                coeffs = rng.standard_normal((3, 5, 8))
            elif name == "frame":  # the frame along one argument axis each
                e = np.eye(8)
                coeffs = [e[:, None, None], e[:, None], e]
            else:  # one unstacked argument, the other two stacked along (5,)
                coeffs = [rng.standard_normal((5, 8)) for _ in range(3)]
                coeffs[int(name[-1])] = rng.standard_normal(8)
        return p, rmat, params, list(coeffs)

    @pytest.mark.parametrize("layout", EQUAL + BROADCAST)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_values_are_those_of_the_one_by_one_route(self, layout, n):
        # bit for bit when no argument is broadcast.  Broadcasting one changes
        # the shape of its rows in the stacked 6x6 and 6x16 products (a matrix
        # of rows instead of one row), and BLAS may round those differently,
        # so broadcast layouts agree to a few units in the last place
        p, rmat, params, args = self.layout(layout, n, np.random.default_rng(940 + n))
        first = [x[..., :6] for x in args]
        pairs = [(cov_deriv_omega(p, rmat, params, *args),
                  one_by_one(tn._dcov, p, rmat, params, *args)),
                 (tn.ext_deriv_omega(p, rmat, params, *args),
                  one_by_one(tn._dext, p, rmat, params, *args))]
        got = tn.restriction_residuals(p, rmat, params, *first)
        want = restriction_one_by_one(p, rmat, params, *first)
        # the codiff and metric residuals, like the derivative residuals, carry
        # the leading axes of all three arguments, which are viewed as one stack
        for name in ("codiff", "metric"):
            want[name] = np.broadcast_to(want[name], np.shape(want["cov_deriv"]))
        assert list(got) == list(want)
        pairs += [(got[name], want[name]) for name in want]
        scale = max(1.0, *(np.abs(w).max() for _, w in pairs[:2]))
        for i, (g, w) in enumerate(pairs):
            assert np.shape(g) == np.shape(w), i
            if layout in self.EQUAL:
                assert np.array_equal(g, w), i
            else:
                assert np.abs(g - w).max() <= 64 * np.finfo(float).eps * scale, i

    @pytest.mark.parametrize("evaluator", THREE_SLOT, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_one_trial_changed_in_any_slot_moves_that_trial_alone(self, evaluator, slot):
        rng = np.random.default_rng(950)
        p, rmat, params, args = self.layout("block", 3, rng)
        clean = evaluator(p, rmat, params, *args)
        changed = list(args)
        changed[slot] = args[slot].copy()
        changed[slot][5] += rng.standard_normal(8)
        got = evaluator(p, rmat, params, *changed)
        others = np.arange(16) != 5
        assert np.array_equal(got[others], clean[others])
        assert abs(got[5] - clean[5]) > 1e-6 * max(1.0, abs(clean[5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("evaluator", THREE_SLOT, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_coefficient_stays_in_its_trial(self, slot, evaluator, value):
        # nothing checks the arguments, so a non-finite coefficient must show in
        # its own trial's value and leave the other trials of the stack intact
        p, rmat, params, args = self.layout("block", 3, np.random.default_rng(960))
        clean = evaluator(p, rmat, params, *args)
        bad = list(args)
        bad[slot] = args[slot].copy()
        bad[slot][5, 0] = value
        with np.errstate(invalid="ignore", over="ignore"):
            got = evaluator(p, rmat, params, *bad)
        others = np.arange(16) != 5
        assert np.array_equal(got[others], clean[others])
        assert not np.isfinite(got[5])

    @pytest.mark.parametrize("stacked", ["point", "all", "operator"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_unstacked_arguments_at_a_stacked_point_give_one_value_per_point(self, k, stacked):
        # the arguments are broadcast to the leading axes of the point, the
        # operators and the weights before they are stacked, so the argument
        # stack never pairs with them: k points sharing one operator and
        # weights, k points each with its own, or one point with k of each
        rng = np.random.default_rng(970 + k)
        rows = rng.standard_normal((k, 6))
        if stacked == "operator":
            rows[:] = rows[0]
        n = 3
        if stacked == "point":
            rmat, params = cur.random_strict_operator(rng), tn.Params(0.7, 1.6, n)
            at = [(rmat, params)] * k
        else:
            t = rng.uniform(0.3, 2.0, (k, 2))
            rmat = cur.strict_operators(rng.standard_normal((k, cur.STRICT_NORMALS)))
            params = tn.Params(t[:, 0], t[:, 1], n)
            at = [(rmat[i], tn.Params(t[i, 0], t[i, 1], n)) for i in range(k)]
        args = random_coeffs(3, rng)
        first = [x[:6] for x in args]

        def evaluators(p, rmat, params):
            out = dict(tn.restriction_residuals(p, rmat, params, *first))
            out.update({
                "cov_deriv_omega": cov_deriv_omega(p, rmat, params, *args),
                "ext_deriv_omega": tn.ext_deriv_omega(p, rmat, params, *args),
                "codiff_omega": tn.codiff_omega(p, rmat, params, args[0]),
                "nijenhuis_closed_form": tn.nijenhuis_closed_form(p, rmat, params, *args),
            })
            return out

        p = cl._points(rows[0] if stacked == "operator" else rows, "+-")
        got = evaluators(p, rmat, params)
        singles = [evaluators(cl._points(rows[i], "+-"), *at[i]) for i in range(k)]
        scale = max(1.0, *(abs(v) for s in singles for v in s.values()))
        for name in got:
            want = np.array([s[name] for s in singles])
            assert np.shape(got[name]) == (k,), name
            assert np.abs(got[name] - want).max() <= 64 * np.finfo(float).eps * scale, name


class TestExteriorDerivative:
    def test_all_horizontal_vanishes(self):
        p = point()
        params = tn.Params(1.0, 1.0, 1)
        rmat = cur.random_strict_operator(RNG)
        args = [gtangent(horizontal=RNG.standard_normal(4)) for _ in range(3)]
        assert tn.ext_deriv_omega(p, rmat, params, *read(p, params, *args)) == 0.0

    def test_flat_value(self):
        p = canonical_point()
        v = gtangent(v1=fd.endo_of_two_vector(fd.embed_half([0, 1, 0], 1)))
        x = gtangent(horizontal=E[0])
        y = gtangent(horizontal=E[2])
        for n in (1, 2, 3, 4):
            params = tn.Params(1.0, 1.0, n)
            val = tn.ext_deriv_omega(p, np.zeros((6, 6)), params, *read(p, params, x, y, v))
            assert val == pytest.approx(1.0 / np.sqrt(2.0))

    def test_fully_antisymmetric(self):
        p = point("+-")
        params = tn.Params(0.5, 1.6, 3)
        rmat = cur.random_strict_operator(RNG)
        a, b, c = random_coeffs()
        base = tn.ext_deriv_omega(p, rmat, params, a, b, c)
        assert tn.ext_deriv_omega(p, rmat, params, b, a, c) == pytest.approx(-base, abs=1e-11)
        assert tn.ext_deriv_omega(p, rmat, params, a, c, b) == pytest.approx(-base, abs=1e-11)
        assert tn.ext_deriv_omega(p, rmat, params, c, a, b) == pytest.approx(base, abs=1e-11)

    @pytest.mark.parametrize("component", ["++", "+-"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_cyclic_covariant_sum(self, component, n):
        rng = np.random.default_rng(60 + n)
        p = point(component, rng)
        params = tn.Params(0.8, 1.3, n)
        rmat = cur.random_strict_operator(rng)
        for _ in range(25):
            a, b, c = random_coeffs(rng=rng)
            cyc = (cov_deriv_omega(p, rmat, params, a, b, c)
                   + cov_deriv_omega(p, rmat, params, b, c, a)
                   + cov_deriv_omega(p, rmat, params, c, a, b))
            assert tn.ext_deriv_omega(p, rmat, params, a, b, c) == pytest.approx(cyc, abs=1e-10)


class TestCodifferential:
    def test_horizontal_argument_vanishes(self):
        p = point("+-")
        rmat = cur.random_strict_operator(RNG)
        params = tn.Params(1.0, 1.0, 2)
        (a,) = read(p, params, gtangent(horizontal=RNG.standard_normal(4)))
        assert tn.codiff_omega(p, rmat, params, a) == 0.0

    def test_flat_vanishes(self):
        p = point()
        params = tn.Params(0.9, 1.1, 1)
        (a,) = random_coeffs(k=1)
        assert tn.codiff_omega(p, np.zeros((6, 6)), params, a) == 0.0

    def test_constant_curvature_kills_first_factor_verticals(self):
        # (J1 V1)^ is again vertical at J1, hence orthogonal to J1^
        p = point()
        params = tn.Params(1.7, 1.0, 1)
        (v,) = read(p, params, gtangent(v1=random_vertical_endo(p.j1, RNG)))
        val = tn.codiff_omega(p, np.eye(6), params, v)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert val == pytest.approx(production("δΩ", p, np.eye(6), params, v), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frame_trace(self, n):
        rng = np.random.default_rng(80 + n)
        p = point("+-", rng)
        params = tn.Params(1.2, 0.7, n)
        rmat = cur.random_strict_operator(rng)
        for a in random_coeffs(rng=rng):
            assert tn.codiff_omega(p, rmat, params, a) == pytest.approx(
                production("δΩ", p, rmat, params, a), abs=1e-10)

    def test_frame_is_orthonormal(self):
        p = point("-+")
        params = tn.Params(0.3, 2.4, 2)
        frame = tn.frame_vectors(p, params, np.eye(8))
        vectors = [row(frame, a) for a in range(8)]
        gram = np.array([[metric_Ht(p, a, b, params) for b in vectors] for a in vectors])
        assert_allclose(gram, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    def test_stacked_point_and_coefficients_equal_one_point_builds(self, component):
        # one point, weights and coefficient row per trial, both pole branches
        # of each factor included, against the build at each point alone
        rng = np.random.default_rng(611)
        rows = TestFrameTensor.pole_rows(rng)
        t1, t2 = rng.uniform(0.2, 3.0, (2, len(rows)))
        coeffs = rng.standard_normal((len(rows), 8))
        g = tn.frame_vectors(cl._points(rows, component), tn.Params(t1, t2, 1), coeffs)
        assert (g.horizontal.shape, g.v1.shape, g.v2.shape) == (
            (len(rows), 4), (len(rows), 4, 4), (len(rows), 4, 4))
        for i, r in enumerate(rows):
            one = tn.frame_vectors(cl._points(r, component), tn.Params(t1[i], t2[i], 1), coeffs[i])
            for got, want in zip((g.horizontal[i], g.v1[i], g.v2[i]),
                                 (one.horizontal, one.v1, one.v2)):
                assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())


class TestNijenhuis:
    def test_all_horizontal_vanishes(self):
        p = point("+-")
        params = tn.Params(1.0, 1.0, 3)
        rmat = cur.random_strict_operator(RNG)
        args = read(p, params, *(gtangent(horizontal=RNG.standard_normal(4)) for _ in range(3)))
        assert production("N", p, rmat, params, *args) == pytest.approx(0.0, abs=1e-12)

    def test_vertical_pair_vanishes(self):
        p = point()
        params = tn.Params(0.8, 1.5, 4)
        rmat = cur.random_strict_operator(RNG)
        v = gtangent(v1=random_vertical_endo(p.j1, RNG))
        w = gtangent(v2=random_vertical_endo(p.j2, RNG))
        c = gtangent(horizontal=RNG.standard_normal(4), v1=random_vertical_endo(p.j1, RNG))
        assert production("N", p, rmat, params, *read(p, params, v, w, c)) == pytest.approx(
            0.0, abs=1e-12)

    def test_mixed_pairing_matrix_oracle(self):
        # H(N(X^h, V), Y^h) = 2 <J1 V1 X, Y> for n = 3, 4 and 0 for n = 1, 2
        p = canonical_point()
        v1 = fd.endo_of_two_vector(fd.embed_half([0, 1, 0], 1))
        rmat = cur.random_strict_operator(RNG)
        x = gtangent(horizontal=E[0])
        v = gtangent(v1=v1)
        y = gtangent(horizontal=E[3])
        for n in (1, 2, 3, 4):
            params = tn.Params(1.0, 1.0, n)
            val = production("N", p, rmat, params, *read(p, params, x, v, y))
            expected = 0.0 if n in (1, 2) else 2.0 * float(E[3] @ (p.j1.matrix @ (v1 @ E[0])))
            assert val == pytest.approx(expected, abs=1e-11)
            if n in (3, 4):
                assert abs(val) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("component", ["++", "+-"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_matches_closed_form(self, component, n):
        rng = np.random.default_rng(90 + n)
        p = point(component, rng)
        params = tn.Params(1.1, 0.6, n)
        rmat = cur.random_strict_operator(rng)
        for _ in range(25):
            a, b, c = random_coeffs(rng=rng)
            ident = production("N", p, rmat, params, a, b, c)
            closed = tn.nijenhuis_closed_form(p, rmat, params, a, b, c)
            assert ident == pytest.approx(closed, abs=1e-10 * (1 + abs(ident)))

    def test_scaled_curvature_term_is_caught(self):
        # mutation: the term -2 <R q(C), A^B - JA^JB> scaled to -4 (-1)^n instead
        p = point("+-")
        params = tn.Params(1.0, 1.0, 1)
        rmat = np.eye(6)
        a, b, c = random_coeffs()
        ga, gb, gc = (tn.frame_vectors(p, params, x) for x in (a, b, c))
        j1, j2 = p.j1.matrix, p.j2.matrix
        qc = (params.t1 * fd.two_vector_of_endo(j1 @ gc.v1)
              + params.t2 * fd.two_vector_of_endo(j2 @ gc.v2))
        term = float((rmat @ qc) @ (fd.wedge_of_pair(ga.horizontal, gb.horizontal)
                                    - fd.wedge_of_pair(j1 @ ga.horizontal, j1 @ gb.horizontal)))
        e = -1.0  # (-1)^n for n = 1
        closed = tn.nijenhuis_closed_form(p, rmat, params, a, b, c)
        scaled = closed + (2.0 - 4.0 * e) * term
        ident = production("N", p, rmat, params, a, b, c)
        assert ident == pytest.approx(closed, abs=1e-10 * (1 + abs(ident)))
        assert abs(ident - scaled) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_ignores_the_sign_tables(self, monkeypatch, n):
        rng = np.random.default_rng(40 + n)
        p = point("+-", rng)
        params = tn.Params(0.7, 1.3, n)
        rmat = cur.random_strict_operator(rng)
        a, b, c = random_coeffs(rng=rng)
        intact = tn.nijenhuis_closed_form(p, rmat, params, a, b, c)
        negate_sign_table(monkeypatch)
        corrupted = tn.nijenhuis_closed_form(p, rmat, params, a, b, c)
        ident = production("N", p, rmat, params, a, b, c)
        assert corrupted == intact
        assert abs(ident - intact) > 1e-3


class TestRestriction:
    @pytest.mark.parametrize("component", ["++", "+-", "-+", "--"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_residuals_vanish(self, component, n):
        rng = np.random.default_rng(100 + n)
        p = point(component, rng)
        params = tn.Params(0.7, 1.8, n)
        rmat = cur.random_strict_operator(rng)
        for _ in range(10):
            args = [gtangent(rng.standard_normal(4), random_vertical_endo(p.j1, rng))
                    for _ in range(3)]
            first = [x[:6] for x in read(p, params, *args)]
            res = tn.restriction_residuals(p, rmat, params, *first)
            assert max(res.values()) < 1e-12

    @staticmethod
    def first_factor_block(n, rng):
        """16 stacked trials of first-factor arguments, coefficients of E_0..E_5
        as the restriction oracle takes them."""
        rows = rng.standard_normal((16, 6))
        t = rng.uniform(0.3, 2.0, (16, 2))
        rmat = np.stack([cur.random_strict_operator(rng) for _ in range(16)])
        p = cl._points(rows, ("++", "+-")[(n - 1) % 2])
        params = tn.Params(t[:, 0], t[:, 1], n)
        first = [rng.standard_normal((16, 8))[:, :6] for _ in range(3)]
        return p, rmat, params, first

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_values_are_those_of_the_public_evaluators(self, n):
        p, rmat, params, first = self.first_factor_block(n, np.random.default_rng(900 + n))
        # the same arguments with zero coefficients of E_6, E_7
        a, b, c = (np.concatenate((x, np.zeros((16, 2))), axis=-1) for x in first)
        ga, gb, gc = (tn.frame_vectors(p, params, x) for x in (a, b, c))
        k = 1 if n in (1, 2) else 2
        sa, sb, sc = (tn.SingleTangent(g.horizontal, g.v1) for g in (ga, gb, gc))
        t = params.t1
        want = {
            "cov_deriv": abs(cov_deriv_omega(p, rmat, params, a, b, c)
                             - tn.single_cov_deriv(p.j1, rmat, t, k, sa, sb, sc)),
            "ext_deriv": abs(tn.ext_deriv_omega(p, rmat, params, a, b, c)
                             - tn.single_ext_deriv(p.j1, rmat, t, k, sa, sb, sc)),
            "codiff": abs(tn.codiff_omega(p, rmat, params, a)
                          - tn.single_codiff(p.j1, rmat, t, sa)),
            "metric": abs(metric_Ht(p, ga, gb, params) - tn.single_metric(p.j1, t, sa, sb)),
        }
        got = tn.restriction_residuals(p, rmat, params, *first)
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == (16,), name
            assert np.array_equal(got[name], want[name]), name
        assert max(np.max(v) for v in got.values()) < 1e-12

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_coefficient_stays_in_its_trial(self, slot):
        # a NaN argument must not read as a vanishing residual: the derivative
        # residuals of its trial, which read all three slots, are NaN, and the
        # other trials keep their values
        p, rmat, params, args = self.first_factor_block(2, np.random.default_rng(910))
        clean = tn.restriction_residuals(p, rmat, params, *args)
        bad = list(args)
        bad[slot] = args[slot].copy()
        bad[slot][5, 4] = np.nan
        got = tn.restriction_residuals(p, rmat, params, *bad)
        others = np.arange(16) != 5
        for name in clean:
            assert np.array_equal(got[name][others], clean[name][others]), name
        assert np.isnan(got["cov_deriv"][5]) and np.isnan(got["ext_deriv"][5])

    def test_negated_sign_table_breaks_the_restriction(self, monkeypatch):
        # the product side reads SIGMA, the single-fibre forms write their signs out
        p, rmat, params, args = self.first_factor_block(1, np.random.default_rng(920))
        negate_sign_table(monkeypatch)
        res = tn.restriction_residuals(p, rmat, params, *args)
        assert np.max(res["cov_deriv"]) > 1e-3
        assert np.max(res["ext_deriv"]) > 1e-3
