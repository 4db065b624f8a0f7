import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twistorgh import fibre

RNG = np.random.default_rng(101)


def s_elem(dim, a, b):
    # 1-based labels
    out = np.zeros((dim, dim))
    out[b - 1, a - 1] = 1.0
    out[a - 1, b - 1] = -1.0
    return out


def retract(a):
    """The retraction a -> a (-a^2)^(-1/2) of an invertible skew onto the fibre."""
    w, u = np.linalg.eigh(-(a @ a))
    assert np.min(w) > 0.0
    return a @ ((u / np.sqrt(w)) @ u.T)


class TestInnerG:
    def test_unit_norm_of_s_basis(self):
        s12 = s_elem(4, 1, 2)
        assert fibre.inner_G(s12, s12) == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        assert fibre.inner_G(s_elem(4, 1, 2), s_elem(4, 3, 4)) == pytest.approx(0.0)

    def test_zero_argument(self):
        b = fibre.random_tangent(fibre.standard_complex_structure(4), RNG)
        assert fibre.inner_G(np.zeros((4, 4)), b) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(fibre.FibreAlgebraError, match="mismatch"):
            fibre.inner_G(np.zeros((4, 4)), np.zeros((6, 6)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_positive_definite_on_skews(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((4, 4))
        a = 0.5 * (q - q.T)
        assert fibre.inner_G(a, a) >= 0.0
        if np.max(np.abs(a)) > 1e-12:
            assert fibre.inner_G(a, a) > 0.0


class TestSBasis:
    def test_dim2_single_element(self):
        (s,) = fibre.make_S_basis(2)
        assert_allclose(s @ np.array([1.0, 0.0]), [0.0, 1.0])

    def test_counts(self):
        assert len(fibre.make_S_basis(4)) == 6
        assert len(fibre.make_S_basis(6)) == 15

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_orthonormal(self, dim):
        basis = fibre.make_S_basis(dim)
        gram = np.array([[fibre.inner_G(a, b) for b in basis] for a in basis])
        assert_allclose(gram, np.eye(len(basis)), atol=1e-14)

    def test_odd_dimension_rejected(self):
        with pytest.raises(fibre.FibreAlgebraError):
            fibre.make_S_basis(5)


class TestABBasis:
    def test_dim2_empty(self):
        j = fibre.standard_complex_structure(2)
        assert fibre.make_AB_basis(j, np.eye(2)) == []

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_orthonormal_tangent_spanning(self, dim):
        m = dim // 2
        j = fibre.standard_complex_structure(dim)
        basis = fibre.make_AB_basis(j, np.eye(dim))
        assert len(basis) == m * m - m
        gram = np.array([[fibre.inner_G(a, b) for b in basis] for a in basis])
        assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
        for v in basis:
            fibre.check_tangent(j, v)
        coords = np.array([[fibre.inner_G(v, s) for s in fibre.make_S_basis(dim)]
                           for v in basis])
        assert np.linalg.matrix_rank(coords, tol=1e-8) == m * m - m

    def test_b_is_kaehler_image_of_a(self):
        j = fibre.standard_complex_structure(6)
        basis = fibre.make_AB_basis(j, np.eye(6))
        for a, b in zip(basis[0::2], basis[1::2]):
            assert_allclose(fibre.kaehler_K(j, a), b, atol=1e-12)

    def test_random_adapted_frame(self):
        q = fibre.random_orthogonal(4, RNG)
        j = q @ fibre.standard_complex_structure(4) @ q.T
        frame = q.T  # rows are the images of the standard basis under q
        basis = fibre.make_AB_basis(j, frame)
        assert len(basis) == 2
        for v in basis:
            fibre.check_tangent(j, v)

    def test_non_orthonormal_frame_rejected(self):
        j = fibre.standard_complex_structure(4)
        with pytest.raises(fibre.FibreAlgebraError, match="not orthonormal"):
            fibre.make_AB_basis(j, 2.0 * np.eye(4))

    def test_non_adapted_frame_rejected(self):
        j = fibre.standard_complex_structure(4)
        frame = np.eye(4)[[0, 2, 1, 3]]
        with pytest.raises(fibre.FibreAlgebraError, match="not J-adapted"):
            fibre.make_AB_basis(j, frame)


class TestKaehlerStructure:
    def test_zero(self):
        j = fibre.standard_complex_structure(4)
        assert_allclose(fibre.kaehler_K(j, np.zeros((4, 4))), np.zeros((4, 4)))

    def test_a12_maps_to_b12(self):
        j = fibre.standard_complex_structure(4)
        a12, b12 = fibre.make_AB_basis(j, np.eye(4))
        assert_allclose(fibre.kaehler_K(j, a12), b12, atol=1e-14)

    def test_square_is_minus_identity(self):
        for _ in range(20):
            j = fibre.random_complex_structure(6, RNG)
            v = fibre.random_tangent(j, RNG)
            assert_allclose(fibre.kaehler_K(j, fibre.kaehler_K(j, v)), -v, atol=1e-12)

    def test_non_tangent_rejected(self):
        j = fibre.standard_complex_structure(4)
        with pytest.raises(fibre.FibreAlgebraError, match="not tangent"):
            fibre.kaehler_K(j, s_elem(4, 1, 2))


class TestLeviCivita:
    def test_constant_field_gives_zero(self):
        j = fibre.random_complex_structure(4, RNG)
        x = fibre.random_tangent(j, RNG)
        v = fibre.random_tangent(j, RNG)
        field = fibre.FibreVectorField(evaluate=lambda a: v)
        assert_allclose(fibre.fibre_levi_civita(field, x, j), np.zeros((4, 4)), atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_kaehler_structure_is_parallel(self, dim):
        # D(K Y) = K(D Y) under central-difference derivatives
        rng = np.random.default_rng(7 + dim)
        for _ in range(10):
            j = fibre.random_complex_structure(dim, rng)
            x = fibre.random_tangent(j, rng)
            q = rng.standard_normal((dim, dim))
            field = fibre.tangent_projection_field(0.5 * (q - q.T))
            k_field = fibre.FibreVectorField(evaluate=lambda a: a @ field.evaluate(a))
            lhs = fibre.fibre_levi_civita(k_field, x, j)
            rhs = j @ fibre.fibre_levi_civita(field, x, j)
            assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_matches_projected_curve_derivative(self):
        # second-order oracle: project the field derivative along a retracted curve
        rng = np.random.default_rng(42)
        for _ in range(5):
            j = fibre.random_complex_structure(4, rng)
            x = fibre.random_tangent(j, rng)
            q = rng.standard_normal((4, 4))
            field = fibre.tangent_projection_field(0.5 * (q - q.T))
            analytic = fibre.fibre_levi_civita(field, x, j)
            h = 1e-5
            plus = field.evaluate(retract(j + h * x))
            minus = field.evaluate(retract(j - h * x))
            oracle = fibre.tangent_projection(j, (plus - minus) / (2.0 * h))
            assert np.max(np.abs(analytic - oracle)) < 1e-6

    def test_result_is_tangent(self):
        j = fibre.random_complex_structure(6, RNG)
        x = fibre.random_tangent(j, RNG)
        q = RNG.standard_normal((6, 6))
        field = fibre.tangent_projection_field(0.5 * (q - q.T))
        fibre.check_tangent(j, fibre.fibre_levi_civita(field, x, j))

    def test_identity_field_differentiates_to_the_tangent_vector(self):
        # the central difference is exact for a linear field up to roundoff,
        # and J X J = X for X tangent at J, so D_X id = X
        j = fibre.random_complex_structure(6, RNG)
        x = fibre.random_tangent(j, RNG)
        field = fibre.FibreVectorField(evaluate=lambda a: a)
        assert_allclose(field.derivative(j, x), x, atol=1e-9)
        assert_allclose(fibre.fibre_levi_civita(field, x, j), x, atol=1e-9)


class TestInvariantPreservation:
    def test_thousand_random_inputs(self):
        rng = np.random.default_rng(2024)
        j = fibre.random_complex_structure(4, rng)
        for _ in range(1000):
            q = rng.standard_normal((4, 4))
            skew = 0.5 * (q - q.T)
            v = fibre.tangent_projection(j, skew)
            fibre.check_tangent(j, v)
            fibre.check_tangent(j, fibre.kaehler_K(j, v))

    def test_random_complex_structures_are_valid(self):
        rng = np.random.default_rng(5)
        for dim in (4, 6):
            for _ in range(25):
                fibre.check_complex_structure(fibre.random_complex_structure(dim, rng))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_projection_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        j = fibre.random_complex_structure(4, rng)
        q = rng.standard_normal((4, 4))
        skew = 0.5 * (q - q.T)
        once = fibre.tangent_projection(j, skew)
        assert_allclose(fibre.tangent_projection(j, once), once, atol=1e-12)

    @pytest.mark.parametrize("check", [
        lambda nan, j: fibre.check_skew(nan),
        lambda nan, j: fibre.check_complex_structure(nan),
        lambda nan, j: fibre.check_tangent(j, nan),
        lambda nan, j: fibre.check_tangent(nan, np.zeros((4, 4))),
        lambda nan, j: fibre.make_AB_basis(j, nan),
    ])
    def test_nan_is_rejected(self, check):
        with pytest.raises(fibre.FibreAlgebraError):
            check(np.full((4, 4), np.nan), fibre.standard_complex_structure(4))

    def test_skewness_violation_detected(self):
        with pytest.raises(fibre.FibreAlgebraError, match="not skew"):
            fibre.check_skew(np.eye(4))
