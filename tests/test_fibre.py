import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twistorgh import fibre

from random_fourdim import assert_complex_structure, assert_tangent, make_S_basis

RNG = np.random.default_rng(101)


def s_elem(dim, a, b):
    # 1-based labels
    out = np.zeros((dim, dim))
    out[b - 1, a - 1] = 1.0
    out[a - 1, b - 1] = -1.0
    return out


def tangent_part(skew):
    """The field a -> (q + a q a)/2 of the skew q; along the fibre it is q's tangent part."""
    return lambda a: fibre.tangent_projection(a, skew)


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
        # the contraction pairs the matrices' own axes, which do not broadcast
        with pytest.raises(ValueError):
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
        (s,) = make_S_basis(2)
        assert_allclose(s @ np.array([1.0, 0.0]), [0.0, 1.0])

    def test_counts(self):
        assert len(make_S_basis(4)) == 6
        assert len(make_S_basis(6)) == 15

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_orthonormal(self, dim):
        basis = make_S_basis(dim)
        gram = np.array([[fibre.inner_G(a, b) for b in basis] for a in basis])
        assert_allclose(gram, np.eye(len(basis)), atol=1e-14)


def projection_matrix(j):
    """Matrix of ``tangent_projection`` at J in the G-orthonormal S basis."""
    basis = make_S_basis(j.shape[0])
    return np.array([[fibre.inner_G(p, fibre.tangent_projection(j, s)) for s in basis]
                     for p in basis])


class TestTangentSpace:
    def test_dim2_empty(self):
        # the fibre of R^2 is the two points +-J, with no tangent directions
        j = fibre.standard_complex_structure(2)
        (s,) = make_S_basis(2)
        assert_allclose(fibre.tangent_projection(j, s), np.zeros((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_orthonormal_tangent_spanning(self, dim):
        # G-orthogonal projector of rank m^2 - m whose image is tangent at J and
        # whose kernel commutes with J
        m = dim // 2
        j = fibre.random_complex_structure(dim, RNG)
        p = projection_matrix(j)
        assert_allclose(p, p.T, atol=1e-12)
        assert_allclose(p @ p, p, atol=1e-12)
        assert np.linalg.matrix_rank(p, tol=1e-8) == m * m - m
        for s in make_S_basis(dim):
            v = assert_tangent(j, fibre.tangent_projection(j, s))
            rest = s - v
            assert np.max(np.abs(j @ rest - rest @ j)) < 1e-12

    def test_random_adapted_frame(self):
        # the projection is equivariant: P(q J q^T, q a q^T) = q P(J, a) q^T
        for _ in range(10):
            q = fibre.random_orthogonal(6, RNG)
            j = fibre.standard_complex_structure(6)
            a = RNG.standard_normal((6, 6))
            a = 0.5 * (a - a.T)
            assert_allclose(fibre.tangent_projection(q @ j @ q.T, q @ a @ q.T),
                            q @ fibre.tangent_projection(j, a) @ q.T, atol=1e-12)


class TestKaehlerStructure:
    """The fibre Kaehler structure V -> J o V on the tangent space at J."""

    @pytest.mark.parametrize("dim", [4, 6])
    def test_square_is_minus_identity(self, dim):
        for _ in range(20):
            j = fibre.random_complex_structure(dim, RNG)
            v = fibre.random_tangent(j, RNG)
            kv = assert_tangent(j, j @ v)
            assert_allclose(j @ kv, -v, atol=1e-12)

    def test_is_G_orthogonal(self):
        for _ in range(20):
            j = fibre.random_complex_structure(6, RNG)
            v, w = fibre.random_tangent(j, RNG), fibre.random_tangent(j, RNG)
            assert fibre.inner_G(j @ v, j @ w) == pytest.approx(fibre.inner_G(v, w), abs=1e-12)
            assert fibre.inner_G(j @ v, v) == pytest.approx(0.0, abs=1e-12)


class TestLeviCivita:
    def test_constant_field_gives_zero(self):
        j = fibre.random_complex_structure(4, RNG)
        x = fibre.random_tangent(j, RNG)
        v = fibre.random_tangent(j, RNG)
        assert_allclose(fibre.fibre_levi_civita(lambda a: v, x, j), np.zeros((4, 4)), atol=1e-12)

    def test_matches_projected_curve_derivative(self):
        # second-order oracle: project the field derivative along a retracted curve
        rng = np.random.default_rng(42)
        for _ in range(5):
            j = fibre.random_complex_structure(4, rng)
            x = fibre.random_tangent(j, rng)
            q = rng.standard_normal((4, 4))
            field = tangent_part(0.5 * (q - q.T))
            analytic = fibre.fibre_levi_civita(field, x, j)
            h = 1e-5
            plus = field(retract(j + h * x))
            minus = field(retract(j - h * x))
            oracle = fibre.tangent_projection(j, (plus - minus) / (2.0 * h))
            assert np.max(np.abs(analytic - oracle)) < 1e-6

    def test_result_is_tangent(self):
        j = fibre.random_complex_structure(6, RNG)
        x = fibre.random_tangent(j, RNG)
        q = RNG.standard_normal((6, 6))
        assert_tangent(j, fibre.fibre_levi_civita(tangent_part(0.5 * (q - q.T)), x, j))

    def test_identity_field_differentiates_to_the_tangent_vector(self):
        # the central difference is exact for a linear field up to roundoff,
        # and J X J = X for X tangent at J, so D_X id = X
        j = fibre.random_complex_structure(6, RNG)
        x = fibre.random_tangent(j, RNG)
        assert_allclose(fibre.fibre_levi_civita(lambda a: a, x, j), x, atol=1e-9)


class TestInvariantPreservation:
    def test_thousand_random_inputs(self):
        rng = np.random.default_rng(2024)
        j = fibre.random_complex_structure(4, rng)
        for _ in range(1000):
            q = rng.standard_normal((4, 4))
            skew = 0.5 * (q - q.T)
            v = fibre.tangent_projection(j, skew)
            assert_tangent(j, v)
            # J o V, the fibre Kaehler image of the selftest oracle's field
            assert_tangent(j, j @ v)

    def test_random_complex_structures_are_valid(self):
        rng = np.random.default_rng(5)
        for dim in (4, 6):
            for _ in range(25):
                assert_complex_structure(fibre.random_complex_structure(dim, rng))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_projection_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        j = fibre.random_complex_structure(4, rng)
        q = rng.standard_normal((4, 4))
        skew = 0.5 * (q - q.T)
        once = fibre.tangent_projection(j, skew)
        assert_allclose(fibre.tangent_projection(j, once), once, atol=1e-12)

    @pytest.mark.parametrize("entry", [
        lambda nan, j: fibre.inner_G(nan, j),
        lambda nan, j: fibre.tangent_projection(j, nan),
        lambda nan, j: fibre.tangent_projection(nan, -j),
        lambda nan, j: fibre.random_tangent(nan, np.random.default_rng(0)),
        lambda nan, j: fibre.fibre_levi_civita(tangent_part(-j), nan, j),
        lambda nan, j: fibre.fibre_levi_civita(tangent_part(-j), 0 * j, nan),
    ], ids=["inner_G", "projection-of-nan", "projection-at-nan", "random_tangent",
            "levi-civita-direction", "levi-civita-point"])
    def test_nan_propagates(self, entry):
        # nothing here checks its input, so a NaN must reach every output entry,
        # where the self-test's residuals fail on it
        out = entry(np.full((4, 4), np.nan), fibre.standard_complex_structure(4))
        assert np.isnan(out).all()
