import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from twistorgh import fibre, fourdim as fd

from random_fourdim import (half, lex_pairs, make_S_basis, random_ocs, random_vertical_endo,
                            vertical_pair)
from reference import rotation_from_e1

RNG = np.random.default_rng(303)

E = np.eye(4)
S1P = fd.embed_half([1, 0, 0], 1)
S2P = fd.embed_half([0, 1, 0], 1)
S3P = fd.embed_half([0, 0, 1], 1)
S1M = fd.embed_half([1, 0, 0], -1)
S2M = fd.embed_half([0, 1, 0], -1)
S3M = fd.embed_half([0, 0, 1], -1)


def test_change_of_basis_is_orthogonal():
    assert_allclose(fd.LEX_TO_S @ fd.LEX_TO_S.T, np.eye(6), atol=1e-15)


def _hodge_matrix():
    """s-basis matrix of the Hodge star, built from *(e_i ^ e_j) = eps e_k ^ e_l
    with eps the sign of the permutation (i, j, k, l) of (0, 1, 2, 3)."""
    h = np.zeros((6, 6))
    for i, j in lex_pairs(4):
        k, l = (m for m in range(4) if m not in (i, j))
        eps = round(np.linalg.det(E[[i, j, k, l]]))
        h += eps * np.outer(fd.wedge_of_pair(E[k], E[l]), fd.wedge_of_pair(E[i], E[j]))
    return h


HODGE = _hodge_matrix()


def hodge_star(v):
    return HODGE @ v


class TestHodge:
    def test_e12_maps_to_e34(self):
        # the Hodge star is +1 on the first half of the s-basis, -1 on the second
        w = fd.wedge_of_pair(E[0], E[1])
        assert_allclose(w * [1, 1, 1, -1, -1, -1], fd.wedge_of_pair(E[2], E[3]), atol=1e-15)

    def test_is_the_sign_pattern_of_the_halves(self):
        assert_allclose(HODGE, np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), atol=1e-15)

    def test_self_dual_eigenvector(self):
        assert_allclose(hodge_star(S1P), S1P, atol=1e-15)

    def test_anti_self_dual_eigenvector(self):
        assert_allclose(hodge_star(S2M), -S2M, atol=1e-15)

    def test_involution(self):
        v = RNG.standard_normal(6)
        assert_allclose(hodge_star(hodge_star(v)), v, atol=1e-15)


class TestSplit:
    """The split into halves is the slices v[:3], v[3:] and, back in Lambda^2, ``embed_half``."""

    @staticmethod
    def split_pm(v):
        return tuple(fd.embed_half(half(v, sign), sign) for sign in (1, -1))

    def test_decomposable(self):
        plus, minus = self.split_pm(fd.wedge_of_pair(E[0], E[1]))
        assert_allclose(plus, S1P / np.sqrt(2), atol=1e-15)
        assert_allclose(minus, S1M / np.sqrt(2), atol=1e-15)

    def test_pure_eigenvector(self):
        plus, minus = self.split_pm(S3P)
        assert_array_equal(plus, S3P)
        assert_array_equal(minus, np.zeros(6))

    def test_zero(self):
        plus, minus = self.split_pm(np.zeros(6))
        assert_array_equal(plus, np.zeros(6))
        assert_array_equal(minus, np.zeros(6))

    def test_parts_are_eigenvectors_and_orthogonal(self):
        v = RNG.standard_normal(6)
        plus, minus = self.split_pm(v)
        assert_allclose(hodge_star(plus), plus, atol=1e-15)
        assert_allclose(hodge_star(minus), -minus, atol=1e-15)
        assert plus @ minus == 0.0
        assert_array_equal(plus + minus, v)


class TestCross:
    """The cross product of a half is the commutator of its endomorphisms:
    sigma x tau corresponds to (sign / sqrt2) [K_sigma, K_tau]."""

    @pytest.mark.parametrize("sign,basis", [(1, (S1P, S2P, S3P)), (-1, (S1M, S2M, S3M))])
    def test_cyclic_triads(self, sign, basis):
        # sqrt2 K_{s1}, sqrt2 K_{s2}, sqrt2 K_{s3} are complex structures with
        # I J = sign K, cyclically
        i, j, k = (np.sqrt(2) * fd.endo_of_two_vector(s) for s in basis)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            assert_allclose(a @ a, -np.eye(4), atol=1e-14)
            assert_allclose(a @ b, sign * c, atol=1e-14)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_commutator_relation(self, sign):
        for _ in range(10):
            u3, v3 = RNG.standard_normal((2, 3))
            ku = fd.endo_of_two_vector(fd.embed_half(u3, sign))
            kv = fd.endo_of_two_vector(fd.embed_half(v3, sign))
            bracket = fd.two_vector_of_endo(sign / np.sqrt(2) * (ku @ kv - kv @ ku))
            assert_allclose(bracket, fd.embed_half(np.cross(u3, v3), sign), atol=1e-10)


#: the poles (1, 0, 0) and (-1, 0, 0) of a half, where the axis e1 x u of the
#: vertical frame's rotation vanishes
POLES = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


def random_sphere_rows(rng, k=6):
    """The two poles and k random directions, each at a random length in [1e-3, 1e3]."""
    rows = np.vstack([POLES, rng.standard_normal((k, 3))])
    return rows * 10.0 ** rng.uniform(-3.0, 3.0, (len(rows), 1))


def orientation_sign(j, rng):
    """Sign of det(x, Jx, y, Jy) for random x, y: the orientation J induces."""
    x, y = rng.standard_normal((2, 4))
    return np.sign(np.linalg.det(np.column_stack([x, j @ x, y, j @ y])))


class TestSphereModel:
    def test_self_dual_standard_structure(self):
        j = fd.OrientedComplexStructure4([1.0, 0.0, 0.0], 1)
        assert_allclose(j.matrix @ E[0], E[1], atol=1e-14)
        assert_allclose(j.matrix @ E[2], E[3], atol=1e-14)

    def test_anti_self_dual_standard_structure(self):
        j = fd.OrientedComplexStructure4([1.0, 0.0, 0.0], -1)
        assert_allclose(j.matrix @ E[0], E[1], atol=1e-14)
        assert_allclose(j.matrix @ E[2], -E[3], atol=1e-14)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trip(self, sign):
        # the wedge is sqrt2 u in its half, and the matrix maps back to it
        for _ in range(100):
            u = RNG.standard_normal(3)
            u /= np.linalg.norm(u)
            j = fd.OrientedComplexStructure4(u, sign)
            assert_allclose(j.wedge / np.sqrt(2), fd.embed_half(u, sign), atol=1e-15)
            assert_allclose(fd.two_vector_of_endo(j.matrix), j.wedge, atol=1e-15)

    def test_wedge_norm_is_sqrt2(self):
        j = random_ocs(1, RNG)
        assert np.linalg.norm(j.wedge) == pytest.approx(np.sqrt(2), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, -1]))
    def test_every_sphere_point_is_a_complex_structure(self, seed, sign):
        # any nonzero 3-vector, the exact poles included, gives a compatible
        # complex structure inducing sign times the orientation
        rng = np.random.default_rng(seed)
        rows = random_sphere_rows(rng)
        j = fd.OrientedComplexStructure4(rows, sign)
        assert j.u.shape == (len(rows), 3)
        assert j.wedge.shape == (len(rows), 6)
        assert j.matrix.shape == (len(rows), 4, 4)
        assert_allclose(np.linalg.norm(j.u, axis=-1), 1.0, rtol=0, atol=1e-15)
        assert_allclose(j.u * np.linalg.norm(rows, axis=-1, keepdims=True), rows, rtol=1e-15)
        m = j.matrix
        assert_allclose(m + m.swapaxes(-1, -2), 0.0, atol=1e-15)
        assert_allclose(m @ m, np.broadcast_to(-np.eye(4), m.shape), atol=1e-15)
        assert_array_equal(half(j.wedge, -sign), 0.0)
        assert_allclose(np.linalg.norm(j.wedge, axis=-1), np.sqrt(2), rtol=0, atol=1e-15)
        assert_allclose(fd.two_vector_of_endo(m), j.wedge, atol=1e-15)
        assert [orientation_sign(mi, rng) for mi in m] == [sign] * len(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, -1]))
    def test_positive_multiples_give_the_same_structure(self, seed, sign):
        rng = np.random.default_rng(seed)
        rows = random_sphere_rows(rng)
        j = fd.OrientedComplexStructure4(rows, sign)
        for lam in (2.0 ** -40, 0.5, 8.0, 2.0 ** 40):   # powers of two scale exactly
            k = fd.OrientedComplexStructure4(lam * rows, sign)
            for a, b in ((j.u, k.u), (j.wedge, k.wedge), (j.matrix, k.matrix)):
                assert_array_equal(a, b)
        lam = 10.0 ** rng.uniform(-6.0, 6.0, (len(rows), 1))
        k = fd.OrientedComplexStructure4(lam * rows, sign)
        for a, b in ((j.u, k.u), (j.wedge, k.wedge), (j.matrix, k.matrix)):
            assert_allclose(a, b, rtol=0, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, -1]))
    def test_stacked_build_equals_one_point_builds(self, seed, sign):
        rng = np.random.default_rng(seed)
        rows = random_sphere_rows(rng).reshape(2, 4, 3)
        j = fd.OrientedComplexStructure4(rows, sign)
        assert j.matrix.shape == (2, 4, 4, 4)
        for idx in np.ndindex(rows.shape[:-1]):
            k = fd.OrientedComplexStructure4(rows[idx], sign)
            assert_array_equal(j.u[idx], k.u)
            assert_array_equal(j.wedge[idx], k.wedge)
            assert_array_equal(j.matrix[idx], k.matrix)


class TestVerticalBasis:
    def test_canonical_point(self):
        j = fd.OrientedComplexStructure4([1.0, 0.0, 0.0], 1)
        u2, u3 = vertical_pair(j)
        assert_allclose(u2, fd.endo_of_two_vector(S2P), atol=1e-14)
        assert_allclose(u3, fd.endo_of_two_vector(S3P), atol=1e-14)

    def test_antipodal_point_is_handled(self):
        j = fd.OrientedComplexStructure4([-1.0, 0.0, 0.0], -1)
        u2, u3 = vertical_pair(j)
        assert_allclose(u2, fd.endo_of_two_vector(S2M), atol=1e-14)
        assert_allclose(u3, fd.endo_of_two_vector(-S3M), atol=1e-14)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_anticommute_and_orthonormal(self, sign):
        for _ in range(25):
            j = random_ocs(sign, RNG)
            u2, u3 = vertical_pair(j)
            for v in (u2, u3):
                assert np.max(np.abs(j.matrix @ v + v @ j.matrix)) < 1e-12
            gram = np.array([[fibre.inner_G(a, b) for b in (u2, u3)] for a in (u2, u3)])
            assert_allclose(gram, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_stacked_bases_match_one_point_calls(self, sign):
        # canonical point, antipode and random points in one stack; the poles
        # get their rotations without a division by zero
        u = np.vstack([POLES, RNG.standard_normal((6, 3))])
        with np.errstate(all="raise"):
            b2, b3 = vertical_pair(fd.OrientedComplexStructure4(u, sign))
            assert b2.shape == b3.shape == (len(u), 4, 4)
            for i, ui in enumerate(u):
                u2, u3 = vertical_pair(fd.OrientedComplexStructure4(ui, sign))
                assert_allclose(b2[i], u2, rtol=0, atol=1e-15)
                assert_allclose(b3[i], u3, rtol=0, atol=1e-15)
        assert_array_equal(b2[0], fd.endo_of_two_vector(fd.embed_half([0, 1, 0], sign)))
        assert_array_equal(b3[1], fd.endo_of_two_vector(fd.embed_half([0, 0, -1], sign)))

    @staticmethod
    def near_pole_rows():
        """Points at angles 1e-6, 1e-9 and 1e-12 from each pole, three azimuths each."""
        rows = [[pole * np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)]
                for pole in (1.0, -1.0) for theta in (1e-6, 1e-9, 1e-12)
                for phi in (0.0, 0.7, -2.3)]
        return np.array(rows)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_near_the_poles_the_basis_is_vertical(self, sign):
        # the rotation to u is Rodrigues's however close u is to a pole, so
        # the basis anticommutes with J to roundoff and not to the angle
        rows = self.near_pole_rows()
        stacked = fd.OrientedComplexStructure4(rows, sign)
        singles = [fd.OrientedComplexStructure4(r, sign) for r in rows]
        for jm, (u2, u3) in [(stacked.matrix, vertical_pair(stacked))] + [
                (j.matrix, vertical_pair(j)) for j in singles]:
            for v in (u2, u3):
                assert np.max(np.abs(jm @ v + v @ jm)) <= 1e-14
            gram = np.stack([np.stack([fibre.inner_G(a, b) for b in (u2, u3)], -1)
                             for a in (u2, u3)], -1)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-14

    @pytest.mark.parametrize("sign", [1, -1])
    def test_basis_rows_are_rodrigues(self, sign):
        # the closed-form rows are the last two columns of Rodrigues's rotation
        # taking e1 to u, at the poles, near them and at random points, stacked
        # and one by one, with no floating-point warning at the poles
        u = np.vstack([POLES, self.near_pole_rows(), RNG.standard_normal((20, 3))])
        with np.errstate(all="raise"):
            stacked = fd.OrientedComplexStructure4(u, sign)
            ref = np.swapaxes(rotation_from_e1(stacked.u), -1, -2)[:, 1:, :]
            singles = np.stack([fd.OrientedComplexStructure4(ui, sign).basis for ui in u])
        assert stacked.basis.shape == (len(u), 2, 6)
        assert np.all(half(stacked.basis, -sign) == 0.0)
        for basis in (stacked.basis, singles):
            assert np.abs(half(basis, sign) - ref).max() <= 1e-15
            w_a, w_b = half(basis[:, 0], sign), half(basis[:, 1], sign)
            assert np.abs(np.cross(stacked.u, w_a) - w_b).max() <= 1e-15
            assert np.abs(np.cross(stacked.u, w_b) + w_a).max() <= 1e-15
        assert_array_equal(half(stacked.basis[0], sign), [[0, 1, 0], [0, 0, 1]])
        assert_array_equal(half(stacked.basis[1], sign), [[0, 1, 0], [0, 0, -1]])

    def test_completes_oriented_triad(self):
        j = random_ocs(1, RNG)
        u2 = half(fd.two_vector_of_endo(vertical_pair(j)[0]), 1)
        u3 = half(fd.two_vector_of_endo(vertical_pair(j)[1]), 1)
        assert_allclose(np.cross(j.u, u2), u3, atol=1e-12)


class TestQuaternionRelations:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_kaehler_image_is_cross_product(self, sign):
        # (K V)^ = (sign / sqrt2) (J^ x V^) for V vertical at J
        for _ in range(100):
            j = random_ocs(sign, RNG)
            v = random_vertical_endo(j, RNG)
            lhs = fd.two_vector_of_endo(j.matrix @ v)
            w = fd.two_vector_of_endo(v)
            assert np.max(np.abs(half(w, -sign))) < 1e-12
            u, w = half(j.wedge, sign), half(w, sign)
            rhs = sign / np.sqrt(2) * fd.embed_half(np.cross(u, w), sign)
            assert_allclose(lhs, rhs, atol=1e-10)

    def test_same_half_orthogonal_endos_anticommute(self):
        for sign, (a, b, c) in ((1, (S1P, S2P, S3P)), (-1, (S1M, S2M, S3M))):
            for u, v in ((a, b), (b, c), (a, c)):
                ku, kv = fd.endo_of_two_vector(u), fd.endo_of_two_vector(v)
                assert_allclose(ku @ kv + kv @ ku, np.zeros((4, 4)), atol=1e-14)

    def test_opposite_halves_commute(self):
        for u in (S1P, S2P, S3P):
            for v in (S1M, S2M, S3M):
                ku, kv = fd.endo_of_two_vector(u), fd.endo_of_two_vector(v)
                assert_allclose(ku @ kv - kv @ ku, np.zeros((4, 4)), atol=1e-14)

    def test_plus_wedges_with_structure_are_self_dual(self):
        # X ^ J1 Y + J1 X ^ Y and X ^ Y - J1 X ^ J1 Y for J1 in the plus half
        for _ in range(50):
            j = random_ocs(1, RNG).matrix
            x, y = RNG.standard_normal((2, 4))
            w1 = fd.wedge_of_pair(x, j @ y) + fd.wedge_of_pair(j @ x, y)
            w2 = fd.wedge_of_pair(x, y) - fd.wedge_of_pair(j @ x, j @ y)
            assert np.max(np.abs(w1[3:])) < 1e-12
            assert np.max(np.abs(w2[3:])) < 1e-12


def induced_map(q):
    """s-basis matrix of Lambda^2 q; column k is (q S_k q^T)^ for S_k = S_BASIS_ENDOS[k]."""
    return fd.two_vector_of_endo(q @ fd.S_BASIS_ENDOS @ q.T).T


def random_skew(rng):
    m = rng.standard_normal((4, 4))
    return 0.5 * (m - m.T)


class TestWedgeIso:
    def test_s_basis_endos_rotate_the_lexicographic_basis(self):
        # fourdim builds its S_ij itself; they must be the fibre's S_ij exactly
        lex = np.stack(make_S_basis(4))
        assert_array_equal(fd.S_BASIS_ENDOS, np.tensordot(fd.LEX_TO_S, lex, 1))

    def test_s12_is_e1_wedge_e2(self):
        s12 = make_S_basis(4)[0]
        assert_allclose(fd.two_vector_of_endo(s12), fd.wedge_of_pair(E[0], E[1]), atol=1e-15)

    def test_zero(self):
        assert_array_equal(fd.two_vector_of_endo(np.zeros((4, 4))), np.zeros(6))
        assert_array_equal(fd.endo_of_two_vector(np.zeros(6)), np.zeros((4, 4)))

    def test_round_trip(self):
        for _ in range(10):
            a = random_skew(RNG)
            assert_allclose(fd.endo_of_two_vector(fd.two_vector_of_endo(a)), a, atol=1e-15)
            v = RNG.standard_normal(6)
            assert_allclose(fd.two_vector_of_endo(fd.endo_of_two_vector(v)), v, atol=1e-15)

    def test_isometry(self):
        for _ in range(50):
            a, b = random_skew(RNG), random_skew(RNG)
            norm_g = np.sqrt(fibre.inner_G(a, a))
            assert abs(norm_g - np.linalg.norm(fd.two_vector_of_endo(a))) < 1e-12
            pairing = float(fd.two_vector_of_endo(a) @ fd.two_vector_of_endo(b))
            assert pairing == pytest.approx(fibre.inner_G(a, b), abs=1e-12)

    def test_defining_pairing(self):
        # g(a^, x ^ y) = g(a x, y)
        for _ in range(20):
            a = random_skew(RNG)
            x, y = RNG.standard_normal((2, 4))
            lhs = float(fd.two_vector_of_endo(a) @ fd.wedge_of_pair(x, y))
            assert lhs == pytest.approx(float((a @ x) @ y), abs=1e-12)

    def test_equivariance(self):
        # (q a q^T)^ = Lambda^2 q a^, with Lambda^2 q (x ^ y) = q x ^ q y
        for _ in range(20):
            q = fibre.random_orthogonal(4, RNG)
            lam = induced_map(q)
            x, y = RNG.standard_normal((2, 4))
            assert_allclose(lam @ fd.wedge_of_pair(x, y), fd.wedge_of_pair(q @ x, q @ y),
                            atol=1e-12)
            a = random_skew(RNG)
            assert_allclose(fd.two_vector_of_endo(q @ a @ q.T),
                            lam @ fd.two_vector_of_endo(a), atol=1e-10)

    def test_two_vector_metric_on_decomposables(self):
        # g(x1^x2, x3^x4) = g(x1,x3) g(x2,x4) - g(x1,x4) g(x2,x3)
        for _ in range(50):
            x1, x2, x3, x4 = RNG.standard_normal((4, 4))
            lhs = float(fd.wedge_of_pair(x1, x2) @ fd.wedge_of_pair(x3, x4))
            rhs = (x1 @ x3) * (x2 @ x4) - (x1 @ x4) * (x2 @ x3)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestInducedMap:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_orthogonal_and_half_behaviour(self, seed):
        rng = np.random.default_rng(seed)
        q = fibre.random_orthogonal(4, rng)
        m = induced_map(q)
        assert_allclose(m @ m.T, np.eye(6), atol=1e-12)
        on_plus = m @ np.concatenate([rng.standard_normal(3), np.zeros(3)])
        if np.linalg.det(q) > 0:
            assert np.max(np.abs(on_plus[3:])) < 1e-12
        else:
            assert np.max(np.abs(on_plus[:3])) < 1e-12
