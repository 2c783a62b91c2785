"""Algebra checks for the quadratic-variation forms and 2x2 helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalehom import tensor2d as t2


def circle_average(fn, n=4096):
    """Quadrature oracle: average of fn(theta) over the unit circle."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    t = np.stack([np.cos(th), np.sin(th)])
    return np.mean(fn(t))


def diamond_oracle(g):
    """Independent oracle: <(theta . G J theta)^2> over the circle."""
    return circle_average(lambda t: np.einsum('in,ij,jn->n', t, g, t2.J @ t) ** 2)


def bullet_oracle(t):
    """Independent oracle: <(T . theta theta Jtheta)^2> over the circle."""
    return circle_average(
        lambda u: np.einsum('abc,bn,cn,an->n', t, u, u, t2.J @ u) ** 2)


class TestAdjugate:
    def test_identity(self):
        assert np.array_equal(t2.adjugate(np.eye(2)), np.eye(2))

    def test_coordinates(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(t2.adjugate(f), [[4.0, -2.0], [-3.0, 1.0]])

    def test_product_is_det_times_identity(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(f @ t2.adjugate(f), -2.0 * np.eye(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_polynomial_identity_random(self, seed):
        f = np.random.default_rng(seed).standard_normal((2, 2))
        assert np.allclose(f @ t2.adjugate(f), t2.det(f) * np.eye(2), atol=1e-12)

    def test_adjugate_preserves_frobenius_norm(self):
        f = np.random.default_rng(5).standard_normal((7, 2, 2))
        assert np.allclose(t2.frobenius(t2.adjugate(f)), t2.frobenius(f))


class TestDiamond:
    def test_basis_diagonal_exact(self):
        for m in range(4):
            for n in range(4):
                v = t2.diamond(t2.ENDO_BASIS[m], t2.ENDO_BASIS[n])
                assert v == (t2.DIAMOND_DIAG[m] if m == n else 0.0)

    def test_skew_direction_normalization(self):
        assert t2.diamond(t2.J) == 1.0

    def test_isotropic_null_for_any_partner(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((100, 2, 2))
        assert np.max(np.abs(t2.diamond(np.eye(2), g))) == 0.0

    def test_rank_one_eighth(self):
        # e^1 (x) e_1 paired with itself: 1/4 - 1/8 = 1/8
        g = t2.vec_pair([1.0, 0.0], [1.0, 0.0])
        assert t2.diamond(g) == 0.125

    def test_matches_circle_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = rng.standard_normal((2, 2))
            assert t2.diamond(g) == pytest.approx(diamond_oracle(g), abs=1e-12)

    def test_nonnegative(self):
        g = np.random.default_rng(4).standard_normal((10_000, 2, 2))
        assert np.min(t2.diamond(g)) >= -1e-14

    def test_transpose_invariance(self):
        g = np.random.default_rng(6).standard_normal((200, 2, 2))
        assert np.allclose(t2.diamond(g), t2.diamond(np.swapaxes(g, -2, -1)), atol=1e-13)

    @given(st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, theta, seed):
        g = np.random.default_rng(seed).standard_normal((2, 2))
        q = t2.rotation(theta)
        assert t2.diamond(t2.act_endo(q, g)) == pytest.approx(t2.diamond(g), abs=1e-12)

    def test_operator_norm_sharp(self):
        # extremal on the skew direction J / sqrt(2)
        assert t2.DIAMOND_OPNORM == pytest.approx(t2.diamond(t2.J) / t2.frobenius(t2.J) ** 2)
        g = np.random.default_rng(7).standard_normal((5000, 2, 2))
        assert np.all(t2.diamond(g) <= t2.DIAMOND_OPNORM * t2.frobenius(g) ** 2 + 1e-12)


class TestBullet:
    def test_basis_diagonal_exact(self):
        for m in range(6):
            for n in range(6):
                v = t2.bullet(t2.TRI_BASIS[m], t2.TRI_BASIS[n])
                assert v == (t2.BULLET_DIAG[m] if m == n else 0.0)

    def test_null_directions_for_any_partner(self):
        rng = np.random.default_rng(8)
        t = t2.sym_last_two(rng.standard_normal((100, 2, 2, 2)))
        assert np.max(np.abs(t2.bullet(t2.TRI_BASIS[4], t))) < 1e-14
        assert np.max(np.abs(t2.bullet(t2.TRI_BASIS[5], t))) < 1e-14

    def test_elementary_value(self):
        t = t2.tri_pair([1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        assert t2.bullet(t) == 0.0625

    def test_matches_circle_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            t = t2.sym_last_two(rng.standard_normal((2, 2, 2)))
            assert t2.bullet(t) == pytest.approx(bullet_oracle(t), abs=1e-12)

    def test_nonnegative(self):
        t = np.random.default_rng(10).standard_normal((10_000, 2, 2, 2))
        assert np.min(t2.bullet(t)) >= -1e-14

    @given(st.floats(-10.0, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rotation_invariance(self, theta, seed):
        t = np.random.default_rng(seed).standard_normal((2, 2, 2))
        q = t2.rotation(theta)
        assert t2.bullet(t2.act_tri(q, t)) == pytest.approx(t2.bullet(t), abs=1e-12)

    def test_permutation_symmetry(self):
        # (xi x e_i x e_j) . (xi' x e_k x e_l) depends only on the multiset {i,j,k,l}
        from itertools import permutations, product
        rng = np.random.default_rng(11)
        xi, xi2 = rng.standard_normal(2), rng.standard_normal(2)
        for idx in product(range(2), repeat=4):
            i, j, k, l = idx
            base = t2.bullet(t2.tri_pair(xi, np.eye(2)[i], np.eye(2)[j]),
                             t2.tri_pair(xi2, np.eye(2)[k], np.eye(2)[l]))
            for p in permutations(idx):
                v = t2.bullet(t2.tri_pair(xi, np.eye(2)[p[0]], np.eye(2)[p[1]]),
                              t2.tri_pair(xi2, np.eye(2)[p[2]], np.eye(2)[p[3]]))
                assert v == pytest.approx(base, abs=1e-13)

    def test_aux_combinations(self):
        assert np.array_equal(t2.TRI_AUX7, t2.TRI_BASIS[4] - 2.0 * t2.TRI_BASIS[2])
        assert np.array_equal(t2.TRI_AUX8, t2.TRI_BASIS[5] - 2.0 * t2.TRI_BASIS[3])
        assert t2.bullet(t2.TRI_AUX7) + t2.bullet(t2.TRI_AUX8) == 4.0

    def test_operator_norm(self):
        assert t2.BULLET_OPNORM == pytest.approx(0.375, abs=1e-12)
        t = np.random.default_rng(12).standard_normal((5000, 2, 2, 2))
        t = t2.sym_last_two(t)
        norm2 = np.sum(t * t, axis=(-3, -2, -1))
        assert np.all(t2.bullet(t) <= t2.BULLET_OPNORM * norm2 + 1e-12)


class TestBasisExpand:
    def test_standard_elements(self):
        c = t2.basis_expand(4.0 * t2.tri_pair([1, 0], [1, 0], [1, 0]))
        assert np.array_equal(c, [-1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def test_basis_element_is_unit_vector(self):
        c = t2.basis_expand(t2.TRI_BASIS[1])
        assert np.array_equal(c, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_aux7_expansion(self):
        assert np.array_equal(t2.basis_expand(t2.TRI_AUX7), [0, 0, -2.0, 0, 1.0, 0])

    def test_roundtrip_exact_on_dyadic_input(self):
        rng = np.random.default_rng(13)
        t = t2.sym_last_two(np.round(rng.standard_normal((40, 2, 2, 2)) * 64) / 64)
        c = t2.basis_expand(t)
        recon = np.einsum('...n,nabc->...abc', c, t2.TRI_BASIS)
        assert np.array_equal(recon, t)

    def test_rejects_non_symmetric(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            t2.basis_expand(bad)


class TestContractionIdentities:
    def test_report_on_random_inputs(self):
        rep = t2.contract_identities(np.random.default_rng(0), n_samples=10_000)
        assert rep["max_abs_deviation"] < 1e-12

    def test_identity_input_value(self):
        # G = id: sum_ij diamond(e^i x e_j) = |id|^2 / 2 = 1
        acc = sum(
            t2.diamond(np.einsum('b,a->ba', np.eye(2)[j], np.eye(2)[i]))
            for i in range(2) for j in range(2))
        assert acc == pytest.approx(1.0, abs=1e-15)

    def test_unit_vector_rank_one(self):
        g = t2.vec_pair(np.array([1.0, 0.0]), [1.0, 0.0])
        assert t2.diamond(g) == 0.125
