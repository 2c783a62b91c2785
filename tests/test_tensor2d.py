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
        g = np.outer([1.0, 0.0], [1.0, 0.0])
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
        q = np.cos(theta) * np.eye(2) + np.sin(theta) * t2.J
        assert t2.diamond(q @ g @ q.T) == pytest.approx(t2.diamond(g), abs=1e-12)

    def test_operator_norm_sharp(self):
        # sharp constant 1/2, attained on the skew direction J / sqrt(2)
        assert t2.diamond(t2.J) / t2.frobenius(t2.J) ** 2 == pytest.approx(0.5)
        g = np.random.default_rng(7).standard_normal((5000, 2, 2))
        assert np.all(t2.diamond(g) <= 0.5 * t2.frobenius(g) ** 2 + 1e-12)


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
        # e^1 (x) e_1 (x) e_1 paired with itself: 1/16
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
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
        q = np.cos(theta) * np.eye(2) + np.sin(theta) * t2.J
        rotated = np.einsum('ai,bj,ck,ijk->abc', q, q, q, t)
        assert t2.bullet(rotated) == pytest.approx(t2.bullet(t), abs=1e-12)

    def test_permutation_symmetry(self):
        # (xi x e_i x e_j) . (xi' x e_k x e_l) depends only on the multiset {i,j,k,l}
        from itertools import permutations, product
        rng = np.random.default_rng(11)
        xi, xi2 = rng.standard_normal(2), rng.standard_normal(2)
        e = np.eye(2)
        for idx in product(range(2), repeat=4):
            vals = [t2.bullet(np.einsum('a,b,c->abc', xi, e[i], e[j]),
                              np.einsum('a,b,c->abc', xi2, e[k], e[l]))
                    for (i, j, k, l) in permutations(idx)]
            assert np.allclose(vals, vals[0], rtol=0.0, atol=1e-13)

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
        # 4 e^1 (x) e_1 (x) e_1 = -T1 + T3 + T5 in the rotation-adapted basis
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 4.0
        recon = np.tensordot([-1.0, 0.0, 1.0, 0.0, 1.0, 0.0], t2.TRI_BASIS, axes=1)
        assert np.array_equal(recon, t)


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
        xdot = np.array([1.0, 0.0])
        assert t2.diamond(np.outer(xdot, xdot)) == 0.125
