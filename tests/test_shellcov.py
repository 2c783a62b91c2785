"""Driver covariance construction vs the algebra layer and quadrature oracles."""

import numpy as np
import pytest
from scipy import integrate

from scalehom import proxysde, shellcov, tensor2d


def circle_moment_oracle(p, q, n=20001):
    th = np.linspace(0.0, 2.0 * np.pi, n)
    vals = np.cos(th) ** p * np.sin(th) ** q
    return integrate.simpson(vals, x=th) / (2.0 * np.pi)


def grad_weights(g):
    """Contraction weights of an observable G against the flat grad components."""
    w = np.empty(4)
    for idx, (c, a) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        w[idx] = g[a, c]
    return w


def hess_weights(t):
    """Contraction weights of a symmetric observable against canonical Hessian comps."""
    t = tensor2d.sym_last_two(t)
    return np.array([t[0, 0, 0], 2 * t[0, 0, 1], t[0, 1, 1],
                     t[1, 0, 0], 2 * t[1, 0, 1], t[1, 1, 1]])


class TestAngularMoments:
    def test_known_values(self):
        assert shellcov.angular_moment(2, 0) == 0.5
        assert shellcov.angular_moment(4, 0) == 0.375
        assert shellcov.angular_moment(2, 2) == 0.125
        assert shellcov.angular_moment(3, 1) == 0.0
        assert shellcov.angular_moment(6, 0) == 0.3125
        assert shellcov.angular_moment(4, 2) == 0.0625

    def test_matches_quadrature_oracle(self):
        for p in range(7):
            for q in range(7 - p):
                assert shellcov.angular_moment(p, q) == pytest.approx(
                    circle_moment_oracle(p, q), abs=1e-12)

    def test_degree_rejected(self):
        with pytest.raises(ValueError):
            shellcov.angular_moment(4, 4)


class TestScaleGrid:
    """The lam2 grid whose steps the shell covariances are integrated over."""

    def test_uniform_grid(self):
        g = proxysde.SdeConfig(eps=0.2, lambda2_max=4.0, n_steps=10, n_traj=1).grid()
        assert g[0] == 1.0
        assert g[-1] == pytest.approx(4.0)
        assert np.allclose(np.diff(g), 0.3)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            proxysde.SdeConfig(eps=0.2, lambda2_max=1.0, n_steps=10, n_traj=1)
        with pytest.raises(ValueError):
            proxysde.SdeConfig(eps=0.2, lambda2_max=4.0, n_steps=0, n_traj=1)


class TestBuildCov:
    def test_dphi_block_isotropic(self):
        cov = shellcov.build_cov(1.7)
        assert np.array_equal(cov.matrix[:2, :2], np.eye(2) / (2 * 1.7))

    def test_skew_direction_variance(self):
        # the variance of the d_1 dphi^2 - d_2 dphi^1 combination is 1/lam2,
        # matching the normalization of the stream increment it reconstructs
        cov = shellcov.build_cov(2.3)
        w = grad_weights(tensor2d.J)
        assert w @ cov.matrix[2:6, 2:6] @ w == pytest.approx(1.0 / 2.3, rel=1e-14)

    def test_c11_reproduces_diamond(self):
        cov = shellcov.build_cov(1.9)
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = rng.standard_normal((2, 2))
            qf = grad_weights(g) @ cov.matrix[2:6, 2:6] @ grad_weights(g)
            assert qf == pytest.approx(tensor2d.diamond(g) / 1.9, abs=1e-12)

    def test_c22_reproduces_bullet(self):
        cov = shellcov.build_cov(1.9)
        c22_resc = cov.matrix[6:12, 6:12]
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = rng.standard_normal((2, 2, 2))
            qf = hess_weights(t) @ c22_resc @ hess_weights(t)
            assert qf == pytest.approx(tensor2d.bullet(t) / 1.9, abs=1e-12)

    def test_parity_blocks_vanish(self):
        cov = shellcov.build_cov(1.5)
        assert np.all(cov.matrix[0:2, 2:6] == 0.0)
        assert np.all(cov.matrix[2:6, 6:12] == 0.0)

    def test_c02_entry(self):
        cov = shellcov.build_cov(1.5)
        # Cov(dphi^1, d1 d1 dphi^1) = -<t1^2 t2^2>/lam2 = -1/(8 lam2)
        assert cov.matrix[0, 6] == pytest.approx(-1.0 / (8.0 * 1.5), rel=1e-14)

    def test_c02_matches_annulus_quadrature_oracle(self):
        lam2 = 1.7
        cov = shellcov.build_cov(lam2)
        # oracle: spectral integrand -eps^2 k_a k_b (Jk)^c (Jk)^d / (lam2 |k|^6)
        # integrated over a thin annulus, divided by dlam2 = eps^2 * delta
        r_mid, delta = 0.37, 1e-4
        rs = np.linspace(r_mid * np.exp(-delta / 2), r_mid * np.exp(delta / 2), 41)
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        tt = np.stack([np.cos(th), np.sin(th)])
        jt = tensor2d.J @ tt
        radial = integrate.simpson(1.0 / rs, x=rs)
        for c in range(2):
            for col, (d, a, b) in enumerate(tensor2d.HESS_SLOTS):
                ang = np.mean(tt[a] * tt[b] * jt[c] * jt[d])
                oracle = -ang * radial / (lam2 * delta)
                assert cov.matrix[c, 6 + col] == pytest.approx(oracle, abs=1e-8)

    def test_psd_and_rank(self):
        cov = shellcov.build_cov(3.0)
        w, _ = cov.eigensystem()
        assert w[0] >= 0.0
        raw = np.linalg.eigvalsh(cov.matrix)
        assert raw[0] >= -1e-12 * raw[-1]
        # five structural ties: trace-free gradient, two degenerate Hessian
        # contractions, and the two Laplacian ties between Hessian trace and
        # dphi leave rank 7
        assert np.sum(raw > 1e-10 * raw[-1]) == 7

    def test_hessian_trace_ties_back_to_dphi(self):
        # on an infinitesimal shell the Laplacian of the driver is -dphi/L^2,
        # so the rescaled combination tr_hess(c) + dphi(c) has zero variance
        c0 = shellcov.unit_matrix()
        for c in range(2):
            w = np.zeros(12)
            w[c] = 1.0
            w[6 + 3 * c] = 1.0
            w[6 + 3 * c + 2] = 1.0
            assert abs(w @ c0 @ w) < 1e-14

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shellcov.build_cov(0.5)


class TestIntegratedShell:
    def test_skew_component_accumulates_log(self):
        # contracted with the skew observable twice, the per-unit gradient
        # covariance is 1/x; its integral over a macroscopic range is log
        x1, x2 = 1.5, 7.0
        w = grad_weights(tensor2d.J)
        val, _ = integrate.quad(
            lambda x: w @ shellcov.build_cov(x).matrix[2:6, 2:6] @ w, x1, x2, epsabs=1e-12)
        assert val == pytest.approx(np.log(x2 / x1), abs=1e-10)


class TestSampling:
    def test_mean_and_trace(self):
        cov = shellcov.build_cov(1.4)
        rng = np.random.default_rng(2)
        vec = shellcov.gaussian_from_factor(np.sqrt(0.01) * cov.factor(),
                                           rng.standard_normal((200_000, shellcov.RANK)))
        assert vec.shape == (200_000, 12)
        # the gradient trace v2 + v5 is a null direction of the law: what is
        # left there is the square root of a rounding-level eigenvalue
        sd = np.sqrt(np.diag(cov.matrix) * 0.01)
        assert np.max(np.abs(vec[:, 2] + vec[:, 5])) < 1e-6 * sd[2]
        for j, s in enumerate(sd):
            assert abs(np.mean(vec[:, j])) < 5 * s / np.sqrt(len(vec))

    def test_empirical_covariance(self):
        cov = shellcov.build_cov(1.4)
        rng = np.random.default_rng(3)
        n, d = 1_000_000, 0.01
        target = cov.matrix * d
        xtx = np.zeros((12, 12))
        for _ in range(10):
            vec = shellcov.gaussian_from_factor(np.sqrt(d) * cov.factor(),
                                               rng.standard_normal((n // 10, shellcov.RANK)))
            xtx += vec.T @ vec
        emp = xtx / n
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
        gap = np.abs(emp - target)
        assert np.all(gap <= 5.0 * se + 1e-30)

    def test_disjoint_shell_draws_independent(self):
        cov = shellcov.build_cov(1.4)
        rng = np.random.default_rng(4)
        a, b = (shellcov.gaussian_from_factor(
            cov.factor(), rng.standard_normal((100_000, shellcov.RANK))) for _ in range(2))
        sd = np.sqrt(np.diag(cov.matrix))
        live = sd > 0
        cross = (a.T @ b)[np.ix_(live, live)] / 100_000
        bound = 5.0 * np.outer(sd[live], sd[live]) / np.sqrt(100_000)
        assert np.all(np.abs(cross) <= bound)

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 16384])
    def test_blocked_product_bit_identical(self, n):
        fac = shellcov.step_covariance(1.3, 1.35, 0.3).factor()
        z = np.random.default_rng(n).standard_normal((n, shellcov.RANK))
        out = np.full((n, 12), np.nan)
        assert shellcov.gaussian_from_factor(fac, z, out) is out
        assert np.array_equal(out, z @ fac.T)

    @pytest.mark.parametrize("eps, lambda2_max, n_steps",
                             [(0.2, 4.0, 400), (0.2, 25.0, 1200)])
    def test_rank_factor_reproduces_step_law(self, eps, lambda2_max, n_steps):
        # the sde-run and deep_tail grids: the RANK kept directions carry
        # the whole law at the first, middle and last steps
        x = proxysde.SdeConfig(eps=eps, lambda2_max=lambda2_max, n_steps=n_steps,
                               n_traj=1).grid()
        for i in (0, n_steps // 2, n_steps - 1):
            cov = shellcov.step_covariance(x[i], x[i + 1], eps)
            fac = cov.factor()
            assert fac.shape == (12, shellcov.RANK)
            gap = np.max(np.abs(fac @ fac.T - cov.matrix))
            assert gap <= 1e-14 * np.max(np.abs(cov.matrix)), i

    def test_rank_cut_of_a_full_rank_law_raises(self):
        cov = shellcov.DriverCovariance(2.0, np.diag(np.linspace(1.0, 2.0, 12)))
        with pytest.raises(FloatingPointError,
                           match=r"dropped eigenvalue 1\.182e\+00 .* at lam2 = 2\.0"):
            cov.factor()

    def test_rejects_bad_step(self):
        # the step law is where a non-positive step is caught, also as one
        # bad step among good ones
        for x_lo, x_hi in ((1.4, 1.4), (1.4, 1.3), ([1.0, 1.2, 1.4], [1.2, 1.4, 1.4])):
            with pytest.raises(ValueError, match="need 1 <= x_lo < x_hi"):
                shellcov.step_covariance(np.array(x_lo), np.array(x_hi), 0.35)


class TestStepCovariance:
    def test_matches_quadrature_oracle(self):
        x_lo, x_hi, eps = 1.3, 1.45, 0.35
        got = shellcov.step_covariance(x_lo, x_hi, eps)
        c0 = shellcov.unit_matrix()

        def weight(block, s):
            if block == 0:
                return np.exp((s - x_hi) / eps ** 2)
            if block == 2:
                return np.exp(-(s - x_lo) / eps ** 2)
            return 1.0

        block = np.repeat([0, 1, 2], [2, 4, 6])
        for i in range(12):
            for j in range(i, 12):
                if c0[i, j] == 0.0:
                    assert got.matrix[i, j] == 0.0
                    continue
                val, _ = integrate.quad(
                    lambda s: weight(block[i], s) * weight(block[j], s) / s,
                    x_lo, x_hi, epsabs=1e-14, epsrel=1e-13)
                assert got.matrix[i, j] == pytest.approx(c0[i, j] * val, rel=1e-11)

    def test_reduces_to_rate_for_small_steps(self):
        x, eps, d = 2.0, 0.5, 1e-7
        step = shellcov.step_covariance(x, x + d, eps).matrix
        rate = shellcov.build_cov(x).matrix * d
        assert np.allclose(step, rate, rtol=1e-5, atol=1e-20)

    def test_large_step_stays_finite_and_psd(self):
        got = shellcov.step_covariance(1.0, 25.0, 0.1)
        w, _ = got.eigensystem()
        assert np.all(np.isfinite(got.matrix)) and w[0] >= 0.0


class TestBatchedStepLaw:
    """Arrays of step edges give the stack of the per-step laws."""

    @pytest.mark.parametrize("weighting", ["exact", "midpoint-frozen"])
    def test_stack_equals_scalar_calls_bit_for_bit(self, weighting):
        # the deep_tail grid, as run_ensemble builds its steps
        eps = 0.2
        x = proxysde.SdeConfig(eps=eps, lambda2_max=25.0, n_steps=1200, n_traj=1).grid()
        lo, hi = x[:-1], x[1:]
        frozen = 0.5 * (lo + hi) if weighting == "midpoint-frozen" else None
        stack = shellcov.step_covariance(lo, hi, eps, frozen_lambda2=frozen)
        fac = stack.factor()
        assert stack.matrix.shape == (1200, 12, 12)
        assert fac.shape == (1200, 12, shellcov.RANK)
        for i in range(1200):
            one = shellcov.step_covariance(
                lo[i], hi[i], eps, frozen_lambda2=None if frozen is None else frozen[i])
            assert np.array_equal(stack.matrix[i], one.matrix), i
            assert np.array_equal(fac[i], one.factor()), i

    def test_errors_name_the_first_bad_step(self):
        x = np.linspace(1.0, 2.0, 11)
        mat = shellcov.step_covariance(x[:-1], x[1:], 0.3).matrix.copy()
        full_rank = mat.copy()
        full_rank[4] = full_rank[7] = np.diag(np.linspace(1.0, 2.0, 12))
        with pytest.raises(FloatingPointError,
                           match=rf"dropped eigenvalue .* at lam2 = {float(x[4])!r}$"):
            shellcov.DriverCovariance(x[:-1], full_rank).factor()
        not_psd = mat.copy()
        not_psd[6, 0, 0] = not_psd[8, 0, 0] = -1.0
        with pytest.raises(FloatingPointError,
                           match=rf"not PSD: .* at lam2 = {float(x[6])!r}$"):
            shellcov.DriverCovariance(x[:-1], not_psd).eigensystem()
