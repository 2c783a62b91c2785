"""Trajectory stepping, ensemble moments, and scheme-convergence checks."""

import functools
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scalehom import momentodes, proxysde, shellcov, tensor2d


def zero_planes(n):
    return shellcov.components_to_fields(np.zeros((n, 12)))


class TestStep:
    def test_zero_increment_leaves_raw_state_unchanged(self):
        rng = np.random.default_rng(0)
        phi, f = rng.standard_normal((2, 5)), rng.standard_normal((2, 2, 5))
        phi0, f0 = phi.copy(), f.copy()
        eps, d = 0.3, 0.02
        proxysde.euler_update(phi, f, zero_planes(5), np.exp(-d / eps ** 2))
        assert np.array_equal(f, f0)
        # stored phi is phi/L; the raw corrector is unchanged up to rounding
        raw_old = phi0  # common factor exp(lnL_old) cancels in the ratio
        raw_new = phi * np.exp(d / eps ** 2)
        assert np.allclose(raw_new, raw_old, rtol=1e-14)

    def test_zero_phi_reduces_to_driver_terms(self):
        rng = np.random.default_rng(1)
        phi, _ = proxysde._initial_planes(4)
        f0 = rng.standard_normal((2, 2, 4))
        f = f0.copy()
        fac = shellcov.step_covariance(1.0, 1.01, 0.5).factor()
        vec = shellcov.gaussian_from_factor(fac, rng.standard_normal((4, shellcov.RANK)))
        inc = shellcov.components_to_fields(vec)
        proxysde.euler_update(phi, f, inc, np.exp(-0.01 / 0.25))
        grad = np.array([[inc[2], inc[3]], [inc[4], -inc[2]]])
        assert np.allclose(f, f0 + np.einsum("cin,ijn->cjn", grad, f0), atol=1e-15)
        assert np.allclose(phi, inc[:2], atol=1e-15)

    def test_exp_mode_determinant_of_single_step(self):
        # from the identity, det(id + grad) = 1 + det(grad) for trace-free grad,
        # and E det(grad) = 0 by determinant harmonicity: ensemble mean is 1
        rng = np.random.default_rng(2)
        n = 1_000_000
        fac = shellcov.step_covariance(1.0, 1.05, 0.5).factor()
        vec = shellcov.gaussian_from_factor(fac, rng.standard_normal((n, shellcov.RANK)))
        inc = shellcov.components_to_fields(vec)
        phi, f = proxysde._initial_planes(n)
        proxysde.euler_update(phi, f, inc, np.exp(-0.05 / 0.25), full=False)
        det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
        g00, g01, g10 = inc[2:5]
        det_grad = -g00 * g00 - g01 * g10
        assert np.allclose(det, 1.0 + det_grad, atol=1e-12)
        se = det.std() / 1000.0
        assert abs(det.mean() - 1.0) < 5.0 * se

    def test_nonfinite_state_reported(self, monkeypatch):
        initial = proxysde._initial_planes

        def poisoned(n):
            phi, f = initial(n)
            f[:, :, 3] = np.inf
            return phi, f

        monkeypatch.setattr(proxysde, "_initial_planes", poisoned)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=4, n_traj=20, seed=0)
        with pytest.raises(FloatingPointError,
                           match=r"block 0: first bad trajectory 3, moment sums first "
                                 r"non-finite at lam2 = 1 \(grid step 0\)"):
            proxysde.run_ensemble(cfg)


class TestEnsemble:
    def test_initial_row(self):
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=5, n_traj=100, seed=0)
        s = proxysde.run_ensemble(cfg).series
        assert np.array_equal(s.means[0], [0, 0, 2, 4, 1, 1, 0, 0, 0])

    def test_determinism_across_worker_counts(self, monkeypatch):
        # 20,000 = 4 blocks of 4096 and a short last one of 3616
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 4096)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=2.0, n_steps=40, n_traj=20_000,
                                 seed=3, snapshot_points=(1.5, 2.0))
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # a ring slot reused too early shows
        results = []
        try:
            for n in (1, 2, 3):
                monkeypatch.setattr(proxysde, "draw_threads", lambda n=n: n)
                results.append(proxysde.run_ensemble(cfg))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        ref = results[0]
        for other in results[1:]:
            assert np.array_equal(ref.series.means, other.series.means)
            assert np.array_equal(ref.series.ses, other.series.ses)
            for pt in (1.5, 2.0):
                for key in ("f2", "det"):
                    assert np.array_equal(ref.snapshots[pt][key], other.snapshots[pt][key])

    def test_caller_counts_as_one_draw_thread(self, monkeypatch):
        # the pool opens one thread fewer than draw_threads(), none at 1
        workers = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(proxysde, "ThreadPoolExecutor", Recording)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=4, n_traj=100, seed=0)
        for n in (1, 2, 3):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=n: n)
            workers.clear()
            proxysde.run_ensemble(cfg)
            assert workers == ([] if n == 1 else [n - 1])

    def test_draw_threads_follow_the_affinity_mask(self, monkeypatch):
        # the CPUs this process may run on, capped at DRAW_AHEAD; the CPU
        # count stands in only where there is no affinity mask
        for cpus, drew in (({0}, 1), (set(range(8)), proxysde.DRAW_AHEAD)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c,
                                raising=False)
            assert proxysde.draw_threads() == drew
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, drew in ((1, 1), (8, proxysde.DRAW_AHEAD)):
            monkeypatch.setattr(os, "cpu_count", lambda c=cpus: c)
            assert proxysde.draw_threads() == drew

    def test_martingale_property_of_determinant(self):
        cfg = proxysde.SdeConfig(eps=0.25, lambda2_max=3.0, n_steps=150,
                                 n_traj=40_000, seed=4)
        s = proxysde.run_ensemble(cfg).series
        z = np.abs(s.column("det")[1:] - 1.0) / s.se("det")[1:]
        assert np.max(z) < 3.0

    def test_snapshot_capture(self):
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=2.0, n_steps=20, n_traj=5000,
                                 seed=5, snapshot_points=(1.5, 2.0))
        res = proxysde.run_ensemble(cfg)
        assert set(res.snapshots) == {1.5, 2.0}
        snap = res.snapshots[2.0]
        assert snap["f2"].shape == (5000,)
        assert snap["f2"].mean() == pytest.approx(res.series.column("f2")[-1])

    def test_standard_errors_match_two_pass_reference(self, monkeypatch):
        # one step in, the variance of |F|^2 and det F is tiny against their
        # squared means: a one-pass sumsq/n - mean^2 cancels there (about
        # 1e-11 relative off here), centred per-block sums do not
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 4096)
        x1, x2 = 1.0075, 1.015
        cfg = proxysde.SdeConfig(eps=0.2, lambda2_max=1.075, n_steps=10, n_traj=20_000,
                                 seed=3, snapshot_points=(x1, x2))
        res = proxysde.run_ensemble(cfg)
        for row, pt in ((1, x1), (2, x2)):
            snap = res.snapshots[pt]
            for name, v in (("f2", snap["f2"]), ("f4", snap["f2"] ** 2),
                            ("det", snap["det"]), ("det2", snap["det"] ** 2)):
                v = v.tolist()
                mean = math.fsum(v) / len(v)
                ref = math.sqrt(math.fsum((a - mean) ** 2 for a in v)
                                / (len(v) - 1) / len(v))
                assert res.series.se(name)[row] == pytest.approx(ref, rel=1e-13, abs=0), \
                    (name, row)

    def test_zero_amplitude_rejected(self):
        # lam2 = 1 + eps^2 ln L: at eps = 0 no scale is reached, and the
        # series would report ln L = 0 while lam2 grows
        for eps in (0.0, -0.2):
            with pytest.raises(ValueError, match="eps must be positive"):
                proxysde.SdeConfig(eps=eps, lambda2_max=3.0, n_steps=10, n_traj=50)

    def test_cross_block_insensitivity_of_tracked_moments(self, monkeypatch):
        # zeroing the dphi/Hessian covariation must not move the tracked
        # moments beyond statistical resolution: none of their evolution
        # equations involves it
        base = dict(eps=0.35, lambda2_max=2.5, n_steps=120, n_traj=60_000)
        a = proxysde.run_ensemble(proxysde.SdeConfig(seed=6, **base)).series
        step_covariance = shellcov.step_covariance

        def without_cross_block(*args, **kwargs):
            cov = step_covariance(*args, **kwargs)
            mat = cov.matrix.copy()
            mat[:2, 6:], mat[6:, :2] = 0.0, 0.0
            return shellcov.DriverCovariance(cov.lambda2, mat)

        monkeypatch.setattr(proxysde.shellcov, "step_covariance", without_cross_block)
        b = proxysde.run_ensemble(proxysde.SdeConfig(seed=7, **base)).series
        for name in ("phi2_resc", "f2", "f4", "det2"):
            z = (a.column(name)[-1] - b.column(name)[-1]) / np.hypot(
                a.se(name)[-1], b.se(name)[-1])
            assert abs(z) < 4.0, name

    def test_cost_independent_of_scale(self):
        # no spatial grid: a step costs the same at lam2 = 1 and lam2 = 20
        common = dict(eps=0.4, n_steps=60, n_traj=30_000, seed=8)
        t0 = time.perf_counter()
        proxysde.run_ensemble(proxysde.SdeConfig(lambda2_max=1.2, **common))
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        proxysde.run_ensemble(proxysde.SdeConfig(lambda2_max=21.0, **common))
        t_large = time.perf_counter() - t0
        assert t_large < 3.0 * t_small + 0.05

    def test_validation_rejects_bad_config(self):
        with pytest.raises(ValueError):
            proxysde.SdeConfig(eps=0.2, lambda2_max=0.9, n_steps=10, n_traj=10)
        with pytest.raises(ValueError):
            proxysde.SdeConfig(eps=0.2, lambda2_max=2.0, n_steps=0, n_traj=10)
        with pytest.raises(ValueError):
            proxysde.SdeConfig(eps=0.2, lambda2_max=2.0, n_steps=10, n_traj=10,
                               mode="heun")


def euler_reference(phi, f, inc, damp=1.0, full=True):
    """The Euler kernel as separate array expressions, one fresh array each."""
    def acc(c, a, x, b, y):
        t = a * x
        t += b * y
        t += c
        return t

    p0, p1 = phi[0, ...], phi[1, ...]
    f00, f01, f10, f11 = f[0, 0, ...], f[0, 1, ...], f[1, 0, ...], f[1, 1, ...]
    d0, d1, g00, g01, g10 = inc[:5]
    g11 = -g00
    new = [acc(f00, g00, f00, g01, f10), acc(f01, g00, f01, g01, f11),
           acc(f10, g10, f00, g11, f10), acc(f11, g10, f01, g11, f11)]
    if full:
        h000, h001, h011, h100, h101, h111 = inc[5:]
        new = [acc(new[0], h000, p0, h001, p1), acc(new[1], h001, p0, h011, p1),
               acc(new[2], h100, p0, h101, p1), acc(new[3], h101, p0, h111, p1)]
    q0, q1 = acc(p0, g00, p0, g01, p1), acc(p1, g10, p0, g11, p1)
    phi[0, ...], phi[1, ...] = damp * q0 + d0, damp * q1 + d1
    f[0, 0, ...], f[0, 1, ...], f[1, 0, ...], f[1, 1, ...] = new


def moments_reference(phi, f, out):
    """The moment kernel as separate array expressions, one fresh array each."""
    p0, p1 = phi.reshape(2, -1)
    f00, f01, f10, f11 = f.reshape(4, -1)
    out[0] = p0 * p0 + p1 * p1
    out[2] = f00 * f00 + f01 * f01 + f10 * f10 + f11 * f11
    out[4] = f00 * f11 - f01 * f10
    out[1], out[3], out[5], out[6] = out[0] ** 2, out[2] ** 2, out[4] ** 2, out[0] * out[2]
    d, r = f00 - f11, f01 - f10
    dp0, dp1, rp0, rp1 = d * p0, d * p1, r * p0, r * p1
    out[7] = ((dp1 + rp0) ** 2 + (dp0 + rp1) ** 2) / 16 \
        + ((f01 * p1) ** 2 + (f10 * p0) ** 2) / 4
    out[8] = ((rp0 - dp1) ** 2 + (rp1 - dp0) ** 2) / 16 \
        + ((f10 * p1) ** 2 + (f01 * p0) ** 2) / 4
    return out


#: batch shapes of the kernel references; "rows" is a 32-row view of a 256^2
#: plane, as field mode passes it
KERNEL_SHAPES = [(5,), (4096,), (16384,), (24, 24), "rows"]


def sampled_planes(shape, seed):
    """Component-major state and the sampler's 11 increment planes (strided
    views of its rows, as the proxy SDE passes them), or views of their first
    32 rows for ``shape == "rows"``."""
    full = (256, 256) if shape == "rows" else shape
    m = int(np.prod(full))
    rng = np.random.default_rng(seed)
    phi = 0.3 * rng.standard_normal((2, *full))
    f = rng.standard_normal((2, 2, *full))
    fac = shellcov.step_covariance(1.0, 1.05, 0.5).factor()
    vec = shellcov.gaussian_from_factor(fac, rng.standard_normal((m, shellcov.RANK)))
    inc = shellcov.components_to_fields(vec.reshape(*full, 12))
    if shape == "rows":
        rows = slice(0, 32)
        return phi[:, rows], f[:, :, rows], [p[rows] for p in inc]
    return phi, f, inc


def random_state_and_increment(shape, seed):
    """Trailing-component state and increment arrays; trace-free gradient,
    Hessian symmetric in its derivative slots."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(shape + (2,))
    f = rng.standard_normal(shape + (2, 2))
    dphi = 0.1 * rng.standard_normal(shape + (2,))
    grad = 0.1 * rng.standard_normal(shape + (2, 2))
    grad[..., 1, 1] = -grad[..., 0, 0]
    hess = 0.1 * rng.standard_normal(shape + (2, 2, 2))
    hess = hess + np.swapaxes(hess, -1, -2)
    return phi, f, dphi, grad, hess


def lead(a, k):
    return np.ascontiguousarray(np.moveaxis(a, tuple(range(-k, 0)), tuple(range(k))))


class TestKernels:
    @pytest.mark.parametrize("shape", [(500,), (24, 24)])
    @pytest.mark.parametrize("damp", [0.7, 1.0])
    @pytest.mark.parametrize("mode", ["full", "exp"])
    def test_euler_update_matches_einsum_reference(self, shape, damp, mode):
        phi, f, dphi, grad, hess = random_state_and_increment(shape, 3)
        ref_f = f + np.einsum("...ci,...ij->...cj", grad, f)
        if mode == "full":
            ref_f = ref_f + np.einsum("...cji,...i->...cj", hess, phi)
        ref_phi = damp * (phi + np.einsum("...ci,...i->...c", grad, phi)) + dphi
        phi_cm, f_cm = lead(phi, 1), lead(f, 2)
        planes = proxysde.increment_planes(lead(dphi, 1), lead(grad, 2), lead(hess, 3))
        proxysde.euler_update(phi_cm, f_cm, planes, damp, mode == "full")
        np.testing.assert_allclose(f_cm, lead(ref_f, 2), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(phi_cm, lead(ref_phi, 1), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("damp", [0.7, 1.0])
    @pytest.mark.parametrize("mode", ["full", "exp"])
    def test_euler_update_bitwise_equals_fresh_array_form(self, shape, damp, mode):
        phi, f, inc = sampled_planes(shape, 6)
        ref_phi, ref_f = phi.copy(), f.copy()
        euler_reference(ref_phi, ref_f, inc, damp, mode == "full")
        proxysde.euler_update(phi, f, inc, damp, mode == "full")
        assert np.array_equal(phi, ref_phi) and np.array_equal(f, ref_f)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_moment_planes_bitwise_equal_fresh_array_form(self, shape):
        phi, f, _ = sampled_planes(shape, 7)
        m = int(np.prod(phi.shape[1:]))
        got = proxysde.moment_planes(phi, f, np.empty((9, m)))
        assert np.array_equal(got, moments_reference(phi, f, np.empty((9, m))))

    @pytest.mark.parametrize("kernel", ["euler_update", "moment_planes"])
    def test_kernel_transient_memory_at_most_six_planes(self, kernel):
        n = 16384
        phi, f, inc = sampled_planes((n,), 8)
        out = np.empty((9, n))
        call = {"euler_update": lambda: proxysde.euler_update(phi, f, inc, 0.7),
                "moment_planes": lambda: proxysde.moment_planes(phi, f, out)}[kernel]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n * 8, peak / (n * 8)

    def test_gradient_with_trace_rejected(self):
        grad = np.zeros((2, 2, 1))
        grad[0, 0] = 1e-3
        with pytest.raises(ValueError, match="trace free"):
            proxysde.increment_planes(np.zeros((2, 1)), grad, np.zeros((2, 2, 2, 1)))

    def test_sampled_planes_match_unpacked_increment(self):
        vec = np.random.default_rng(4).standard_normal((300, 12))
        d0, d1, g00, g01, g10, *h = shellcov.components_to_fields(vec)
        assert np.array_equal(d1, vec[:, 1]) and np.array_equal(g10, vec[:, 4])
        assert np.array_equal(g00, 0.5 * (vec[:, 2] - vec[:, 5]))
        assert np.array_equal(np.stack(h, axis=-1), vec[:, 6:])

    def test_moment_planes_match_bullet_form(self):
        phi, f, *_ = random_state_and_increment((2000,), 5)
        m = proxysde.moment_planes(lead(phi, 1), lead(f, 2), np.empty((9, 2000)))
        p2 = np.sum(phi ** 2, axis=-1)
        f2 = np.sum(f ** 2, axis=(-2, -1))
        det = tensor2d.det(f)
        adj_t = np.swapaxes(tensor2d.adjugate(f), -1, -2)
        closure = [tensor2d.bullet(np.einsum("...ab,...c->...abc", mat, phi))
                   for mat in (f, adj_t)]
        expect = [p2, p2 ** 2, f2, f2 ** 2, det, det ** 2, p2 * f2, *closure]
        for row, (got, want) in enumerate(zip(m, expect)):
            np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=str(row))

    def test_ensemble_row_pinned(self, monkeypatch):
        # the final row of a small seeded run; a change of the random stream,
        # of the update or of the moment formulas moves it beyond 1e-12
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 1024)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=2.0, n_steps=20, n_traj=3000,
                                 seed=12)
        s = proxysde.run_ensemble(cfg).series
        np.testing.assert_allclose(s.means[-1], PINNED_MEANS, rtol=1e-12)
        np.testing.assert_allclose(s.ses[-1], PINNED_SES, rtol=1e-12)


PINNED_MEANS = [0.02340310562447992, 0.0010823589154402764, 2.8340011918393238,
                8.866739257957219, 1.0012801913765088, 1.0082155320168191,
                0.06613555241400278, 0.003344704501334502, 0.0033638326481628743]
PINNED_SES = [0.00042222894257723216, 4.329574761393518e-05, 0.016687869722310084,
              0.13637301525270637, 0.0013730010324924829, 0.0028025567755880073,
              0.001285844661460101, 0.0001073133897053708, 0.00011282217506411762]


class TestNonFiniteReport:
    def test_overflowing_phi_named_in_exp_mode(self, monkeypatch):
        # exp mode: F never sees phi, so only phi overflows; it first makes
        # the moment sums non-finite at grid step 2 (|phi|^2 overflows)
        prepare = proxysde._prepare_steps

        def inflated(cfg):
            x, factors, damps = prepare(cfg)
            return x, factors, damps * 1e200

        monkeypatch.setattr(proxysde, "_prepare_steps", inflated)
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 64)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=8, n_traj=200,
                                 seed=1, mode="exp")
        x = cfg.grid()
        with pytest.raises(FloatingPointError,
                           match=rf"block 0: first bad trajectory 0, moment sums first "
                                 rf"non-finite at lam2 = {x[2]:.17g} \(grid step 2\)"):
            proxysde.run_ensemble(cfg)

    def test_poisoned_trajectory_named(self, monkeypatch):
        real = proxysde.stream

        class Poisoned:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, size, out=None):
                z = self.gen.standard_normal(size, out=out)
                z[37] = np.nan
                return z

        def stream(seed, name, block, counter):
            gen = real(seed, name, block, counter=counter)
            return Poisoned(gen) if (block, counter) == (1, 4) else gen

        monkeypatch.setattr(proxysde, "stream", stream)
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 64)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=8, n_traj=200,
                                 seed=1)
        x = cfg.grid()
        with pytest.raises(FloatingPointError,
                           match=rf"block 1: first bad trajectory 101, moment sums first "
                                 rf"non-finite at lam2 = {x[5]:.17g} \(grid step 5\)"):
            proxysde.run_ensemble(cfg)

    def test_same_report_and_no_thread_left_for_any_workers(self, monkeypatch):
        # a NaN drawn by a pool thread is reported as the inline draw reports
        # it, and the draw threads are gone after the raise
        real = proxysde.stream

        def stream(seed, name, block, counter):
            gen = real(seed, name, block, counter=counter)
            if (block, counter) != (2, 3):
                return gen

            class Poisoned:
                def standard_normal(self, size, out=None):
                    z = gen.standard_normal(size, out=out)
                    z[5] = np.nan
                    return z
            return Poisoned()

        monkeypatch.setattr(proxysde, "stream", stream)
        monkeypatch.setattr(proxysde, "BLOCK_SIZE", 64)
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=8, n_traj=200, seed=1)
        threads = threading.active_count()
        messages = []
        for n in (1, 2):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=n: n)
            with pytest.raises(FloatingPointError) as info:
                proxysde.run_ensemble(cfg)
            assert threading.active_count() == threads
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "block 2: first bad trajectory 133" in messages[0]


class TestMomentSeriesView:
    def test_jensen_guard(self):
        cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.6, n_steps=12, n_traj=4000, seed=10)
        s = proxysde.run_ensemble(cfg).series
        assert np.all(s.column("det2") >= s.column("det") ** 2 - 1e-12)
        assert np.all(s.column("phi4_resc") >= s.column("phi2_resc") ** 2 - 1e-15)


    def test_validate_rejects_nan(self):
        nan = np.full((2, 9), np.nan)
        s = proxysde.MomentSeries(0.2, np.array([1.0, 2.0]), 10, nan, nan.copy())
        with pytest.raises(FloatingPointError):
            s.validate()


class TestTruncatedMoment:
    def test_limits(self):
        samples = np.random.default_rng(0).lognormal(0.0, 1.0, 20_000)
        assert proxysde.truncated_second_moment(samples, 1e9) == 1.0
        assert proxysde.truncated_second_moment(samples, 1e-9) == 0.0

    def test_monotone_in_threshold(self):
        samples = np.random.default_rng(1).lognormal(0.0, 1.0, 20_000)
        vals = [proxysde.truncated_second_moment(samples, r) for r in (0.1, 0.5, 1.0, 3.0)]
        assert np.all(np.diff(vals) >= 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            proxysde.truncated_second_moment(np.array([]), 1.0)


def exact_second_moments(cfg):
    """Final E|phi/L|^2, E|F|^2 and E det F of the Euler scheme of
    ``run_ensemble`` for ``cfg``, exactly, with no sampling.

    One step maps Y = (1, phi^0, phi^1, F00, F01, F10, F11) to
    (B_0 + sum_a z_a B_a) Y, with z the step's ``shellcov.RANK`` standard
    normals: ``euler_update`` applied to the states 0, e_1 ... e_6 with the
    zero increment and with each factor column gives the affine maps B_0 and
    B_0 + B_a.  So S = E[Y Y^T] follows S <- B_0 S B_0^T + sum_a B_a S B_a^T.
    """
    _, factors, damps = proxysde._prepare_steps(cfg)
    basis = np.zeros((6, 7, 1 + shellcov.RANK))     # (state entry, state, increment)
    basis[np.arange(6), np.arange(1, 7)] = 1.0
    y = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    s, b = np.outer(y, y), np.zeros((1 + shellcov.RANK, 7, 7))
    for fac, damp in zip(factors, damps):
        st = basis.copy()
        inc = shellcov.components_to_fields(np.vstack([np.zeros(12), fac.T]))
        proxysde.euler_update(st[:2], st[2:].reshape(2, 2, *st.shape[1:]), inc, damp,
                              cfg.mode == "full")
        b[:, 0, 0] = 1.0
        b[:, 1:, 0] = st[:, 0].T
        b[:, 1:, 1:] = (st[:, 1:] - st[:, :1]).transpose(2, 0, 1)
        b[1:] -= b[0]
        s = np.einsum("aij,jk,alk->il", b, s, b)
    return {"phi2_resc": s[1, 1] + s[2, 2], "f2": np.trace(s[3:, 3:]),
            "det": s[3, 6] - s[4, 5]}


@functools.lru_cache(maxsize=None)
def final_moments(mode, weighting):
    """The run the exact second moments are checked against, and its config."""
    cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=2.0, n_steps=50, n_traj=40_000,
                             seed=3, mode=mode, lambda2_weighting=weighting,
                             record_stride=50)
    return cfg, proxysde.run_ensemble(cfg).series


def worst_z(series, exact):
    return max(abs(series.column(k)[-1] - v) / series.se(k)[-1] for k, v in exact.items())


class TestExactSecondMoments:
    @pytest.mark.parametrize("mode", ["full", "exp"])
    @pytest.mark.parametrize("weighting", ["exact", "midpoint-frozen"])
    def test_ensemble_within_z_band(self, mode, weighting):
        cfg, series = final_moments(mode, weighting)
        exact = exact_second_moments(cfg)
        assert exact["det"] == pytest.approx(1.0, abs=1e-13)
        assert worst_z(series, exact) < 4.0

    def test_wrong_factor_leaves_band(self, monkeypatch):
        cfg, series = final_moments("full", "exact")
        factor = shellcov.DriverCovariance.factor
        monkeypatch.setattr(shellcov.DriverCovariance, "factor",
                            lambda self: 1.05 * factor(self))
        assert worst_z(series, exact_second_moments(cfg)) > 4.0


class TestSchemeConvergence:
    @pytest.mark.parametrize("eps, lambda2_max, steps", [
        (0.5, 2.0, (16, 32, 64, 128)),
        (0.2, 4.0, (100, 200, 400, 800)),
    ])
    def test_weak_order_one(self, eps, lambda2_max, steps):
        # successive differences of the exact E|F|^2 halve with the step,
        # more nearly so on the finer triple
        f2 = [exact_second_moments(proxysde.SdeConfig(eps, lambda2_max, n, 1))["f2"]
              for n in steps]
        d = np.diff(f2)
        coarse, fine = d[:-1] / d[1:]
        assert 1.5 <= coarse <= 2.5 and 1.5 <= fine <= 2.5
        assert abs(fine - 2.0) < abs(coarse - 2.0)

    def test_exp_mode_det_variance_linear_in_step(self):
        vars_ = []
        for n in (50, 100, 200):
            cfg = proxysde.SdeConfig(eps=0.4, lambda2_max=2.0, n_steps=n,
                                     n_traj=60_000, seed=2, mode="exp", record_stride=n)
            s = proxysde.run_ensemble(cfg).series
            vars_.append(s.column("det2")[-1] - s.column("det")[-1] ** 2)
        r1, r2 = vars_[0] / vars_[1], vars_[1] / vars_[2]
        assert 1.7 <= r1 <= 2.3 and 1.7 <= r2 <= 2.3
        cfg = proxysde.SdeConfig(eps=0.4, lambda2_max=2.0, n_steps=100,
                                 n_traj=60_000, seed=2, mode="exp")
        s = proxysde.run_ensemble(cfg).series
        z = np.abs(s.column("det") - 1.0) / np.where(s.se("det") > 0, s.se("det"), 1.0)
        assert np.max(z) < 3.0


class TestAgainstMomentFlow:
    def test_small_run_matches_ode_with_mc_closure(self):
        cfg = proxysde.SdeConfig(eps=0.25, lambda2_max=2.5, n_steps=150,
                                 n_traj=60_000, seed=12)
        s = proxysde.run_ensemble(cfg).series
        closure = momentodes.ClosureSource.from_series(s)
        table = momentodes.integrate_moments(0.25, 2.5, closure, x_eval=s.lambda2)
        for name, ode in (("phi2_resc", table.a_resc), ("phi4_resc", table.b_resc),
                          ("f2", table.big_a), ("f4", table.big_b),
                          ("det2", table.det2)):
            i = len(s.lambda2) - 1
            z = (s.column(name)[i] - ode[i]) / s.se(name)[i]
            assert abs(z) < 3.5, (name, z)
