"""Corrector solves, diffusivity representations, and Jacobian statistics."""

import numpy as np
import pytest

from scalehom import corrector as co
from scalehom import proxysde
from scalehom.fieldsim import ShellField, TorusGrid
from scalehom.rng import stream

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _upsample(coef, factor):
    """Spectral zero-padding: the same band-limited realization on a finer grid."""
    half, m, w = coef.grid.n // 2, coef.grid.n * factor, coef.coeffs.shape[1]
    dst = np.zeros((m, m // 2 + 1), dtype=complex)
    dst[:half, :w] = coef.coeffs[:half]
    dst[m - half:, :w] = coef.coeffs[half:]
    return ShellField(TorusGrid(m, coef.grid.box_len), dst * factor ** 2)


@pytest.fixture(scope="module")
def sample_problem():
    grid = TorusGrid.for_cutoff(16.0, 256, 4.0)
    coef = co.sample_stream_function(grid, 0.2, 16.0, stream(1, "coef", 0))
    sol1 = co.solve_corrector(coef, E1, tol=1e-10)
    sol2 = co.solve_corrector(coef, E2, tol=1e-10)
    return coef, sol1, sol2


@pytest.fixture(scope="module")
def krylov_and_fallback():
    grid = TorusGrid.for_cutoff(8.0, 128, 4.0)
    coef = co.sample_stream_function(grid, 0.15, 8.0, stream(2, "coef", 0))
    krylov = co.solve_corrector(coef, E1, tol=1e-9)
    with pytest.MonkeyPatch.context() as mp:
        # an lgmres that returns zeros leaves the whole solve to the damped
        # fixed point, which runs from phi = 0 to the same tolerance
        mp.setattr(co, "lgmres", lambda op, b, **kwargs: (np.zeros_like(b), 0))
        return krylov, co.solve_corrector(coef, E1, tol=1e-9)


class TestSolve:
    def test_zero_stream_gives_zero_corrector(self):
        grid = TorusGrid(64, 40.0)
        coef = ShellField(grid, np.fft.rfft2(np.zeros((64, 64))))
        sol = co.solve_corrector(coef, E1)
        assert np.all(sol.phi == 0.0) and sol.fallback_steps == 0

    def test_constant_stream_gives_zero_corrector(self):
        grid = TorusGrid(64, 40.0)
        coef = ShellField(grid, np.fft.rfft2(np.full((64, 64), 2.7)))
        sol = co.solve_corrector(coef, E1)
        assert np.allclose(sol.phi, 0.0, atol=1e-12)

    def test_residual_below_tolerance(self, sample_problem):
        _, sol1, sol2 = sample_problem
        assert sol1.residual_rel <= 1e-10 and sol2.residual_rel <= 1e-10
        assert sol1.fallback_steps == 0

    def test_gradient_has_zero_mean(self, sample_problem):
        _, sol1, _ = sample_problem
        assert abs(sol1.grad[0].mean()) < 1e-13
        assert abs(sol1.grad[1].mean()) < 1e-13

    def test_fixed_point_fallback_agrees_with_krylov(self, krylov_and_fallback):
        a, b = krylov_and_fallback
        assert b.residual_rel <= 1e-9
        assert np.max(np.abs(a.phi - b.phi)) < 1e-7

    def test_counters_separate_krylov_and_fallback(self, krylov_and_fallback):
        # lgmres iterations and fixed-point steps are counted apart, and a
        # solve that needed no fallback says so
        a, b = krylov_and_fallback
        assert a.iterations > 0 and a.fallback_steps == 0
        assert b.iterations == 0 and b.fallback_steps > 0

    def test_fft_budget_per_matvec(self, monkeypatch):
        # the lgmres callback makes no FFT, and a solve costs 6 FFT calls per
        # matvec (two rfft2 and two inverse transforms of two calls each, their
        # two passes) plus 8 for set-up and the final check, less 4 for
        # lgmres's first matvec at u = 0, whose two inverse transforms get zero
        # spectra and return without a transform
        grid = TorusGrid.for_cutoff(8.0, 128, 4.0)
        coef = co.sample_stream_function(grid, 0.15, 8.0, stream(2, "coef", 0))
        ffts, matvecs, in_callback = [0], [0], [0]
        for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
                     "irfftn", "fft", "ifft", "rfft", "irfft"):
            orig = getattr(np.fft, name)

            def counted(*args, _orig=orig, **kwargs):
                ffts[0] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        orig_lgmres = co.lgmres

        def lgmres(a, b, *args, callback=None, **kwargs):
            def matvec(v):
                matvecs[0] += 1
                return a.matvec(v)

            def watched(xk):
                before = ffts[0]
                callback(xk)
                in_callback[0] += ffts[0] - before
            return orig_lgmres(co.LinearOperator(a.shape, matvec=matvec, dtype=float),
                               b, *args, callback=watched, **kwargs)
        monkeypatch.setattr(co, "lgmres", lgmres)
        sol = co.solve_corrector(coef, E1, tol=1e-10)
        assert sol.fallback_steps == 0 and sol.iterations > 0 and matvecs[0] > 0
        assert in_callback[0] == 0
        assert ffts[0] == 6 * matvecs[0] + 4

    def test_rejects_bad_inputs(self):
        grid = TorusGrid(64, 40.0)
        coef = ShellField(grid, np.fft.rfft2(np.full((64, 64), np.nan)))
        with pytest.raises(ValueError):
            co.solve_corrector(coef, E1)
        with pytest.raises(ValueError):
            co.solve_corrector(ShellField(grid, np.fft.rfft2(np.zeros((64, 64)))),
                               E1, tol=-1.0)


class TestDiffusivity:
    def test_trivial_value_for_zero_stream(self):
        grid = TorusGrid(64, 40.0)
        coef = ShellField(grid, np.fft.rfft2(np.zeros((64, 64))))
        sol = co.solve_corrector(coef, E1)
        assert co.effective_lambda(sol) == 1.0

    def test_enhancement_always_nonnegative(self, sample_problem):
        _, sol1, sol2 = sample_problem
        assert co.effective_lambda(sol1) >= 1.0
        assert co.effective_lambda(sol2) >= 1.0

    def test_flux_and_energy_representations_agree(self, sample_problem):
        coef, sol1, _ = sample_problem
        flux = co.flux_lambda(sol1, coef)
        assert abs(flux[0] - co.effective_lambda(sol1)) < 1e-8

    def test_energy_identity_pointwise(self, sample_problem):
        # the skew part drops from v . a v at every grid node
        coef, sol1, _ = sample_problem
        v = sol1.grad.copy()
        v[0] += 1.0
        a_v = np.stack([v[0] - coef.psi * v[1], v[1] + coef.psi * v[0]])
        lhs = np.sum(v * a_v, axis=0)
        rhs = np.sum(v * v, axis=0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_ensemble_summary(self):
        run = co.run_corrector_ensemble(0.15, 8.0, 128, n_samples=12, seed=5)
        assert run.lambda_se < 0.01
        assert np.all(run.lambdas >= 1.0)
        assert run.lambda_mean == pytest.approx(np.mean(run.lambdas))

    def test_ensemble_same_for_any_thread_count(self, monkeypatch):
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=threads: n)
            runs.append(co.run_corrector_ensemble(0.15, 4.0, 64, n_samples=3, seed=6))
        one, two = runs
        assert np.array_equal(one.lambdas, two.lambdas)
        assert [vars(st) for st in one.stats] == [vars(st) for st in two.stats]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_names_sample_and_direction(self, monkeypatch, threads):
        monkeypatch.setattr(proxysde, "draw_threads", lambda: threads)
        orig, calls = co.solve_corrector, []

        def rigged(coef, xi, **kwargs):
            calls.append(tuple(xi))
            if len(calls) > 2 and tuple(xi) == (0.0, 1.0):
                raise FloatingPointError("corrector solve stalled")
            return orig(coef, xi, **kwargs)
        monkeypatch.setattr(co, "solve_corrector", rigged)
        with pytest.raises(FloatingPointError, match=r"^corrector sample 1, direction "
                           r"\(0\.0, 1\.0\): corrector solve stalled$"):
            co.run_corrector_ensemble(0.15, 4.0, 64, n_samples=3, seed=6)
        assert len(calls) == 4      # sample 2 never starts

    def test_perturbative_window_small_amplitude(self):
        # the full solve sits within a few percent of the linearized energy
        grid = TorusGrid.for_cutoff(16.0, 256, 4.0)
        vals, oracles = [], []
        for s in range(6):
            coef = co.sample_stream_function(grid, 0.05, 16.0, stream(6, "p", s))
            sol = co.solve_corrector(coef, E1, tol=1e-10)
            vals.append(co.effective_lambda(sol) - 1.0)
            oracles.append(co.first_order_gradient_energy(coef, E1))
        target = 0.5 * 0.05 ** 2 * np.log(16.0)
        assert 0.8 <= np.mean(vals) / target <= 1.2
        assert 0.8 <= np.mean(oracles) / target <= 1.2
        assert np.allclose(vals, oracles, rtol=0.02)


class TestJacobianStats:
    def test_trivial_stream(self):
        grid = TorusGrid(64, 40.0)
        coef = ShellField(grid, np.fft.rfft2(np.zeros((64, 64))))
        s1, s2 = co.solve_corrector(coef, E1), co.solve_corrector(coef, E2)
        st = co.jacobian_stats(s1, s2)
        assert st.mean_f2 == 2.0 and st.mean_abs_det == 1.0 and st.mean_det == 1.0

    def test_frobenius_ties_to_diffusivity(self, sample_problem):
        _, sol1, sol2 = sample_problem
        st = co.jacobian_stats(sol1, sol2)
        assert abs(st.mean_f2 - 2.0 * st.lambda_avg) < 1e-8

    def test_null_lagrangian_unit_mean(self, sample_problem):
        _, sol1, sol2 = sample_problem
        st = co.jacobian_stats(sol1, sol2)
        assert abs(st.mean_det - 1.0) < 1e-8

    def test_truncated_table_monotone(self, sample_problem):
        _, sol1, sol2 = sample_problem
        st = co.jacobian_stats(sol1, sol2)
        vals = [st.truncated[r] for r in co.R_SCHEDULE]
        assert np.all(np.diff(vals) >= 0.0)
        assert st.truncated[4.0] == 1.0


class TestMeshConvergence:
    def test_lambda_stable_under_refinement(self):
        # identical band-limited realization on two grids via zero padding
        grid = TorusGrid.for_cutoff(16.0, 256, 4.0)
        coef = co.sample_stream_function(grid, 0.2, 16.0, stream(7, "m", 0))
        fine = _upsample(coef, 2)
        assert abs(fine.psi.mean() - coef.psi.mean()) < 1e-12
        assert abs(np.mean(fine.psi ** 2) / np.mean(coef.psi ** 2) - 1.0) < 1e-10
        lam_c = co.effective_lambda(co.solve_corrector(coef, E1, tol=1e-10))
        lam_f = co.effective_lambda(co.solve_corrector(fine, E1, tol=1e-10))
        assert abs(lam_f / lam_c - 1.0) < 0.01


class TestPeriodization:
    def test_box_doubling_sensitivity(self):
        # the plane ensemble is approximated on a torus; doubling the box
        # moves the ensemble diffusivity by less than the sampling resolution
        vals = {}
        for mult in (2.0, 4.0):
            grid = TorusGrid.for_cutoff(8.0, 128 if mult == 2.0 else 256, mult)
            lams = []
            for s in range(8):
                coef = co.sample_stream_function(grid, 0.3, 8.0,
                                                 stream(9, f"box{mult}", s))
                sol = co.solve_corrector(coef, E1, tol=1e-9)
                lams.append(co.effective_lambda(sol))
            vals[mult] = (np.mean(lams), np.std(lams, ddof=1) / np.sqrt(8))
        gap = abs(vals[2.0][0] - vals[4.0][0])
        assert gap < 4.0 * np.hypot(vals[2.0][1], vals[4.0][1]) + 0.01


@pytest.mark.slow
class TestNonConformalTrend:
    def test_det_fraction_decreases_with_cutoff(self):
        # larger infrared range -> larger lambda -> smaller |det|/|F|^2
        ratios = []
        for l_max in (8.0, 16.0, 32.0):
            grid = TorusGrid.for_cutoff(l_max, 256, 2.0)
            vals = []
            for s in range(4):
                coef = co.sample_stream_function(grid, 0.4, l_max, stream(8, "t", s))
                s1 = co.solve_corrector(coef, E1, tol=1e-9)
                s2 = co.solve_corrector(coef, E2, tol=1e-9)
                st = co.jacobian_stats(s1, s2)
                vals.append(st.mean_abs_det / st.mean_f2)
            ratios.append(np.mean(vals))
        assert np.all(np.diff(ratios) < 0.0)
