"""Spectral shell synthesis, driver identities, and field-mode evolution."""

from types import SimpleNamespace

import numpy as np
import pytest

from scalehom import fieldsim as fs
from scalehom import proxysde
from scalehom.rng import stream


def _hermitian_completion(half: np.ndarray) -> np.ndarray:
    """Full n x n spectrum of a real field from its rfft2 half spectrum."""
    n = half.shape[0]
    full = np.empty((n, n), dtype=complex)
    full[:, :half.shape[1]] = half
    cols = np.arange(half.shape[1], n)
    full[:, cols] = np.conj(half[(-np.arange(n)) % n][:, n - cols])
    return full


@pytest.fixture(scope="module")
def small_grid():
    return fs.TorusGrid.for_cutoff(16.0, 128, 4.0)


@pytest.fixture(scope="module")
def field_run():
    eps = float(np.sqrt(1.5 / np.log(32.0)))   # lam2 reaches 2.5 at l_max = 32
    cfg = fs.FieldConfig(eps=eps, l_max=32.0, n=256, n_samples=20, seed=3)
    return fs.run_field_ensemble(cfg, keep_final=True)


class TestGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            fs.TorusGrid(100, 10.0)

    def test_cutoff_box_resolves_band(self, small_grid):
        kx, ky = small_grid.half_wavevectors()
        k2 = kx * kx + ky * ky
        assert np.sqrt(k2.max()) >= np.sqrt(2.0)   # UV edge resolvable
        positive = np.sqrt(k2[k2 > 0])
        assert positive.min() <= 1.0 / 16.0 / 4.0 * 1.01   # IR edge oversampled


class TestSpectralHelper:
    """Each derivative equals the real part of the full complex-FFT one."""

    ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))

    @staticmethod
    def _reference(values, grid, a, b):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
        mult = (1j * k[:, None]) ** a * (1j * k[None, :]) ** b
        return np.fft.ifft2(mult * np.fft.fft2(values)).real

    def _check(self, grid, values):
        got = grid.derivatives(np.fft.rfft2(values), self.ORDERS)
        for (a, b), plane in zip(self.ORDERS, got):
            ref = self._reference(values, grid, a, b)
            assert np.max(np.abs(plane - ref)) <= 1e-13 * np.max(np.abs(ref)), (a, b)

    def test_white_noise_incl_nyquist(self):
        # every mode populated, the Nyquist row, column and corner included
        grid = fs.TorusGrid(32, 7.0)
        self._check(grid, stream(11, "helper").standard_normal((32, 32)))

    def test_first_shell_on_nyquist_edge(self):
        # 256^2 at l_max 32: pi/h = 1, so the first shell's edge |k| = 1 is
        # the Nyquist wavenumber
        cfg = fs.FieldConfig(eps=0.66, l_max=32.0, n=256)
        grid = cfg.grid()
        assert np.pi / grid.spacing == pytest.approx(1.0, rel=1e-14)
        ladder = cfg.shells()
        sh = fs.sample_shell_field(grid, ladder[0], ladder[1], 0.66, stream(12, "edge"))
        assert np.any(sh.coeffs[grid.n // 2] != 0.0) or np.any(sh.coeffs[:, -1] != 0.0)
        self._check(grid, sh.values)

    def test_one_spectrum_per_order(self):
        grid = fs.TorusGrid(32, 7.0)
        gen = stream(13, "helper")
        u, v = gen.standard_normal((2, 32, 32))
        got = grid.derivatives(np.fft.rfft2(np.stack([u, v])), ((1, 0), (0, 1)))
        ref = self._reference(u, grid, 1, 0) + self._reference(v, grid, 0, 1)
        assert np.max(np.abs(got.sum(axis=0) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_equals_irfft2_of_the_multiplied_spectra(self):
        # the two inverse passes are irfft2's own, bit for bit
        grid = fs.TorusGrid(64, 9.0)
        half = np.fft.rfft2(stream(15, "helper").standard_normal((64, 64)))
        kx, ky = grid.half_wavevectors()
        spectra = []
        for a, b in self.ORDERS:
            mult = half * kx ** a
            mult *= (1, 1j, -1, -1j)[(a + b) % 4] * ky ** b
            if a % 2:
                mult[32, 1:-1] = 0.0
            spectra.append(mult)
        want = np.fft.irfft2(np.array(spectra), s=(64, 64))
        assert np.array_equal(grid.derivatives(half, self.ORDERS), want)

    def test_driver_fields_match_complex_multipliers(self):
        # the driver triple against the hand-built complex multipliers
        cfg = fs.FieldConfig(eps=0.66, l_max=32.0, n=256)
        grid = cfg.grid()
        ladder = cfg.shells()
        sh = fs.sample_shell_field(grid, ladder[0], ladder[1], 0.66, stream(14, "drv"))
        drv = fs.driver_fields(sh, 1.3, 0.02)
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
        kx, ky = k[:, None], k[None, :]
        k2 = kx * kx + ky * ky
        full = np.fft.fft2(sh.values)
        base = full * np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0) / np.sqrt(1.3)
        jk, karr = (-ky, kx), (kx, ky)
        for c in range(2):
            want = [(drv.dphi[c], 1j * jk[c])]
            want += [(drv.grad[c, a], -karr[a] * jk[c]) for a in range(2)]
            want += [(drv.hess[c, a, b], -1j * karr[a] * karr[b] * jk[c])
                     for a in range(2) for b in range(2)]
            for plane, mult in want:
                ref = np.fft.ifft2(mult * base).real
                assert np.max(np.abs(plane - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestShellSampling:
    def test_variance_calibration(self, small_grid):
        vals = [np.mean(fs.sample_shell_field(small_grid, 1.0, 16.0, 0.5,
                                              stream(1, "var", i)).values ** 2)
                for i in range(300)]
        target = 0.25 * np.log(16.0)
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - target) < max(5 * se, 0.03 * target)

    def test_field_is_real(self, small_grid):
        # the half spectrum, completed by Hermitian symmetry, synthesizes a
        # real field equal to the stored values
        sh = fs.sample_shell_field(small_grid, 2.0, 4.0, 0.4, stream(2, "r"))
        full = _hermitian_completion(sh.coeffs)
        ref = np.fft.ifft2(full)
        assert np.max(np.abs(ref.imag)) <= 1e-13 * np.max(np.abs(ref.real))
        assert np.max(np.abs(sh.values - ref.real)) <= 1e-13 * np.max(np.abs(ref.real))

    def test_coefficients_confined_to_annulus(self, small_grid):
        sh = fs.sample_shell_field(small_grid, 2.0, 4.0, 0.4, stream(3, "a"))
        kx, ky = small_grid.half_wavevectors()
        k2 = kx * kx + ky * ky
        outside = (k2 <= 1.0 / 16.0) | (k2 > 1.0 / 4.0)
        assert np.all(sh.coeffs[outside] == 0.0)

    def test_disjoint_shells_independent(self, small_grid):
        x = np.array([fs.sample_shell_field(small_grid, 1.0, 2.0, 0.5,
                                            stream(4, "i", i)).values[0, 0]
                      for i in range(400)])
        y = np.array([fs.sample_shell_field(small_grid, 2.0, 4.0, 0.5,
                                            stream(5, "i", i)).values[0, 0]
                      for i in range(400)])
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(400)

    def test_empty_annulus_rejected(self):
        tiny = fs.TorusGrid(16, 2.0 * np.pi)   # integer mode norms only
        with pytest.raises(ValueError, match="no lattice modes"):
            fs.sample_shell_field(tiny, 1.3, 1.4, 0.5, stream(6, "e"))


class TestDriverFields:
    def test_local_relations_pointwise(self, small_grid):
        sh = fs.sample_shell_field(small_grid, 2.0, 2.0 * 2 ** 0.25, 0.5, stream(7, "d"))
        lam2 = 1.5
        drv = fs.driver_fields(sh, lam2, 0.05)
        scale = np.abs(drv.dpsi).max()
        trace = drv.grad[0, 0] + drv.grad[1, 1]
        assert np.abs(trace).max() <= 1e-10 * scale
        # the skew gradient component reconstructs the stream increment
        skew = np.sqrt(lam2) * (drv.grad[0, 1] - drv.grad[1, 0])
        assert np.abs(skew - drv.dpsi).max() <= 1e-10 * scale

    def test_hessian_symmetry(self, small_grid):
        sh = fs.sample_shell_field(small_grid, 2.0, 4.0, 0.5, stream(8, "h"))
        drv = fs.driver_fields(sh, 1.4, 0.1)
        assert np.array_equal(drv.hess[:, 0, 1], drv.hess[:, 1, 0])

    def test_single_direction_variance(self, small_grid):
        # Var(xi . dphi) ~ |xi|^2 L_mid^2 dlam2 / (2 lam2) over the shell
        eps, l_lo = 0.5, 2.0
        l_hi = l_lo * 2 ** 0.25
        l_mid = np.sqrt(l_lo * l_hi)
        lam2 = 1.0 + eps ** 2 * np.log(l_mid)
        dlam2 = eps ** 2 * np.log(l_hi / l_lo)
        vals = []
        for i in range(200):
            sh = fs.sample_shell_field(small_grid, l_lo, l_hi, eps, stream(9, "v", i))
            drv = fs.driver_fields(sh, lam2, dlam2)
            vals.append(np.mean(drv.dphi[0] ** 2))
        expect = l_mid ** 2 * dlam2 / (2.0 * lam2)
        assert abs(np.mean(vals) / expect - 1.0) < 0.10

    def test_gradient_contraction_variance(self, small_grid):
        # identity-observable contraction: sum_ca Var(grad[c,a]) ~ dlam2/lam2
        eps, l_lo = 0.5, 2.0
        l_hi = l_lo * 2 ** 0.25
        l_mid = np.sqrt(l_lo * l_hi)
        lam2 = 1.0 + eps ** 2 * np.log(l_mid)
        dlam2 = eps ** 2 * np.log(l_hi / l_lo)
        vals = []
        for i in range(200):
            sh = fs.sample_shell_field(small_grid, l_lo, l_hi, eps, stream(10, "g", i))
            drv = fs.driver_fields(sh, lam2, dlam2)
            vals.append(np.mean(np.sum(drv.grad ** 2, axis=(0, 1))))
        expect = dlam2 / lam2
        assert abs(np.mean(vals) / expect - 1.0) < 0.10


class TestStepFields:
    def test_zero_driver_is_identity_map(self, small_grid):
        state = fs.FieldState.initial(small_grid)
        state.phi += 0.3
        zero = fs.DriverFields(
            np.zeros((128, 128)), np.zeros((2, 128, 128)),
            np.zeros((2, 2, 128, 128)), np.zeros((2, 2, 2, 128, 128)),
            np.zeros((2, 128, 128)), 0.05)
        out = fs.step_fields(state, zero)
        assert np.array_equal(out.phi, state.phi)
        assert np.array_equal(out.f, state.f)

    def test_nonfinite_reported_with_location(self, small_grid):
        state = fs.FieldState.initial(small_grid)
        state.f[0, 0, 3, 5] = np.inf
        zero = fs.DriverFields(
            np.zeros((128, 128)), np.zeros((2, 128, 128)),
            np.zeros((2, 2, 128, 128)), np.zeros((2, 2, 2, 128, 128)),
            np.zeros((2, 128, 128)), 0.05)
        with pytest.raises(FloatingPointError, match=r"\(3, 5\)"):
            fs.step_fields(state, zero)

    def test_row_blocks_match_whole_planes(self, small_grid):
        # the kernel is pointwise, so row blocks give the whole-plane bytes
        sh = fs.sample_shell_field(small_grid, 1.0, 4.0, 0.6, stream(16, "rows"))
        drv = fs.driver_fields(sh, 1.4, 0.1)
        state = fs.FieldState.initial(small_grid)
        state.phi += stream(17, "rows").standard_normal(state.phi.shape)
        phi, f = state.phi.copy(), state.f.copy()
        proxysde.euler_update(phi, f, proxysde.increment_planes(drv.dphi, drv.grad,
                                                                drv.hess))
        out = fs.step_fields(state, drv)
        assert small_grid.n > fs._ROW_BLOCK
        assert np.array_equal(out.phi, phi) and np.array_equal(out.f, f)

    def test_spatial_mean_determinant_stays_unit(self, field_run):
        mean, se = field_run.moments()
        det_col = list(proxysde.MOMENT_NAMES).index("det")
        z = np.abs(mean[1:, det_col] - 1.0) / np.where(se[1:, det_col] > 0,
                                                       se[1:, det_col], 1.0)
        assert np.max(z) < 3.0


class TestEnsembleConsistency:
    def test_quadratic_variation_report(self, field_run):
        qv = fs.empirical_qv(field_run)
        assert abs(qv.accumulated_dpsi / qv.expected_dpsi - 1.0) < 0.05
        assert np.all(np.abs(qv.derivative_ratios - 1.0) < 0.10)
        assert np.all(np.abs(qv.hess_contraction_ratios - 0.5) < 0.05)
        assert qv.ok()

    def test_point_marginals_match_trajectory_mode(self, field_run):
        res = field_run
        n_steps = len(res.lambda2) - 1
        pcfg = proxysde.SdeConfig(
            eps=res.config.eps, lambda2_max=float(res.lambda2[-1]),
            n_steps=n_steps, n_traj=100_000, seed=4, record_stride=n_steps,
            lambda2_weighting="midpoint-frozen")
        ps = proxysde.run_ensemble(pcfg).series
        fmean, fse = res.moments()
        for j, name in enumerate(proxysde.MOMENT_NAMES[:6]):
            z = (fmean[-1, j] - ps.column(name)[-1]) / np.hypot(
                fse[-1, j], ps.se(name)[-1])
            assert abs(z) < 3.0, (name, z)

    def test_same_for_any_thread_count(self, monkeypatch):
        cfg = fs.FieldConfig(eps=0.6, l_max=4.0, n=64, n_samples=3, seed=7)
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=threads: n)
            runs.append(fs.run_field_ensemble(cfg, keep_final=True))
        one, two = runs
        for name in ("moment_samples", "qv_dpsi", "qv_grad_dpsi", "qv_hess_contraction"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        # the kept state is sample 0's, whichever thread finished last
        assert one.final_state.lambda2 == two.final_state.lambda2
        assert np.array_equal(one.final_state.phi, two.final_state.phi)
        assert np.array_equal(one.final_state.f, two.final_state.f)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_names_its_sample(self, monkeypatch, threads):
        monkeypatch.setattr(proxysde, "draw_threads", lambda: threads)

        def rigged(seed, label, index=0, counter=0):
            # from its third shell on, sample 1 draws increments 1e200 times
            # too large, so its Jacobian overflows on the fourth
            gen = stream(seed, label, index, counter)
            if index == 1 and counter >= 2:
                return SimpleNamespace(
                    standard_normal=lambda shape: 1e200 * gen.standard_normal(shape))
            return gen
        monkeypatch.setattr(fs, "stream", rigged)
        cfg = fs.FieldConfig(eps=0.6, l_max=4.0, n=64, n_samples=3, seed=7)
        with pytest.raises(FloatingPointError,
                           match=r"^field sample 1: non-finite Jacobian .* lam2 = "):
            fs.run_field_ensemble(cfg)

    def test_requires_enough_shells(self):
        cfg = fs.FieldConfig(eps=0.5, l_max=2.0, n=64, n_samples=2, seed=0)
        res = fs.run_field_ensemble(cfg)
        with pytest.raises(ValueError, match="8 shells"):
            fs.empirical_qv(res)


class TestSnapshotIO:
    def test_roundtrip(self, tmp_path, field_run):
        state = field_run.final_state
        path = tmp_path / "state.bin"
        fs.save_snapshot(path, state, field_run.config.grid().box_len)
        loaded, box = fs.load_snapshot(path)
        assert box == field_run.config.grid().box_len
        assert loaded.lambda2 == state.lambda2
        assert np.array_equal(loaded.phi, state.phi)
        assert np.array_equal(loaded.f, state.f)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(ValueError):
            fs.load_snapshot(path)
