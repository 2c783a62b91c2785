"""Drift-diffusion integration: slopes, enhancement, conservation checks."""

import importlib.util
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from scalehom import particle as pa
from scalehom import proxysde
from scalehom.corrector import sample_stream_function
from scalehom.fieldsim import TorusGrid
from scalehom.rng import stream

CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def load_bench_checks():
    """The benchmark's package-independent output checks (``bench/checks.py``)."""
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def drift_env():
    grid = TorusGrid.for_cutoff(16.0, 512, 2.0)
    coef = sample_stream_function(grid, 0.4, 16.0, stream(3, "env"))
    return pa.DriftField.from_stream(coef)


class TestDriftField:
    def test_divergence_free_spectrally(self, drift_env):
        checks = load_bench_checks()
        assert checks.max_divergence(drift_env.b, drift_env.grid.box_len) < 1e-10

    def test_finite_amplitude(self, drift_env):
        assert np.all(np.isfinite(drift_env.b))
        assert np.max(np.hypot(drift_env.b[0], drift_env.b[1])) > 0.0

    def test_interpolation_exact_on_nodes(self, drift_env):
        h = drift_env.grid.spacing
        idx = np.array([[3, 7], [100, 200], [511, 0]])
        pos = idx * h
        vals = drift_env.at(pos.astype(float))
        for (i, j), v in zip(idx, vals):
            assert np.allclose(v, drift_env.b[:, i, j], atol=1e-12)

    def test_interpolation_wraps(self, drift_env):
        box = drift_env.grid.box_len
        a = drift_env.at(np.array([[0.3, 0.7]]))
        b = drift_env.at(np.array([[0.3 + 5 * box, 0.7 - 3 * box]]))
        assert np.allclose(a, b, atol=1e-9)


class TestPureDiffusion:
    def test_slope_two_per_component(self):
        grid = TorusGrid(32, 20.0)
        est = pa.euler_maruyama(pa.DriftField.zero(grid), 0.1, 20.0, 200_000,
                                stream(0, "b0"))
        slope = est.msd[:, -1] / est.times[-1]
        assert np.all(np.abs(slope - 2.0) < 0.02)

    def test_zero_drift_skips_lookup_bit_identically(self, monkeypatch):
        # DriftField.zero skips the lookup; a zero-valued field that is not
        # marked still goes through it, and both give the same bits
        grid = TorusGrid(32, 20.0)
        plain = pa.DriftField(np.zeros((2, 32, 32)), grid)
        ref = pa.euler_maruyama(plain, 0.1, 5.0, 2_000, stream(3, "z"))
        lookups = []
        monkeypatch.setattr(pa.DriftField, "at",
                            lambda self, pos: lookups.append(len(pos)) or 0.0 * pos)
        est = pa.euler_maruyama(pa.DriftField.zero(grid), 0.1, 5.0, 2_000, stream(3, "z"))
        assert lookups == []
        assert np.array_equal(est.msd, ref.msd) and np.array_equal(est.se, ref.se)
        pa.occupancy_counts(pa.DriftField.zero(grid), 0.1, 1.0, 100, stream(4, "z"))
        assert lookups == []

    def test_msd_linear_across_times(self):
        grid = TorusGrid(32, 20.0)
        est = pa.euler_maruyama(pa.DriftField.zero(grid), 0.1, 50.0, 100_000,
                                stream(1, "b1"))
        z = np.abs(est.total - 4.0 * est.times) / est.total_se
        assert np.max(z) < 4.0


class TestEulerMaruyama:
    def test_rejects_coarse_step(self, drift_env):
        with pytest.raises(ValueError):
            pa.euler_maruyama(drift_env, 0.2, 10.0, 100, stream(2, "x"))

    def test_rejects_sample_times_off_distinct_steps(self):
        # 0 rounds to step 0 and 0.5, 0.52 to the same step: their columns
        # would never be filled
        drift = pa.DriftField.zero(TorusGrid(32, 20.0))
        with pytest.raises(ValueError, match="distinct"):
            pa.euler_maruyama(drift, 0.1, 1.0, 100, stream(2, "t"),
                              sample_times=np.array([0.0, 0.5, 0.52, 1.0]))

    def test_validate_rejects_nan(self):
        est = pa.MsdEstimate(np.array([1.0, 2.0]), np.full((2, 2), np.nan),
                             np.ones((2, 2)), 10)
        with pytest.raises(FloatingPointError):
            est.validate()

    def test_monotone_within_noise(self, drift_env):
        est = pa.euler_maruyama(drift_env, 0.1, 50.0, 20_000, stream(4, "m"))
        est.validate()
        assert np.all(est.msd >= 0.0)

    def test_enhancement_direction(self, drift_env):
        est = pa.euler_maruyama(drift_env, 0.1, 100.0, 40_000, stream(5, "e"))
        ratio = est.total / (4.0 * est.times)
        z_floor = (ratio - 1.0) * 4.0 * est.times / est.total_se
        assert np.all(z_floor > -3.0)
        assert ratio[-1] > 1.05   # visible enhancement at this amplitude

    def test_step_refinement_consistent(self, drift_env):
        t_check = np.array([96.0])
        a = pa.euler_maruyama(drift_env, 0.1, 96.0, 60_000, stream(6, "r1"),
                              sample_times=t_check)
        b = pa.euler_maruyama(drift_env, 0.05, 96.0, 60_000, stream(7, "r2"),
                              sample_times=t_check)
        gap = abs(a.total[0] - b.total[0])
        assert gap < 2.0 * np.hypot(a.total_se[0], b.total_se[0])


class TestGrowthRatio:
    def _fake(self, times, level, n=1000):
        times = np.asarray(times, dtype=float)
        msd = np.tile(level * times, (2, 1)) / 2.0
        se = 0.01 * msd + 1e-12
        return pa.MsdEstimate(np.asarray(times, dtype=float), msd, se, n)

    def test_equal_ranges_give_unit_ratio(self):
        t = np.array([10.0, 50.0, 200.0])
        r, se, tc = pa.msd_growth_ratio(self._fake(t, 2.0), self._fake(t, 2.0), 16.0)
        assert r == pytest.approx(1.0) and tc == 200.0
        assert abs(r - 1.0) <= se * 3

    def test_saturation_cap_selects_time(self):
        t = np.array([10.0, 50.0, 200.0, 400.0])
        _, _, tc = pa.msd_growth_ratio(self._fake(t, 2.0), self._fake(t, 2.2), 16.0)
        assert tc == 200.0   # largest common time <= 256

    def test_disjoint_times_rejected(self):
        with pytest.raises(ValueError):
            pa.msd_growth_ratio(self._fake([10.0], 2.0),
                                self._fake([20.0], 2.0), 16.0)

    def test_monotone_infrared_enhancement(self):
        times = pa.default_sample_times(0.1, 100.0)
        lo = pa.annealed_msd(0.4, 8.0, 256, 0.1, 100.0, n_envs=6,
                             paths_per_env=4096, seed=8, sample_times=times)
        hi = pa.annealed_msd(0.4, 32.0, 1024, 0.1, 100.0, n_envs=6,
                             paths_per_env=4096, seed=9, sample_times=times)
        r, se, _ = pa.msd_growth_ratio(lo.as_estimate(), hi.as_estimate(), 8.0)
        assert r > 1.0 - 3.0 * se


class TestOccupancy:
    def test_uniform_law_preserved(self, drift_env):
        counts = pa.occupancy_counts(drift_env, 0.1, 30.0, 120_000,
                                     stream(10, "occ"), n_cells=8)
        expected = counts.sum() / counts.size
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        p = stats.chi2.sf(chi2, counts.size - 1)
        assert p > 1e-4


class TestEnvironmentThreads:
    """Environments run on ``proxysde.draw_threads()`` threads, one build at
    a time, with the same result for any count."""

    KW = dict(eps=0.4, l_max=4.0, n=64, dt=0.1, t_end=5.0, n_envs=5,
              paths_per_env=300, seed=21)

    def test_same_for_any_thread_count(self, monkeypatch):
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(proxysde, "draw_threads", lambda n=threads: n)
            runs.append(pa.annealed_msd(**self.KW))
        one, two = runs
        assert np.array_equal(one.per_env, two.per_env)
        assert np.array_equal(one.msd, two.msd) and np.array_equal(one.se, two.se)

    def test_more_workers_than_cores_lose_no_row(self, monkeypatch):
        # four workers on frequent thread switches write every row once
        monkeypatch.setattr(proxysde, "draw_threads", lambda: 1)
        serial = pa.annealed_msd(**dict(self.KW, n_envs=8))
        monkeypatch.setattr(proxysde, "draw_threads", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = pa.annealed_msd(**dict(self.KW, n_envs=8))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.per_env, threaded.per_env)

    def test_builds_never_overlap(self, monkeypatch):
        monkeypatch.setattr(proxysde, "draw_threads", lambda: 2)
        orig = pa.DriftField.from_stream.__func__
        lock, in_flight, most, threads = threading.Lock(), [0], [0], set()

        def counted(cls, coef):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
                threads.add(threading.get_ident())
            time.sleep(0.05)    # a window wide enough for a second build
            try:
                return orig(cls, coef)
            finally:
                with lock:
                    in_flight[0] -= 1
        monkeypatch.setattr(pa.DriftField, "from_stream", classmethod(counted))
        pa.annealed_msd(**self.KW)
        assert most[0] == 1 and len(threads) == 2

    def test_one_thread_starts_none(self, monkeypatch):
        monkeypatch.setattr(proxysde, "draw_threads", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(proxysde, "ThreadPoolExecutor", no_pool)
        threads, orig = set(), pa.euler_maruyama

        def walk(*args, **kwargs):
            threads.add(threading.get_ident())
            return orig(*args, **kwargs)
        monkeypatch.setattr(pa, "euler_maruyama", walk)
        pa.annealed_msd(**self.KW)
        assert threads == {threading.get_ident()}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_names_its_environment(self, monkeypatch, threads):
        # environment 2 draws a non-finite stream function, so its drift is
        # non-finite everywhere
        monkeypatch.setattr(proxysde, "draw_threads", lambda: threads)
        started = []

        def rigged(seed, label, index=0, counter=0):
            if label == "particle-env":
                started.append(index)
                if index == 2:
                    return SimpleNamespace(
                        standard_normal=lambda shape: np.full(shape, np.nan))
            return stream(seed, label, index, counter)
        monkeypatch.setattr(pa, "stream", rigged)
        with pytest.raises(FloatingPointError, match="^environment 2: non-finite") as info:
            pa.annealed_msd(**dict(self.KW, n_envs=12))
        assert isinstance(info.value.__cause__, FloatingPointError)
        if threads == 1:
            assert started == [0, 1, 2]
        assert len(started) < 12


def test_units_not_started_are_cancelled(monkeypatch):
    monkeypatch.setattr(proxysde, "draw_threads", lambda: 2)
    started = []

    def unit(u):
        started.append(u)
        if u == 0:
            raise ValueError("bad input")
        time.sleep(0.2)
        return u

    with pytest.raises(ValueError, match=r"^unit 0: bad input$"):
        proxysde._map_units(unit, range(10), "unit {}")
    assert 0 in started and max(started) < 4
    assert proxysde._map_units(lambda u: u * u, range(5), "unit {}") == [0, 1, 4, 9, 16]
