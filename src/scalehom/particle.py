"""Drift-diffusion trajectories on the torus and mean-square displacement.

The process dX = b(X) dt + sqrt(2) dW is integrated by Euler-Maruyama with a
divergence-free drift b = J grad psi interpolated bilinearly from the grid
(the drift varies on unit scales, so steps of at most 0.1 resolve it).  The
sqrt(2) convention makes the drift-free mean-square displacement exactly 2t
per component; a divergence-free drift can only increase it.  Positions are
tracked unwrapped; the torus only enters through the drift lookup.

Quantitative superdiffusive rates are out of numerical reach at small
amplitude; the module targets the property-level checks: the drift-free
slope, monotone enhancement, and growth of the enhancement with the
infrared range.

The environments of an annealed average are independent units with their own
counter-based streams: they run on :func:`proxysde.draw_threads` threads,
each writing its own row, so the result is the same for any thread count.
Builds take turns, since a build's transients set the peak memory; with the
band-stored spectra and band-limited transforms of :mod:`fieldsim` they stay
below a quarter of the size of the drift a build returns.  The path chunks
of a cloud run on those threads too (:func:`euler_maruyama`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice
from threading import Lock, local
from typing import Iterator

import numpy as np

from .corrector import sample_stream_function
from .fieldsim import ShellField, TorusGrid
from .proxysde import _blocks, _map_units, merge_moments
from .rng import stream

#: paths per chunk of a cloud; chunk c >= 1 draws from the c-th jump of the
#: cloud's generator, so this value is part of the stream layout
CHUNK_PATHS = 16384


@dataclass
class DriftField:
    """Grid drift b = J grad psi with bilinear lookup (order 1); a drift marked
    ``is_zero`` is skipped by the integrators."""

    b: np.ndarray               # (2, n, n)
    grid: TorusGrid
    is_zero: bool = False
    # per-thread lookup buffers, so that concurrent walks of one field share none
    _scratch: local = field(default_factory=local, init=False, repr=False, compare=False)

    @classmethod
    def from_stream(cls, coef: ShellField) -> "DriftField":
        """b = (-d_y psi, d_x psi) from the stream function's half spectrum."""
        b = coef.grid.derivatives(coef.coeffs, ((0, 1), (1, 0)))
        b[0] *= -1.0
        return cls(b, coef.grid)

    @classmethod
    def zero(cls, grid: TorusGrid) -> "DriftField":
        return cls(np.zeros((2, grid.n, grid.n)), grid, is_zero=True)

    def at(self, pos: np.ndarray) -> np.ndarray:
        """Bilinear drift lookup at unwrapped positions of shape (m, 2), in
        (2, 2, m) buffers indexed [x corner, y corner] that the calling thread
        keeps between calls of the same size."""
        n, m = self.grid.n, len(pos)
        s = self._scratch
        if getattr(s, "m", None) != m:
            s.m = m
            s.u, s.cell = np.empty((2, 2, m))
            s.fw, s.w, s.v = np.empty((3, 2, 2, m))
            s.idx, s.k = np.empty((2, 2, 2, m), dtype=np.int64)
        u = np.divide(pos.T, self.grid.spacing, out=s.u)
        np.floor(u, out=s.cell)
        # fw[axis] = (1 - frac, frac); idx[axis] = (cell, cell + 1) mod n, n a
        # power of two, with the rows scaled to flat offsets
        fw, idx = s.fw, s.idx
        np.subtract(u, s.cell, out=fw[:, 1])
        np.subtract(1, fw[:, 1], out=fw[:, 0])
        np.copyto(idx[:, 0], s.cell, casting="unsafe")
        np.add(idx[:, 0], 1, out=idx[:, 1])
        idx &= n - 1
        idx[0] *= n
        w = np.multiply(fw[0, :, None], fw[1, None], out=s.w)
        k = np.add(idx[0, :, None], idx[1, None], out=s.k)
        out = np.empty_like(pos)
        for c, bc in enumerate(self.b.reshape(2, -1)):
            v = bc.take(k, out=s.v, mode="clip")
            v *= w
            np.add(v[0, 0], v[1, 0], out=out[:, c])
            out[:, c] += v[0, 1]
            out[:, c] += v[1, 1]
        return out


@dataclass
class MsdEstimate:
    """Per-component mean-square displacement with standard errors."""

    times: np.ndarray
    msd: np.ndarray             # (2, n_times)
    se: np.ndarray              # (2, n_times)
    n_paths: int

    @property
    def total(self) -> np.ndarray:
        return self.msd.sum(axis=0)

    @property
    def total_se(self) -> np.ndarray:
        return np.sqrt(np.sum(self.se ** 2, axis=0))

    def validate(self) -> None:
        if not (np.all(np.isfinite(self.msd)) and np.all(np.isfinite(self.se))):
            raise FloatingPointError("non-finite mean-square displacement or error")
        if np.any(self.msd < 0.0):
            raise FloatingPointError("negative mean-square displacement")
        slack = 3.0 * np.sqrt(self.se[:, 1:] ** 2 + self.se[:, :-1] ** 2)
        if np.any(np.diff(self.msd, axis=1) < -slack):
            raise FloatingPointError("mean-square displacement decreasing beyond noise")


def default_sample_times(dt: float, t_end: float, n_times: int = 24) -> np.ndarray:
    return np.unique(np.round(np.geomspace(max(dt, 1.0), t_end, n_times) / dt)) * dt


def _stepper(drift: DriftField, dt: float):
    """Euler-Maruyama walker: ``walk(x, rng)`` advances the cloud ``x`` in
    place, yielding the 1-based step index after each step; a drift marked
    ``is_zero`` is not looked up.  The step must resolve the unit drift
    scale: 0 < dt <= 0.1, checked here, before any walk starts."""
    if not 0.0 < dt <= 0.1:
        raise ValueError("need 0 < dt <= 0.1 to resolve the drift scale")
    root2dt = np.sqrt(2.0 * dt)

    def walk(x: np.ndarray, rng: np.random.Generator) -> Iterator[int]:
        step = np.empty_like(x)
        for step_i in count(1):
            rng.standard_normal(x.shape, out=step)
            step *= root2dt
            if not drift.is_zero:
                move = drift.at(x)
                move *= dt
                step += move
            x += step
            yield step_i
    return walk


def euler_maruyama(drift: DriftField, dt: float, t_end: float, n_paths: int,
                   rng: np.random.Generator,
                   sample_times: np.ndarray | None = None) -> MsdEstimate:
    """Integrate ``n_paths`` trajectories from the origin and record
    displacement moments at ``sample_times``.

    The cloud walks in chunks of ``CHUNK_PATHS`` paths on
    :func:`proxysde.draw_threads` threads: chunk 0 draws from ``rng`` and
    chunk c from its c-th jump, all opened before any draw, and the chunks'
    sums and centred M2 are merged in chunk order.  The result is the same
    for any thread count, and a cloud of one chunk gives numpy's own mean and
    std(ddof=1) of its walk from ``rng``.
    """
    walk = _stepper(drift, dt)
    if sample_times is None:
        sample_times = default_sample_times(dt, t_end)
    sample_times = np.asarray(sample_times, dtype=float)
    sample_idx = np.round(sample_times / dt).astype(np.int64)
    if sample_idx.min() < 1 or len(np.unique(sample_idx)) < len(sample_idx):
        raise ValueError(f"sample times {sample_times.tolist()} must fall on distinct "
                         f"steps of size {dt} after the start")
    targets = {int(s): j for j, s in enumerate(sample_idx)}
    sizes = _blocks(n_paths, CHUNK_PATHS)
    gens = [rng] + [np.random.Generator(rng.bit_generator.jumped(c))
                    for c in range(1, len(sizes))]

    def run_chunk(c):
        x = np.zeros((sizes[c], 2))
        sums = np.empty((2, len(sample_idx)))
        m2 = np.empty((2, len(sample_idx)))
        for step_i in islice(walk(x, gens[c]), int(sample_idx.max())):
            j = targets.get(step_i)
            if j is not None:
                d2 = x ** 2           # the passes of numpy's mean and std
                sums[:, j] = d2.sum(axis=0)
                d2 -= sums[:, j] / len(x)
                d2 *= d2
                m2[:, j] = d2.sum(axis=0)
        return sums, m2

    sums = np.zeros((2, len(sample_idx)))
    m2 = np.zeros((2, len(sample_idx)))
    n = 0
    for size, (s, q) in zip(sizes, _map_units(run_chunk, range(len(sizes)),
                                              "path chunk {}")):
        n = merge_moments(sums, m2, n, s, q, size)
    se = np.sqrt(m2 / (n_paths - 1)) / np.sqrt(n_paths)
    est = MsdEstimate(sample_idx * dt, sums / n_paths, se, n_paths)
    est.validate()
    return est


def msd_growth_ratio(est_small: MsdEstimate | AnnealedMsd,
                     est_large: MsdEstimate | AnnealedMsd,
                     l_small: float) -> tuple[float, float, float]:
    """Enhancement ratio between two infrared ranges.

    Compares total MSD at the largest common time not exceeding ``l_small^2``
    (beyond which the smaller-range run has saturated its enhancement);
    returns (ratio, standard error, comparison time).  The error propagates
    each run's ``total_se``, which for an annealed run is the spread of the
    environments' totals and so keeps the x-y covariance within them.
    """
    common = np.intersect1d(np.round(est_small.times, 9), np.round(est_large.times, 9))
    common = common[common <= l_small ** 2]
    if common.size == 0:
        raise ValueError("no common sample time at or below the saturation scale")
    t = float(common.max())
    i = int(np.argmin(np.abs(est_small.times - t)))
    j = int(np.argmin(np.abs(est_large.times - t)))
    a, b = est_small.total[i], est_large.total[j]
    sa, sb = est_small.total_se[i], est_large.total_se[j]
    ratio = b / a
    se = ratio * np.sqrt((sa / a) ** 2 + (sb / b) ** 2)
    return float(ratio), float(se), t


@dataclass
class AnnealedMsd:
    """Environment-averaged displacement curve with cluster standard errors."""

    times: np.ndarray
    msd: np.ndarray             # (2, n_times) mean over environments
    se: np.ndarray              # (2, n_times), environment-to-environment
    per_env: np.ndarray         # (n_envs, 2, n_times)

    @property
    def total(self) -> np.ndarray:
        return self.msd.sum(axis=0)

    @property
    def total_se(self) -> np.ndarray:
        env_tot = self.per_env.sum(axis=1)
        return env_tot.std(axis=0, ddof=1) / np.sqrt(len(self.per_env))


def annealed_msd(eps: float, l_max: float, n: int, dt: float, t_end: float,
                 n_envs: int, paths_per_env: int, seed: int = 0,
                 sample_times: np.ndarray | None = None) -> AnnealedMsd:
    """Average the displacement curve over drift environments.

    Each environment draws its own stream function and its own thermal
    noise from counter-based streams; errors are taken across environments,
    which dominate the path-sampling noise at these sizes.
    """
    grid = TorusGrid.for_cutoff(l_max, n, 2.0)
    if sample_times is None:
        sample_times = default_sample_times(dt, t_end)
    per_env = np.empty((n_envs, 2, len(sample_times)))
    # one build at a time: a build's transients are the peak memory, so an
    # environment is built while another walks, never while another builds
    building = Lock()

    def run_env(e):
        with building:
            drift = DriftField.from_stream(sample_stream_function(
                grid, eps, l_max, stream(seed, "particle-env", e)))
        per_env[e] = euler_maruyama(drift, dt, t_end, paths_per_env,
                                    stream(seed, "particle-path", e),
                                    sample_times=sample_times).msd

    _map_units(run_env, range(n_envs), "environment {}")
    msd = per_env.mean(axis=0)
    se = per_env.std(axis=0, ddof=1) / np.sqrt(n_envs)
    return AnnealedMsd(np.asarray(sample_times, dtype=float), msd, se, per_env)


def occupancy_counts(drift: DriftField, dt: float, t_end: float, n_paths: int,
                     rng: np.random.Generator, n_cells: int = 8) -> np.ndarray:
    """Coarse cell counts of a uniformly initialized cloud after a run.

    A divergence-free drift preserves the uniform law, so the counts stay
    multinomial(n_paths, 1/n_cells^2) up to sampling noise.
    """
    walk = _stepper(drift, dt)
    x = rng.uniform(0.0, drift.grid.box_len, size=(n_paths, 2))
    for _ in islice(walk(x, rng), int(round(t_end / dt))):
        pass
    cell = np.floor(x / drift.grid.box_len * n_cells).astype(np.int64) % n_cells
    flat = cell[:, 0] * n_cells + cell[:, 1]
    return np.bincount(flat, minlength=n_cells * n_cells)
