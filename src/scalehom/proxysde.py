"""Monte Carlo integration of the proxy-corrector system across scales.

The pair (phi, F) follows the Ito system

    d phi = (1 + phi^i d_i) dphi          phi = 0   at lam2 = 1
    d F   = (grad dphi) F + phi^i (hess dphi)_i      F = id at lam2 = 1

driven by the single-point Gaussian increments of :mod:`scalehom.shellcov`.
Because the coefficients only involve driver values at the evaluation point
and the driver law is spatially stationary, the point marginal determines all
tracked moments; no spatial grid is needed and the cost per trajectory step
is scale independent.

The state is stored in overflow-safe variables: ``phi`` holds ``phi/L`` (the
raw corrector grows like the cutoff scale ``L``, which at the scale
separations of interest exceeds the double range) while ``F`` is
dimensionless.  One explicit Euler step in the raw variable, re-expressed in
the stored one, reads

    F   <-  F + grad @ F + phi^i hess[:, :, i]
    phi <-  exp(-dlam2/eps^2) * (phi + grad @ phi) + dphi

with the whole-step increment covariance integrated exactly over the step
(see :func:`scalehom.shellcov.step_covariance`); coefficients are frozen at
the left endpoint, giving a weak first-order scheme.  In ``exp`` mode the
Hessian feedback is dropped and F becomes a pure matrix stochastic
exponential with unit determinant.

Trajectories are embarrassingly parallel: they are processed in fixed-size
blocks, each block drawing from its own counter-based stream keyed by
(seed, block, step), and block results are reduced in block order, so output
is identical for any worker count.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import shellcov, tensor2d
from .rng import stream

MOMENT_NAMES = (
    "phi2_resc", "phi4_resc", "f2", "f4", "det", "det2",
    "closure_mix", "closure_bullet", "closure_adj",
)


@dataclass(frozen=True)
class SdeConfig:
    """Parameters of one ensemble run.

    ``mode='exp'`` drops the Hessian-driven term.  ``snapshot_points`` lists
    lam2 values (matched to the nearest grid point) at which per-trajectory
    samples of |F|^2 and det F are retained.  ``record_stride`` thins the
    grid points at which moments are accumulated.
    """

    eps: float
    lambda2_max: float
    n_steps: int
    n_traj: int
    seed: int = 0
    mode: str = "full"
    block_size: int = 16384
    workers: int = 1
    snapshot_points: tuple = ()
    record_stride: int = 1
    zero_cross_block: bool = False
    lambda2_weighting: str = "exact"

    def __post_init__(self):
        if self.n_steps < 1 or self.n_traj < 1:
            raise ValueError("n_steps and n_traj must be positive")
        if self.lambda2_max <= 1.0:
            raise ValueError("lambda2_max must exceed 1")
        if self.mode not in ("full", "exp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lambda2_weighting not in ("exact", "midpoint-frozen"):
            raise ValueError(f"unknown weighting {self.lambda2_weighting!r}")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")

    def grid(self) -> shellcov.ScaleGrid:
        return shellcov.ScaleGrid.uniform(self.eps, self.lambda2_max, self.n_steps)


@dataclass
class ProxyState:
    """Trajectory state; ``phi`` stores phi/L, ``f`` the dimensionless Jacobian."""

    phi: np.ndarray
    f: np.ndarray
    lambda2: float

    @classmethod
    def initial(cls, n: int | None = None) -> "ProxyState":
        if n is None:
            return cls(np.zeros(2), np.eye(2), 1.0)
        return cls(np.zeros((n, 2)), np.tile(np.eye(2), (n, 1, 1)), 1.0)


@dataclass
class MomentSeries:
    """Tracked expectations on the scale grid, with standard errors.

    Columns follow ``MOMENT_NAMES``: the rescaled corrector moments
    E|phi/L|^2 and E|phi/L|^4, then E|F|^2, E|F|^4, E det F, E(det F)^2 and
    the three closure expectations (all closure terms are per L^2, i.e. they
    multiply 1/lam2 rather than 1/(L^2 lam2) in the moment equations).
    """

    eps: float
    lambda2: np.ndarray
    n_traj: int
    means: np.ndarray
    ses: np.ndarray

    @property
    def ln_l(self) -> np.ndarray:
        if self.eps == 0.0:
            return np.zeros_like(self.lambda2)
        return (self.lambda2 - 1.0) / self.eps ** 2

    def column(self, name: str) -> np.ndarray:
        return self.means[:, MOMENT_NAMES.index(name)]

    def se(self, name: str) -> np.ndarray:
        return self.ses[:, MOMENT_NAMES.index(name)]

    def validate(self) -> None:
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.ses))):
            raise FloatingPointError("non-finite moment or standard error")
        for name in ("phi2_resc", "phi4_resc", "f2", "f4", "det2"):
            if np.any(self.column(name) < 0.0):
                raise FloatingPointError(f"negative even moment {name}")
        if np.any(self.column("det2") < self.column("det") ** 2 - 1e-12):
            raise FloatingPointError("E det^2 below (E det)^2")

    def at(self, lambda2: float) -> dict[str, float]:
        i = int(np.argmin(np.abs(self.lambda2 - lambda2)))
        row = {name: self.means[i, j] for j, name in enumerate(MOMENT_NAMES)}
        row.update({f"se_{name}": self.ses[i, j] for j, name in enumerate(MOMENT_NAMES)})
        row["lambda2"] = float(self.lambda2[i])
        return row

    def write_csv(self, path: str | Path) -> None:
        header = ["lambda2", "ln_l"] + [f"E_{n}" for n in MOMENT_NAMES] \
            + [f"se_{n}" for n in MOMENT_NAMES]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(len(self.lambda2)):
                row = [self.lambda2[i], self.ln_l[i], *self.means[i], *self.ses[i]]
                w.writerow([f"{v:.17g}" for v in row])


@dataclass
class EnsembleResult:
    series: MomentSeries
    snapshots: dict = field(default_factory=dict)   # lambda2 -> {"f2": ..., "det": ...}


def step(state: ProxyState, inc: shellcov.DriverIncrement, eps: float,
         mode: str = "full") -> ProxyState:
    """One Euler step; coefficients frozen at the incoming state (Ito).

    Aborts with ``FloatingPointError`` if the updated state is not finite.
    """
    phi, f = np.asarray(state.phi, dtype=float), np.asarray(state.f, dtype=float)
    batched = phi.ndim == 2
    sub = "n" if batched else ""
    f_new = f + np.einsum(f"{sub}ci,{sub}ij->{sub}cj", inc.grad, f)
    if mode == "full":
        f_new = f_new + np.einsum(f"{sub}cji,{sub}i->{sub}cj", inc.hess, phi)
    damp = np.exp(-inc.dlambda2 / eps ** 2) if eps > 0.0 else 0.0
    phi_new = damp * (phi + np.einsum(f"{sub}ci,{sub}i->{sub}c", inc.grad, phi)) + inc.dphi
    if not (np.all(np.isfinite(f_new)) and np.all(np.isfinite(phi_new))):
        bad = np.argwhere(~np.isfinite(f_new).all(axis=(-2, -1)) if batched
                          else ~np.isfinite(f_new))
        raise FloatingPointError(
            f"non-finite state at lam2 = {state.lambda2 + inc.dlambda2} "
            f"(first trajectory index {bad[:1]})")
    return ProxyState(phi_new, f_new, state.lambda2 + inc.dlambda2)


def _closure_canon(mat: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Canonical coordinates of sym(mat (x) phi) for the bullet fast path."""
    n = len(phi)
    s = np.empty((n, 6))
    for a in range(2):
        s[:, 3 * a] = mat[:, a, 0] * phi[:, 0]
        s[:, 3 * a + 1] = 0.5 * (mat[:, a, 0] * phi[:, 1] + mat[:, a, 1] * phi[:, 0])
        s[:, 3 * a + 2] = mat[:, a, 1] * phi[:, 1]
    return s


def _bullet_qf(s: np.ndarray) -> np.ndarray:
    return np.sum((s @ tensor2d._BULLET_GRAM6) * s, axis=1)


def _moments(phi: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The nine tracked quantities per trajectory, stacked (n, 9)."""
    p2 = phi[:, 0] ** 2 + phi[:, 1] ** 2
    f00, f01, f10, f11 = f[:, 0, 0], f[:, 0, 1], f[:, 1, 0], f[:, 1, 1]
    f2 = f00 ** 2 + f01 ** 2 + f10 ** 2 + f11 ** 2
    det = f00 * f11 - f01 * f10
    adj_t = np.empty_like(f)
    adj_t[:, 0, 0] = f11
    adj_t[:, 0, 1] = -f10
    adj_t[:, 1, 0] = -f01
    adj_t[:, 1, 1] = f00
    out = np.empty((len(p2), 9))
    out[:, 0] = p2
    out[:, 1] = p2 * p2
    out[:, 2] = f2
    out[:, 3] = f2 * f2
    out[:, 4] = det
    out[:, 5] = det * det
    out[:, 6] = p2 * f2
    out[:, 7] = _bullet_qf(_closure_canon(f, phi))
    out[:, 8] = _bullet_qf(_closure_canon(adj_t, phi))
    return out


def _prepare_steps(cfg: SdeConfig):
    x = cfg.grid().lambda2_values
    if cfg.eps == 0.0:
        return x, None, np.zeros(cfg.n_steps)
    factors, damps = [], np.empty(cfg.n_steps)
    for i in range(cfg.n_steps):
        frozen = 0.5 * (x[i] + x[i + 1]) if cfg.lambda2_weighting == "midpoint-frozen" \
            else None
        cov = shellcov.step_covariance(x[i], x[i + 1], cfg.eps, frozen_lambda2=frozen)
        mat = cov.matrix
        if cfg.zero_cross_block:
            mat = mat.copy()
            mat[:2, 6:], mat[6:, :2] = 0.0, 0.0
            cov = shellcov.DriverCovariance(cov.lambda2, cov.eps, mat)
        factors.append(cov.factor())
        damps[i] = np.exp(-(x[i + 1] - x[i]) / cfg.eps ** 2)
    return x, factors, damps


def _record_points(cfg: SdeConfig) -> np.ndarray:
    idx = np.arange(0, cfg.n_steps + 1, cfg.record_stride)
    if idx[-1] != cfg.n_steps:
        idx = np.append(idx, cfg.n_steps)
    return idx


def _snapshot_indices(cfg: SdeConfig, x: np.ndarray) -> dict[int, float]:
    return {int(np.argmin(np.abs(x - pt))): float(pt) for pt in cfg.snapshot_points}


def _run_block(cfg: SdeConfig, x, factors, damps, rec_idx, snap_idx, block, n_block):
    phi = np.zeros((n_block, 2))
    f = np.tile(np.eye(2), (n_block, 1, 1))
    n_rec = len(rec_idx)
    sums = np.zeros((n_rec, 9))
    sumsq = np.zeros((n_rec, 9))
    rec_pos = {int(g): r for r, g in enumerate(rec_idx)}
    snaps = {}

    def record(grid_i):
        r = rec_pos.get(grid_i)
        if r is not None:
            m = _moments(phi, f)
            sums[r] += m.sum(axis=0)
            sumsq[r] += (m * m).sum(axis=0)
        if grid_i in snap_idx:
            f2 = np.sum(f * f, axis=(1, 2))
            det = f[:, 0, 0] * f[:, 1, 1] - f[:, 0, 1] * f[:, 1, 0]
            snaps[grid_i] = (f2.copy(), det.copy())

    record(0)
    for i in range(cfg.n_steps):
        if factors is not None:
            gen = stream(cfg.seed, "proxy-sde", block, counter=i)
            vec = gen.standard_normal((n_block, 12)) @ factors[i].T
            dphi, grad, hess = shellcov.components_to_fields(vec)
            phi_col = phi[:, :, None]
            f += np.matmul(grad, f)
            if cfg.mode == "full":
                # contraction of the Hessian's trailing slot with phi
                f += np.matmul(hess.reshape(n_block, 4, 2), phi_col).reshape(n_block, 2, 2)
            phi = damps[i] * (phi + np.matmul(grad, phi_col)[:, :, 0]) + dphi
        else:
            phi = damps[i] * phi
        record(i + 1)
    if not np.all(np.isfinite(f)):
        raise FloatingPointError(f"non-finite trajectory in block {block} "
                                 f"before lam2 = {x[-1]}")
    return sums, sumsq, snaps


def run_ensemble(cfg: SdeConfig) -> EnsembleResult:
    """Evolve ``cfg.n_traj`` independent trajectories and reduce their moments.

    Deterministic for a given seed regardless of ``workers``; standard errors
    are plain per-quantity sample errors of the mean.
    """
    x, factors, damps = _prepare_steps(cfg)
    rec_idx = _record_points(cfg)
    snap_idx = _snapshot_indices(cfg, x)

    blocks = []
    left = cfg.n_traj
    while left > 0:
        blocks.append(min(cfg.block_size, left))
        left -= blocks[-1]

    def work(b):
        return _run_block(cfg, x, factors, damps, rec_idx, snap_idx, b, blocks[b])

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(work, range(len(blocks))))
    else:
        results = [work(b) for b in range(len(blocks))]

    sums = np.zeros((len(rec_idx), 9))
    sumsq = np.zeros((len(rec_idx), 9))
    snap_parts: dict[int, list] = {g: [] for g in snap_idx}
    for s, sq, snaps in results:
        sums += s
        sumsq += sq
        for g, arrs in snaps.items():
            snap_parts[g].append(arrs)

    n = cfg.n_traj
    means = sums / n
    var = np.maximum(sumsq / n - means ** 2, 0.0) * (n / max(n - 1, 1))
    series = MomentSeries(cfg.eps, x[rec_idx], n, means, np.sqrt(var / n))
    series.validate()

    snapshots = {}
    for g, parts in snap_parts.items():
        snapshots[snap_idx[g]] = {
            "lambda2": float(x[g]),
            "f2": np.concatenate([p[0] for p in parts]),
            "det": np.concatenate([p[1] for p in parts]),
        }
    return EnsembleResult(series, snapshots)


def truncated_second_moment(samples_f2: np.ndarray, r_hat: float) -> float:
    """Fraction of E|F|^2 carried below the relative threshold ``r_hat``.

    Returns ``E[|F|^2 1(|F|^2 <= r_hat E|F|^2)] / E|F|^2``; tends to 1 for
    large thresholds and to 0 for small ones, and its smallness at thresholds
    far below 1 is the non-equi-integrability signature.
    """
    samples_f2 = np.asarray(samples_f2, dtype=float)
    if samples_f2.size == 0:
        raise ValueError("empty sample set")
    mean = samples_f2.mean()
    return float(np.sum(samples_f2[samples_f2 <= r_hat * mean]) / samples_f2.sum())


def histogram(samples_f2: np.ndarray, bins: int | np.ndarray = 60) -> tuple[np.ndarray, np.ndarray]:
    """Probability-mass histogram of |F|^2 / E|F|^2 (masses sum to 1)."""
    samples_f2 = np.asarray(samples_f2, dtype=float)
    if samples_f2.size < 1000:
        raise ValueError("histogram needs at least 1e3 samples")
    ratio = samples_f2 / samples_f2.mean()
    counts, edges = np.histogram(ratio, bins=bins)
    return counts / samples_f2.size, edges


def coupled_refinement(eps: float, lambda2_max: float, base_steps: int,
                       n_traj: int, seed: int = 0, levels: tuple = (1, 2, 4),
                       mode: str = "full", block_size: int = 4096) -> dict[int, dict[str, float]]:
    """Common-noise refinement study for the weak convergence of the scheme.

    Simulates the finest grid once and aggregates its raw increments onto
    each coarser grid, so level differences are dominated by the O(dlam2)
    weak error rather than Monte Carlo noise.  Returns, per refinement
    factor, the final E|F|^2 and the variance of det F.
    """
    finest = max(levels)
    if any(finest % lv for lv in levels):
        raise ValueError("levels must divide the finest refinement")
    x_fine = np.linspace(1.0, lambda2_max, base_steps * finest + 1)
    fine_cfg = [shellcov.step_covariance(x_fine[i], x_fine[i + 1], eps).factor()
                for i in range(base_steps * finest)]
    acc = {lv: np.zeros(3) for lv in levels}

    blocks = []
    left = n_traj
    while left > 0:
        blocks.append(min(block_size, left))
        left -= blocks[-1]

    for b, nb in enumerate(blocks):
        states = {lv: ProxyState.initial(nb) for lv in levels}
        agg = {lv: None for lv in levels}
        for i in range(base_steps * finest):
            gen = stream(seed, "proxy-refine", b, counter=i)
            vec = gen.standard_normal((nb, 12)) @ fine_cfg[i].T
            dphi, grad, hess = shellcov.components_to_fields(vec)
            for lv in levels:
                stride = finest // lv
                i_lo = (i // stride) * stride
                i_hi = i_lo + stride
                # raw-variable aggregation onto the coarse step [x_lo, x_hi]
                w_phi = np.exp((x_fine[i + 1] - x_fine[i_hi]) / eps ** 2)
                w_hess = np.exp(-(x_fine[i] - x_fine[i_lo]) / eps ** 2)
                if agg[lv] is None:
                    agg[lv] = [np.zeros((nb, 2)), np.zeros((nb, 2, 2)),
                               np.zeros((nb, 2, 2, 2))]
                agg[lv][0] += w_phi * dphi
                agg[lv][1] += grad
                agg[lv][2] += w_hess * hess
                if i + 1 == i_hi:
                    inc = shellcov.DriverIncrement(
                        agg[lv][0], agg[lv][1], agg[lv][2],
                        x_fine[i_hi] - x_fine[i_lo], x_fine[i_lo],
                        (x_fine[i_lo] - 1.0) / eps ** 2)
                    states[lv] = step(states[lv], inc, eps, mode)
                    agg[lv] = None
        for lv in levels:
            f = states[lv].f
            det = f[:, 0, 0] * f[:, 1, 1] - f[:, 0, 1] * f[:, 1, 0]
            acc[lv] += [np.sum(f * f) / 1.0, np.sum(det), np.sum(det * det)]

    out = {}
    for lv in levels:
        e_f2 = acc[lv][0] / n_traj
        e_det = acc[lv][1] / n_traj
        e_det2 = acc[lv][2] / n_traj
        out[lv] = {"e_f2": float(e_f2), "e_det": float(e_det),
                   "var_det": float(e_det2 - e_det ** 2)}
    return out


def write_meta(path: str | Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
