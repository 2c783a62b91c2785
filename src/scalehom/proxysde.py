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
exponential with unit determinant.  :func:`euler_update` is the one
implementation of this step, on component planes (phi^0, phi^1, F00, F01,
F10, F11) of any batch shape; the field mode uses it too.

Trajectories run in fixed-size blocks, in order, and block results are
reduced in block order.  Each (block, step) draws its ``shellcov.RANK``
normals per trajectory from its own SFC64 stream keyed by (seed, block,
step).  The caller's thread counts as one of the :func:`draw_threads`
threads: it turns each step's normals into driver increments and applies
the step, while the other one draws the next DRAW_AHEAD steps' normals into
a ring (on one CPU there is none, and the caller draws inline).  When the
caller is ahead of the drawer, it takes queued steps back from the far end
of that queue and draws them itself (work stealing), so neither thread
waits for long.  Each step still draws from its own stream into its own
ring slot, so output is identical for any number of draw threads and any
schedule; the drawing runs in parallel, not the blocks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import rng, shellcov
from .tensor2d import HESS_SLOTS

MOMENT_NAMES = (
    "phi2_resc", "phi4_resc", "f2", "f4", "det", "det2",
    "closure_mix", "closure_bullet", "closure_adj",
)

#: steps queued for drawing ahead of the one being applied; the ring of
#: normals holds one more
DRAW_AHEAD = 3
#: the most threads :func:`draw_threads` gives, the caller's own among them
MAX_DRAW_THREADS = 2
#: trajectories per block; the block index keys the stream of its normals,
#: so this value is part of the stream layout
BLOCK_SIZE = 16384
#: the generator of one (block, step) cell's normals, part of the stream layout
stream = rng.sfc64_stream


def draw_threads() -> int:
    """Threads that run the proxy SDE, the caller's own among them, and that
    run the independent units of the spatial ensembles (:func:`_map_units`):
    the CPUs this process may run on (one under ``taskset -c 0``), capped at
    MAX_DRAW_THREADS; 1 runs inline, starting none."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else range(os.cpu_count() or 1)
    return min(len(cpus), MAX_DRAW_THREADS)


def _map_units(fn, units, name: str) -> list:
    """``[fn(u) for u in units]`` on up to :func:`draw_threads` threads, or
    inline when that is 1.  Each unit keys its own streams and writes only
    its own results, so the outcome is the same for any thread count.

    An exception raised by ``fn(u)`` reaches the caller with ``name.format(u)``
    put before its message; the first failing unit in order is the one
    reported, and units not yet started are cancelled.
    """
    units = list(units)
    n_workers = min(draw_threads(), len(units))
    if n_workers <= 1:
        return [_run_unit(fn, u, name) for u in units]
    pool = ThreadPoolExecutor(n_workers)
    try:
        futures = [pool.submit(_run_unit, fn, u, name) for u in units]
        return [fut.result() for fut in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _run_unit(fn, u, name: str):
    try:
        return fn(u)
    except Exception as exc:
        if exc.args != (str(exc),):
            raise       # not a plain message, passed on as raised
        raise type(exc)(f"{name.format(u)}: {exc}") from exc


@dataclass(frozen=True)
class SdeConfig:
    """Parameters of one ensemble run.

    ``mode='exp'`` drops the Hessian-driven term.  ``snapshot_points`` lists
    lam2 values (matched to the nearest grid point) at which per-trajectory
    samples of |F|^2 and det F are retained.  ``record_stride`` thins the
    grid points at which moments are accumulated.  Trajectories run in
    blocks of BLOCK_SIZE, and :func:`draw_threads` threads draw their normals.
    """

    eps: float
    lambda2_max: float
    n_steps: int
    n_traj: int
    seed: int = 0
    mode: str = "full"
    snapshot_points: tuple = ()
    record_stride: int = 1
    lambda2_weighting: str = "exact"

    def __post_init__(self):
        if self.n_steps < 1 or self.n_traj < 1:
            raise ValueError("n_steps and n_traj must be positive")
        if not self.lambda2_max > 1.0:
            raise ValueError("lambda2_max must exceed 1")
        if self.mode not in ("full", "exp"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lambda2_weighting not in ("exact", "midpoint-frozen"):
            raise ValueError(f"unknown weighting {self.lambda2_weighting!r}")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    def grid(self) -> np.ndarray:
        """Uniform scale grid 1 = lam2_0 < ... < lam2_n = lambda2_max."""
        return np.linspace(1.0, self.lambda2_max, self.n_steps + 1)


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


@dataclass
class EnsembleResult:
    """Moment series and snapshots of one run.

    ``caller_drawn_steps`` counts the (block, step) cells whose normals the
    caller's thread drew, all of them when it runs inline: it depends on
    scheduling alone, and no moment or snapshot depends on it.
    """

    series: MomentSeries
    snapshots: dict = field(default_factory=dict)   # lambda2 -> {"f2": ..., "det": ...}
    caller_drawn_steps: int = 0


def euler_update(phi: np.ndarray, f: np.ndarray, inc, damp=1.0,
                 full: bool = True) -> None:
    """The Euler step of the module docstring, in place on component planes.

    ``phi`` (2, ...) and ``f`` (2, 2, ...) hold the state component-major for
    any batch shape; ``inc`` is the 11 increment planes of
    :func:`shellcov.components_to_fields` (g11 = -g00, which enters as a
    subtraction).  ``damp`` is exp(-dlam2/eps^2) for the stored phi/L and 1
    in raw variables (field mode); ``full=False`` drops the Hessian term
    (``exp`` mode).  Each entry is (a x + b y) + c, summed in this order as
    by separate array expressions, so the result is theirs to the bit; three
    scratch planes are the only memory a call takes.
    """
    p0, p1 = phi[0, ...], phi[1, ...]
    d0, d1, g00, g01, g10, *h = inc
    s, t, u = np.empty((3, *p0.shape))
    for j in (0, 1):
        # column j of F: both new entries read the old (F0j, F1j)
        a, b = f[0, j, ...], f[1, j, ...]
        _pair(g00, a, g01, b, s, u)
        _pair(g10, a, g00, b, t, u, np.subtract)
        a += s
        b += t
        if full:
            # h is (h000, h001, h011, h100, h101, h111); F_cj gains
            # h_cj0 phi0 + h_cj1 phi1, with h_c10 = h_c01
            a += _pair(h[j], p0, h[j + 1], p1, s, u)
            b += _pair(h[3 + j], p0, h[4 + j], p1, s, u)
    _pair(g00, p0, g01, p1, s, u)
    _pair(g10, p0, g00, p1, t, u, np.subtract)
    for p, q, d in ((p0, s, d0), (p1, t, d1)):
        p += q
        p *= damp
        p += d


def _pair(a, x, b, y, out, tmp, op=np.add):
    """``out = op(a x, b y)``, with ``tmp`` as scratch."""
    np.multiply(a, x, out=out)
    return op(out, np.multiply(b, y, out=tmp), out=out)


def increment_planes(dphi: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> list:
    """The 11 increment planes from component-major (dphi, grad, hess) arrays.

    Raises ``ValueError`` unless the gradient is trace free, as the kernel
    assumes.
    """
    if np.any(grad[0, 0] != -grad[1, 1]):
        raise ValueError("gradient increment must be trace free")
    return [dphi[0, ...], dphi[1, ...], grad[0, 0, ...], grad[0, 1, ...],
            grad[1, 0, ...], *(hess[s + (...,)] for s in HESS_SLOTS)]


def moment_planes(phi: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The nine tracked quantities at each of m points, written to ``out`` (9, m).

    ``phi`` (2, ...) and ``f`` (2, 2, ...) are component-major.  The closure
    terms bullet(sym(M (x) phi)) for M = F and M = adj(F)^T expand
    ``tensor2d._BULLET_GRAM6`` by hand: with d = M00 - M11, r = M01 - M10,

        bullet = ((d phi1 + r phi0)^2 + (d phi0 + r phi1)^2) / 16
                 + ((M01 phi1)^2 + (M10 phi0)^2) / 4.

    Sums run left to right, as the formulas read, on four scratch planes.
    """
    p0, p1 = phi.reshape(2, -1)
    f00, f01, f10, f11 = f.reshape(4, -1)
    q, q2, a, a2, det, det2, mix, bul, adj = out
    d, r, s, t = np.empty((4, p0.size))
    np.multiply(p0, p0, out=q)
    q += np.multiply(p1, p1, out=s)
    np.multiply(f00, f00, out=a)
    for c in (f01, f10, f11):
        a += np.multiply(c, c, out=s)
    np.multiply(f00, f11, out=det)
    det -= np.multiply(f01, f10, out=s)
    np.multiply(q, q, out=q2)
    np.multiply(a, a, out=a2)
    np.multiply(det, det, out=det2)
    np.multiply(q, a, out=mix)
    np.subtract(f00, f11, out=d)
    np.subtract(f01, f10, out=r)
    np.multiply(d, p1, out=s)           # d phi1
    np.multiply(r, p0, out=t)           # r phi0
    d *= p0                             # d phi0
    r *= p1                             # r phi1
    np.add(s, t, out=bul)
    np.subtract(t, s, out=adj)
    np.add(d, r, out=s)
    np.subtract(r, d, out=t)
    # bul takes (f01 phi1)^2 + (f10 phi0)^2, adj the same with f01, f10 swapped
    for row, sq, m1, m0 in ((bul, s, f01, f10), (adj, t, f10, f01)):
        row *= row
        row += np.multiply(sq, sq, out=sq)
        row /= 16
        np.multiply(m1, p1, out=d)
        d *= d
        np.multiply(m0, p0, out=r)
        d += np.multiply(r, r, out=r)
        d /= 4
        row += d
    return out


def _prepare_steps(cfg: SdeConfig):
    """The grid, every step's (12, RANK) factor as one stack, and its damping."""
    x = cfg.grid()
    lo, hi = x[:-1], x[1:]
    frozen = 0.5 * (lo + hi) if cfg.lambda2_weighting == "midpoint-frozen" else None
    factors = shellcov.step_covariance(lo, hi, cfg.eps, frozen_lambda2=frozen).factor()
    return x, factors, np.exp(-(hi - lo) / cfg.eps ** 2)


def _record_points(cfg: SdeConfig) -> np.ndarray:
    idx = np.arange(0, cfg.n_steps + 1, cfg.record_stride)
    if idx[-1] != cfg.n_steps:
        idx = np.append(idx, cfg.n_steps)
    return idx


def _snapshot_indices(cfg: SdeConfig, x: np.ndarray) -> dict[int, float]:
    return {int(np.argmin(np.abs(x - pt))): float(pt) for pt in cfg.snapshot_points}


def _blocks(n_traj: int, block_size: int) -> list[int]:
    """Sizes of the fixed-size trajectory blocks, the last one possibly short."""
    return [min(block_size, n_traj - start) for start in range(0, n_traj, block_size)]


def _initial_planes(*shape: int) -> tuple[np.ndarray, np.ndarray]:
    """Component-major (phi, F) = (0, id) of batch shape ``shape``."""
    f = np.zeros((2, 2, *shape))
    f[0, 0] = f[1, 1] = 1.0
    return np.zeros((2, *shape)), f


def _normals(pool, seed: int, block: int, n_steps: int, n_rows: int):
    """Each step's ``(n_rows, shellcov.RANK)`` standard normals, step ``i``
    from ``stream(seed, "proxy-sde", block, counter=i)``, with the number of
    steps the caller drew since the last one was yielded.

    With a pool, steps i+1 ... i+DRAW_AHEAD are queued on its threads, each
    into its own slot of a ring of DRAW_AHEAD + 1 buffers, while the caller
    uses step i.  When the caller asks for step i before it is drawn, it
    draws i itself if no thread has started it; otherwise it cancels the
    furthest queued step that no thread has started and draws that one into
    its slot, until step i is done or nothing is left queued.
    """
    shape = (n_rows, shellcov.RANK)
    ring = np.empty((1 if pool is None else DRAW_AHEAD + 1, *shape))

    def draw(i):
        return stream(seed, "proxy-sde", block, counter=i).standard_normal(
            shape, out=ring[i % len(ring)])

    if pool is None:
        for i in range(n_steps):
            yield draw(i), 1
        return
    # step -> its future, or None once the caller has drawn it
    ahead = {i: pool.submit(draw, i) for i in range(min(DRAW_AHEAD, n_steps))}
    for i in range(n_steps):
        if i + DRAW_AHEAD < n_steps:
            # the slot of step i - 1, which the caller is done with
            ahead[i + DRAW_AHEAD] = pool.submit(draw, i + DRAW_AHEAD)
        fut = ahead.pop(i)
        if fut is None:
            yield ring[i % len(ring)], 0
        elif fut.cancel():
            yield draw(i), 1
        else:
            taken = 0
            for j in sorted(ahead, reverse=True):
                if fut.done():
                    break
                if ahead[j] is not None and ahead[j].cancel():
                    draw(j)
                    ahead[j] = None
                    taken += 1
            yield fut.result(), taken


def _run_block(cfg: SdeConfig, x, factors, damps, rec_idx, snap_idx, block, n_block,
               pool):
    phi, f = _initial_planes(n_block)
    normals = _normals(pool, cfg.seed, block, cfg.n_steps, n_block)
    caller_drawn = 0
    vec = np.empty((n_block, 12))
    buf = np.empty((9, n_block))
    sums = np.zeros((len(rec_idx), 9))
    m2 = np.zeros((len(rec_idx), 9))
    rec_pos = {int(g): r for r, g in enumerate(rec_idx)}
    snaps = {}

    def record(grid_i):
        r = rec_pos.get(grid_i)
        if r is not None:
            m = moment_planes(phi, f, buf)
            sums[r] += m.sum(axis=1)
            # M2 from planes centred in place about the block mean, free of
            # the cancellation in sumsq/n - mean^2
            m -= (sums[r] / n_block)[:, None]
            m2[r] = np.einsum("ij,ij->i", m, m)
        if grid_i in snap_idx:
            snaps[grid_i] = (np.sum(f * f, axis=(0, 1)), f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0])

    record(0)
    for i in range(cfg.n_steps):
        z, drawn = next(normals)
        caller_drawn += drawn
        shellcov.gaussian_from_factor(factors[i], z, vec)
        euler_update(phi, f, shellcov.components_to_fields(vec), damps[i],
                     cfg.mode == "full")
        record(i + 1)
    # the last grid point is always recorded, so a non-finite phi or F shows
    # in the sums; they date the failure at no per-step cost
    bad_rows = np.flatnonzero(~np.isfinite(sums).all(axis=1))
    if bad_rows.size:
        g = int(rec_idx[bad_rows[0]])
        final = np.concatenate([phi, f.reshape(4, -1), moment_planes(phi, f, buf)])
        bad = np.flatnonzero(~np.isfinite(final).all(axis=0))
        who = (f"first bad trajectory {block * BLOCK_SIZE + bad[0]}" if bad.size
               else "final state finite")
        raise FloatingPointError(
            f"non-finite trajectory in block {block}: {who}, moment sums first "
            f"non-finite at lam2 = {x[g]:.17g} (grid step {g})")
    return sums, m2, snaps, caller_drawn


def run_ensemble(cfg: SdeConfig) -> EnsembleResult:
    """Evolve ``cfg.n_traj`` independent trajectories and reduce their moments.

    Deterministic for a given seed, whatever the draw threads; standard errors
    are plain per-quantity sample errors of the mean, from each block's
    centred M2 merged in block order by the pairwise update of Chan, Golub
    and LeVeque, which keeps them accurate where the variance is small
    against the squared mean.
    """
    x, factors, damps = _prepare_steps(cfg)
    rec_idx = _record_points(cfg)
    snap_idx = _snapshot_indices(cfg, x)

    sums = np.zeros((len(rec_idx), 9))
    m2 = np.zeros((len(rec_idx), 9))
    n_done = caller_drawn = 0
    snap_parts: dict[int, list] = {g: [] for g in snap_idx}
    # the caller is one of the draw threads: it applies each step while the
    # pool's threads draw the next ones, and draws queued ones when it is ahead
    n_draw = draw_threads()
    with ThreadPoolExecutor(n_draw - 1) if n_draw > 1 else nullcontext() as pool:
        for b, n_block in enumerate(_blocks(cfg.n_traj, BLOCK_SIZE)):
            s, m2_b, snaps, drawn = _run_block(cfg, x, factors, damps, rec_idx,
                                               snap_idx, b, n_block, pool)
            caller_drawn += drawn
            n_done = merge_moments(sums, m2, n_done, s, m2_b, n_block)
            for g, arrs in snaps.items():
                snap_parts[g].append(arrs)

    n = cfg.n_traj
    var = m2 / max(n - 1, 1)
    series = MomentSeries(cfg.eps, x[rec_idx], n, sums / n, np.sqrt(var / n))
    series.validate()

    snapshots = {}
    for g, parts in snap_parts.items():
        snapshots[snap_idx[g]] = {
            "lambda2": float(x[g]),
            "f2": np.concatenate([p[0] for p in parts]),
            "det": np.concatenate([p[1] for p in parts]),
        }
    return EnsembleResult(series, snapshots, caller_drawn)


def merge_moments(sums: np.ndarray, m2: np.ndarray, n: int, part_sums: np.ndarray,
                  part_m2: np.ndarray, n_part: int) -> int:
    """Fold one part's sums and centred M2 of ``n_part`` samples into the
    running ``sums`` and ``m2`` of ``n`` samples, in place, by the pairwise
    update of Chan, Golub and LeVeque; returns the merged count.  Merged into
    zeros (``n`` = 0), a part's own sums and M2 are kept exactly."""
    if n:
        delta = part_sums / n_part - sums / n
        part_m2 = part_m2 + delta ** 2 * (n * n_part / (n + n_part))
    m2 += part_m2
    sums += part_sums
    return n + n_part


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
