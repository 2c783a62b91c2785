"""The three benchmark workloads: inputs from a seed, program calls, checks.

A workload builds its inputs in ``__init__`` (counted as set-up) and runs
one round of program calls in ``run_round``.  Every call into the package
goes through a :class:`Calls` object, which times it and counts it as
attempted or failed; the checks between calls are not timed.  A round
returns the checks of everything it produced.

Sizes: ``full`` is what the benchmark measures, ``tiny`` runs the same code
paths in seconds for the benchmark's own tests.
"""

from __future__ import annotations

import configparser
import contextlib
import time
from pathlib import Path

import numpy as np

from scalehom import cli, corrector, fieldsim, kolmogorov, momentodes, particle, \
    proxysde, rng

import checks
from tracing import Patches


class CallFailed(RuntimeError):
    """A program call raised or returned a failure exit code."""


class Calls:
    """Times program calls (wall and process CPU) and counts the attempted
    and the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.errors: list[str] = []

    def __call__(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # a failing call ends the round; later calls need its output
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            raise CallFailed(name) from exc
        finally:
            self.wall_s += time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0


def _moment_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by ``scalehom sde-run``."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


@contextlib.contextmanager
def _keeping(owner, attr: str, factory):
    """Wrap ``owner.attr`` for the block, so a check can keep what it returns."""
    patches = Patches()
    patches.wrap(owner, attr, factory)
    try:
        yield
    finally:
        patches.undo()


# ---------------------------------------------------------------- sde_run

class SdeRun:
    """``scalehom sde-run`` on the shipped [sde] defaults with one block of
    trajectories, then the moment flow with the Monte Carlo closure read
    back from the written CSV.

    The shipped run is 100,000 trajectories, about 30 s, worked through
    in blocks of ``SdeConfig.block_size`` = 16,384; one such block does the
    same per-step work in a round short enough that a run takes the median
    of several.
    """

    name = "sde_run"
    #: the shipped [sde] defaults this workload is defined on
    SHIPPED = {"eps": 0.2, "lambda2_max": 4.0, "n_steps": 400, "n_traj": 100000,
               "mode": "full", "record_stride": 1}
    SIZES = {"full": {"n_traj": 16384}, "tiny": {"n_traj": 2000, "n_steps": 100}}

    def __init__(self, seed: int, size: str, out_dir: Path):
        parser = configparser.ConfigParser()
        parser.read_string(cli.DEFAULT_CONFIG)
        sec = parser["sde"]
        for key, want in self.SHIPPED.items():
            got = type(want)(sec[key])
            if got != want:
                raise ValueError(f"shipped [sde] {key} = {got!r}, workload expects {want!r}")
        config = "default"
        if self.SIZES[size]:
            for key, val in self.SIZES[size].items():
                sec[key] = str(val)
            path = out_dir / "sde_run.cfg"
            with open(path, "w") as fh:
                parser.write(fh)
            config = str(path)
        self.eps = float(sec["eps"])
        self.lambda2_max = float(sec["lambda2_max"])
        self.dlam2 = (self.lambda2_max - 1.0) / int(sec["n_steps"])
        self.csv = out_dir / "sde_series.csv"
        self.argv = ["sde-run", "--config", config, "--out", str(out_dir),
                     "--seed", str(seed)]

    def _sde_run(self) -> None:
        code = cli.dispatch(self.argv)
        if code != 0:
            raise RuntimeError(f"scalehom sde-run exited with {code}")

    def run_round(self, call: Calls) -> list[checks.Check]:
        return self.check(*self.produce(call))

    def produce(self, call: Calls):
        call("cli.dispatch sde-run", self._sde_run)
        s = _moment_table(self.csv)
        x = s["lambda2"]
        closure = call("momentodes.ClosureSource", momentodes.ClosureSource, "mc", x,
                       s["E_closure_mix"], s["E_closure_bullet"], s["E_closure_adj"])
        table = call("momentodes.integrate_moments", momentodes.integrate_moments,
                     self.eps, self.lambda2_max, closure, x_eval=x)
        return s, table

    def check(self, s: dict, table) -> list[checks.Check]:
        x, eps, h = s["lambda2"], self.eps, self.dlam2
        big_a = checks.big_a_exact(x, eps)
        a_resc = checks.a_resc_exact(x, eps)
        return [
            checks.det_martingale("sde-run E det F", s["E_det"], s["se_det"]),
            checks.matches_exact("sde-run E|F|^2", s["E_f2"], s["se_f2"], big_a, h),
            checks.matches_exact("sde-run E|phi/L|^2", s["E_phi2_resc"],
                                 s["se_phi2_resc"], a_resc, h),
            checks.jensen("sde-run |F|^2", s["E_f2"], s["E_f4"]),
            checks.jensen("sde-run det F", s["E_det"], s["E_det2"]),
            checks.relative_close("moment flow E|F|^2 vs closed form", table.big_a, big_a, 1e-7),
            checks.relative_close("moment flow E|phi/L|^2 vs closed form",
                                  table.a_resc[1:], a_resc[1:], 1e-7),
            checks.matches_exact("moment flow E|F|^4 vs sde-run", s["E_f4"], s["se_f4"],
                                 table.big_b, h),
            checks.matches_exact("moment flow E det^2 vs sde-run", s["E_det2"],
                                 s["se_det2"], table.det2, h),
        ]


# ---------------------------------------------------------------- deep_tail

class DeepTail:
    """Full-mode ensemble to lam2 = 25 with snapshots, truncated moments,
    the Kolmogorov tail chain at two margins and the fourth-moment envelope."""

    name = "deep_tail"
    EPS = 0.2
    LAMBDA2 = 25.0
    SNAPSHOTS = (9.0, 16.0, 25.0)
    MARGINS = (0.1, 1.0)
    SIZES = {"full": {"n_traj": 4096, "n_steps": 1200},
             "tiny": {"n_traj": 4096, "n_steps": 240}}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.cfg = proxysde.SdeConfig(
            eps=self.EPS, lambda2_max=self.LAMBDA2, seed=seed, record_stride=8,
            snapshot_points=self.SNAPSHOTS, **self.SIZES[size])
        self.thresholds = {lam2: checks.relative_threshold(lam2, 0.1)
                           for lam2 in self.SNAPSHOTS}
        self.dlam2 = (self.LAMBDA2 - 1.0) / self.cfg.n_steps

    def run_round(self, call: Calls) -> list[checks.Check]:
        return self.check(*self.produce(call))

    def produce(self, call: Calls):
        res = call("proxysde.run_ensemble", proxysde.run_ensemble, self.cfg)
        fractions = {lam2: call("proxysde.truncated_second_moment",
                                proxysde.truncated_second_moment,
                                res.snapshots[lam2]["f2"], r_rel)
                     for lam2, r_rel in self.thresholds.items()}
        f2 = res.snapshots[self.LAMBDA2]["f2"]
        reports = {m: call("kolmogorov.verify_tail", kolmogorov.verify_tail, f2,
                           self.EPS, self.LAMBDA2, margin=m) for m in self.MARGINS}
        env = call("momentodes.envelope", momentodes.envelope, self.EPS, self.LAMBDA2)
        return res, fractions, reports, env

    def check(self, res, fractions: dict, reports: dict, env) -> list[checks.Check]:
        s, h = res.series, self.dlam2
        out = [
            checks.det_martingale("ensemble E det F", s.column("det"), s.se("det")),
            checks.matches_exact("ensemble E|F|^2", s.column("f2"), s.se("f2"),
                                 checks.big_a_exact(s.lambda2, self.EPS, h=1e-3), h),
            checks.jensen("ensemble |F|^2", s.column("f2"), s.column("f4")),
            checks.intermittency(s.column("f2")[-1], s.column("f4")[-1]),
            checks.inside_envelope(s.column("f4"), s.se("f4"),
                                   np.interp(s.lambda2, env.x, env.b_low),
                                   np.interp(s.lambda2, env.x, env.b_high), h),
        ]
        for lam2, frac in fractions.items():
            own = checks.truncated_fraction(res.snapshots[lam2]["f2"], self.thresholds[lam2])
            out.append(checks.absolute_close(f"truncated second moment at lam2 = {lam2:g}",
                                             frac, own, 1e-12))
        f2 = res.snapshots[self.LAMBDA2]["f2"]
        for margin, rep in reports.items():
            lhs, mid, se = checks.tail_chain(f2, self.LAMBDA2, margin)
            out.append(checks.absolute_close(f"tail chain lhs at margin {margin:g}",
                                             rep.lhs, lhs, 1e-12))
            out.append(checks.absolute_close(f"tail chain E zeta at margin {margin:g}",
                                             rep.e_zeta_mc, mid, 1e-9))
            chain = checks.chain_holds(margin, lhs, mid, se, rep.rhs)
            out.append(chain)
            out.append(checks.Check(f"tail chain verdict at margin {margin:g} agrees",
                                    rep.chain_ok == chain.ok, float(rep.chain_ok),
                                    float(chain.ok)))
        return out


# ---------------------------------------------------------------- spatial

class Spatial:
    """Field-mode ensemble, corrector ensemble and particle clouds.

    The outputs the checks need but the ensemble functions do not return
    (driver fields, corrector solutions, one drift field) are kept by
    wrappers installed around the call that makes them.
    """

    name = "spatial"
    SIZES = {
        "full": {"field": dict(eps=float(np.sqrt(1.5 / np.log(32.0))), l_max=32.0,
                               n=256, n_samples=2),
                 "corrector": dict(eps=0.05, l_max=32.0, n=512, n_samples=1, box_mult=4.0),
                 "annealed": ((16.0, 512, 2), (64.0, 2048, 2)),
                 "paths_per_env": 2048, "t_end": 50.0,
                 "free": dict(n=32, box_len=20.0, t_end=20.0, n_paths=30_000)},
        "tiny": {"field": dict(eps=0.6, l_max=4.0, n=64, n_samples=3),
                 "corrector": dict(eps=0.05, l_max=4.0, n=64, n_samples=2, box_mult=4.0),
                 "annealed": ((4.0, 64, 3), (8.0, 128, 2)),
                 "paths_per_env": 512, "t_end": 10.0,
                 "free": dict(n=16, box_len=10.0, t_end=5.0, n_paths=20_000)},
    }
    DT = 0.1
    PARTICLE_EPS = 0.4

    def __init__(self, seed: int, size: str, out_dir: Path):
        p = self.SIZES[size]
        self.field_cfg = fieldsim.FieldConfig(seed=seed, **p["field"])
        self.corr = dict(p["corrector"], seed=seed + 1)
        self.times = particle.default_sample_times(self.DT, p["t_end"], 12)
        self.annealed = [dict(eps=self.PARTICLE_EPS, l_max=l_max, n=n, dt=self.DT,
                              t_end=p["t_end"], n_envs=n_envs,
                              paths_per_env=p["paths_per_env"], seed=seed + 2 + i,
                              sample_times=self.times)
                         for i, (l_max, n, n_envs) in enumerate(p["annealed"])]
        free = p["free"]
        self.free_grid = fieldsim.TorusGrid(free["n"], free["box_len"])
        self.free_times = particle.default_sample_times(self.DT, free["t_end"], 8)
        self.free_paths = free["n_paths"]
        self.free_t_end = free["t_end"]
        self.free_seed = seed + 4
        if len(np.unique(self.times)) != len(self.times) or self.times[0] <= 0.0:
            raise ValueError("sample times must be distinct and positive")

    def run_round(self, call: Calls) -> list[checks.Check]:
        # each part is checked before the next starts, so what a check keeps
        # alive is released before the next part allocates
        return (self.check_field(*self.run_field(call))
                + self.check_corrector(*self.run_corrector(call))
                + self.check_particle(*self.run_particle(call)))

    def run_field(self, call: Calls):
        kept = []

        def keep(orig):
            def wrapper(*args, **kwargs):
                drv = orig(*args, **kwargs)
                kept[1:] = [drv]        # the first shell and the latest one
                return drv
            return wrapper

        with _keeping(fieldsim, "driver_fields", keep):
            res = call("fieldsim.run_field_ensemble", fieldsim.run_field_ensemble,
                       self.field_cfg)
        return res, kept

    def run_corrector(self, call: Calls):
        kept = []

        def keep(orig):
            def wrapper(coef, xi, *args, **kwargs):
                sol = orig(coef, xi, *args, **kwargs)
                kept.append((coef, sol))
                return sol
            return wrapper

        with _keeping(corrector, "solve_corrector", keep):
            run = call("corrector.run_corrector_ensemble",
                       corrector.run_corrector_ensemble, **self.corr)
        return run, kept

    def run_particle(self, call: Calls):
        kept = []

        def keep(orig):
            def wrapper(cls, *args, **kwargs):
                field = orig(cls, *args, **kwargs)
                if not kept:            # the first environment of the first run
                    kept.append(field)
                return field
            return wrapper

        with _keeping(particle.DriftField, "from_stream", keep):
            annealed = [call("particle.annealed_msd", particle.annealed_msd, **kw)
                        for kw in self.annealed]
        zero = call("particle.DriftField.zero", particle.DriftField.zero, self.free_grid)
        free = call("particle.euler_maruyama", particle.euler_maruyama, zero, self.DT,
                    self.free_t_end, self.free_paths, rng.stream(self.free_seed, "bench-free"),
                    sample_times=self.free_times)
        return annealed, free, kept[0] if kept else None

    def check_field(self, res, drivers: list) -> list[checks.Check]:
        cfg = self.field_cfg
        ladder = cfg.shell_ratio ** np.arange(len(res.l_mids) + 1)
        sd = checks.shell_variance_sd(cfg.n, cfg.box_mult * 2.0 * np.pi * cfg.l_max,
                                      ladder, cfg.eps)
        return [checks.trace_free(drivers),
                checks.quadratic_variation(res.qv_dpsi, cfg.eps ** 2 * np.log(cfg.l_max), sd)]

    def check_corrector(self, run, solves: list) -> list[checks.Check]:
        box = self.corr["box_mult"] * 2.0 * np.pi * self.corr["l_max"]
        residual, flux = (0.0, []) if solves else (np.inf, [0.0, 0.0])
        for coef, sol in solves:
            residual = max(residual, checks.corrector_residual(coef.psi, sol.phi, sol.xi, box))
            flux.append(checks.flux_lambda(coef.psi, sol.phi, sol.xi, box))
        flux = np.asarray(flux).reshape(-1, 2).mean(axis=1)     # two directions per sample
        energy = np.array([st.lambda_avg for st in run.stats])
        gap = float(np.max(np.abs(flux - energy) / (energy - 1.0)))
        return [
            checks.Check("corrector: max relative residual (own FFTs)", residual <= 1e-8,
                         residual, 1e-8),
            checks.Check("corrector: max |flux - energy| / (lambda - 1)", gap <= 1e-6,
                         gap, 1e-6),
            checks.Check("corrector: min flux lambda", bool(flux.min() >= 1.0),
                         float(flux.min()), 1.0),
        ]

    def check_particle(self, annealed: list, free, drift) -> list[checks.Check]:
        div = checks.max_divergence(drift.b, drift.grid.box_len) if drift else np.inf
        out = [checks.msd_free_slope(free.times, free.msd, free.se),
               checks.Check("drift: max |div b| / max |b| (own FFTs)", div <= 1e-10,
                            div, 1e-10)]
        for kw, res in zip(self.annealed, annealed):
            out.append(checks.enhancement(f"annealed L = {kw['l_max']:g}", res.times,
                                          res.total, res.total_se))
        return out


WORKLOADS = {w.name: w for w in (SdeRun, DeepTail, Spatial)}
