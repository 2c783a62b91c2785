"""Experiment orchestration: config parsing, dispatch, and atomic outputs.

Configs are plain ``key = value`` text with one section per module; unknown
sections or keys are rejected and every numeric range is validated before any
work starts.  Outputs are written atomically (temporary file, then rename):
CSV data with 17 significant digits plus a JSON sidecar carrying the config
hash, package and library versions, seed, and wall time.  Data files are
byte-identical across repeated runs with the same config and seed,
independent of the worker count; wall time lives only in the sidecar.

Exit codes: 0 success, 1 argument/config validation failure, 2 numeric
failure (non-convergence, non-finite states, failed acceptance criteria).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, acceptance, corrector, fieldsim, kolmogorov, \
    momentodes, particle, proxysde

_POS = ("positive", lambda v: v > 0)
_NONNEG = ("nonnegative", lambda v: v >= 0)
_GT1 = ("> 1", lambda v: v > 1)

#: section -> key -> (parser, predicate description, predicate)
SCHEMA = {
    "run": {
        "seed": (int, _NONNEG),
        "threads": (int, _POS),
        "out_dir": (str, None),
    },
    "sde": {
        "eps": (float, _NONNEG),
        "lambda2_max": (float, _GT1),
        "n_steps": (int, _POS),
        "n_traj": (int, _POS),
        "mode": (str, ("full or exp", lambda v: v in ("full", "exp"))),
        "record_stride": (int, _POS),
        "snapshot_points": (str, None),
    },
    "ode": {
        "eps": (float, _NONNEG),
        "x_end": (float, _GT1),
        "n_points": (int, ("at least 2", lambda v: v >= 2)),
    },
    "tail": {
        "tau": (float, _POS),
        "sigma_hat": (float, None),
        "margin": (float, _POS),
    },
    "field": {
        "eps": (float, _POS),
        "l_max": (float, _GT1),
        "n": (int, ("power of two", lambda v: v > 1 and v & (v - 1) == 0)),
        "box_mult": (float, _POS),
        "n_samples": (int, _POS),
        "save_snapshot": (str, ("true or false", lambda v: v in ("true", "false"))),
    },
    "corrector": {
        "eps": (float, _POS),
        "l_max": (float, _GT1),
        "n": (int, ("power of two", lambda v: v > 1 and v & (v - 1) == 0)),
        "box_mult": (float, _POS),
        "n_samples": (int, _POS),
        "tol": (float, _POS),
    },
    "particle": {
        "eps": (float, _NONNEG),
        "l_list": (str, None),
        "n_list": (str, None),
        "dt": (float, ("in (0, 0.1]", lambda v: 0 < v <= 0.1)),
        "t_end": (float, _POS),
        "n_envs": (int, _POS),
        "paths_per_env": (int, _POS),
    },
}

DEFAULT_CONFIG = """\
[run]
seed = 11
threads = 1
out_dir = .

[sde]
eps = 0.2
lambda2_max = 4.0
n_steps = 400
n_traj = 100000
mode = full
record_stride = 1
snapshot_points =

[ode]
eps = 0.2
x_end = 4.0
n_points = 201

[tail]
tau = 3.2188758248682006
sigma_hat = -3.29
margin = 0.1

[field]
eps = 0.6578818376172799
l_max = 32.0
n = 256
box_mult = 4.0
n_samples = 24
save_snapshot = false

[corrector]
eps = 0.05
l_max = 32.0
n = 512
box_mult = 4.0
n_samples = 20
tol = 1e-10

[particle]
eps = 0.4
l_list = 16, 64
n_list = 512, 2048
dt = 0.1
t_end = 250.0
n_envs = 12
paths_per_env = 8192
"""


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated, typed view of a sectioned key = value configuration."""

    def __init__(self, sections: dict):
        self.sections = sections

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self.sections == other.sections

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        sections = {}
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            out = {}
            for key, raw in parser[section].items():
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                caster, check = SCHEMA[section][key]
                try:
                    val = caster(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"[{section}] {key} = {raw!r}: not a valid "
                        f"{caster.__name__}") from exc
                if check is not None and not check[1](val):
                    raise ConfigError(f"[{section}] {key} = {raw!r}: must be {check[0]}")
                out[key] = val
            sections[section] = out
        for section, keys in SCHEMA.items():
            missing = set(keys) - set(sections.get(section, ()))
            if missing:
                raise ConfigError(
                    f"missing keys in section [{section}]: {sorted(missing)}")
        return cls(sections)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        if path == "default":
            return cls.parse(DEFAULT_CONFIG)
        return cls.parse(Path(path).read_text())

    def dumps(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self.sections.items():
            parser[section] = {k: self._fmt(v) for k, v in keys.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def sha256(self) -> str:
        payload = json.dumps(self.sections, sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def parse_list(raw: str, caster=float) -> list:
        return [caster(tok.strip()) for tok in raw.split(",") if tok.strip()]


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write through a temporary file in the target directory, then rename."""
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    atomic_write(path, buf.getvalue())


def write_sidecar(path: Path, cfg: RunConfig, seed: int, wall_s: float,
                  extra: dict | None = None) -> None:
    payload = {
        "config_sha256": cfg.sha256(),
        "scalehom_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "seed": seed,
        "wall_time_s": wall_s,
    }
    if extra:
        payload.update(extra)
    atomic_write(path.with_suffix(path.suffix + ".meta.json"),
                 json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _run_common(cfg: RunConfig, args) -> tuple[int, int, Path]:
    seed = args.seed if args.seed is not None else cfg["run"]["seed"]
    threads = args.threads if args.threads is not None else cfg["run"]["threads"]
    out = Path(args.out if args.out is not None else cfg["run"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return seed, threads, out


def cmd_sde_run(cfg: RunConfig, args) -> int:
    seed, threads, out = _run_common(cfg, args)
    sec = cfg["sde"]
    t0 = time.perf_counter()
    run = proxysde.SdeConfig(
        eps=sec["eps"], lambda2_max=sec["lambda2_max"], n_steps=sec["n_steps"],
        n_traj=sec["n_traj"], seed=seed, mode=sec["mode"],
        record_stride=sec["record_stride"], workers=threads,
        snapshot_points=tuple(RunConfig.parse_list(sec["snapshot_points"])))
    res = proxysde.run_ensemble(run)
    s = res.series
    path = out / "sde_series.csv"
    header = ["lambda2", "ln_l"] + [f"E_{n}" for n in proxysde.MOMENT_NAMES] \
        + [f"se_{n}" for n in proxysde.MOMENT_NAMES]
    rows = [[s.lambda2[i], s.ln_l[i], *s.means[i], *s.ses[i]]
            for i in range(len(s.lambda2))]
    write_csv(path, header, rows)
    write_sidecar(path, cfg, seed, time.perf_counter() - t0,
                  {"n_traj": run.n_traj, "mode": run.mode})
    print(f"wrote {path}")
    return 0


def cmd_ode_run(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    sec = cfg["ode"]
    t0 = time.perf_counter()
    xs = np.linspace(1.0, sec["x_end"], sec["n_points"])
    table = momentodes.integrate_moments(sec["eps"], sec["x_end"],
                                         momentodes.ClosureSource.bound(), x_eval=xs)
    env = momentodes.envelope(sec["eps"], sec["x_end"])
    b_lo = np.interp(xs, env.x, env.b_low)
    b_hi = np.interp(xs, env.x, env.b_high)
    c_lo = np.interp(xs, env.x, env.c_low)
    c_hi = np.interp(xs, env.x, env.c_high)
    path = out / "ode_series.csv"
    ln_l = (xs - 1.0) / sec["eps"] ** 2 if sec["eps"] > 0 else np.zeros_like(xs)
    header = ["lambda2", "ln_l", "E_phi2_resc", "E_phi4_resc", "E_f2", "E_f4",
              "E_det", "E_det2", "env_f4_low", "env_f4_high", "env_det2_low",
              "env_det2_high"]
    rows = [[xs[i], ln_l[i], table.a_resc[i], table.b_resc[i], table.big_a[i],
             table.big_b[i], table.det[i], table.det2[i],
             b_lo[i], b_hi[i], c_lo[i], c_hi[i]] for i in range(len(xs))]
    write_csv(path, header, rows)
    write_sidecar(path, cfg, seed, time.perf_counter() - t0,
                  {"envelope_constants": env.constants})
    print(f"wrote {path}")
    return 0


def cmd_tail_check(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    sec = dict(cfg["tail"])
    if args.tau is not None:
        sec["tau"] = args.tau
    if args.sigma_hat is not None:
        sec["sigma_hat"] = args.sigma_hat
    if args.margin is not None:
        sec["margin"] = args.margin
    t0 = time.perf_counter()
    tcfg = kolmogorov.TailConfig(sec["tau"], sec["sigma_hat"], regime_margin=sec["margin"])
    ramp = kolmogorov.RampEvolution(tcfg.sigma_hat)
    grid = tcfg.grid()[:: max(1, tcfg.n_sigma // 2000)]
    slices = np.linspace(0.0, tcfg.tau, 5)
    path = out / "tail_profiles.csv"
    header = ["sigma"] + [f"zeta_hat_tau_{tp:.6g}" for tp in slices]
    cols = [ramp.value(tcfg.tau - tp, grid) for tp in slices]
    rows = [[grid[i], *[c[i] for c in cols]] for i in range(len(grid))]
    write_csv(path, header, rows)
    terms = kolmogorov.bound_terms(tcfg)
    summary = {
        "tau": tcfg.tau, "sigma_hat": tcfg.sigma_hat,
        "zeta_at_origin": kolmogorov.zeta_at_origin(tcfg),
        "i1": terms.i1, "i2": terms.i2, "margin": sec["margin"],
        "regime_ok": kolmogorov.in_regime(tcfg, np.exp(tcfg.tau)),
    }
    spath = out / "tail_summary.json"
    atomic_write(spath, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_sidecar(path, cfg, seed, time.perf_counter() - t0)
    print(f"wrote {path} and {spath}")
    return 0


def cmd_field_run(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    sec = cfg["field"]
    t0 = time.perf_counter()
    fcfg = fieldsim.FieldConfig(eps=sec["eps"], l_max=sec["l_max"], n=sec["n"],
                                box_mult=sec["box_mult"],
                                n_samples=sec["n_samples"], seed=seed)
    keep = sec["save_snapshot"] == "true"
    res = fieldsim.run_field_ensemble(fcfg, keep_final=keep)
    mean, se = res.moments()
    path = out / "field_moments.csv"
    header = ["lambda2"] + [f"E_{n}" for n in proxysde.MOMENT_NAMES] \
        + [f"se_{n}" for n in proxysde.MOMENT_NAMES]
    rows = [[res.lambda2[i], *mean[i], *se[i]] for i in range(len(res.lambda2))]
    write_csv(path, header, rows)
    qv = fieldsim.empirical_qv(res)
    extra = {"qv_accumulated": qv.accumulated_dpsi,
             "qv_expected": qv.expected_dpsi,
             "qv_ok": qv.ok()}
    if keep:
        snap = out / "field_state.bin"
        fieldsim.save_snapshot(snap, res.final_state, fcfg.grid().box_len)
        extra["snapshot"] = str(snap)
    write_sidecar(path, cfg, seed, time.perf_counter() - t0, extra)
    print(f"wrote {path}")
    return 0


def cmd_corrector_run(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    sec = cfg["corrector"]
    t0 = time.perf_counter()
    run = corrector.run_corrector_ensemble(
        sec["eps"], sec["l_max"], sec["n"], sec["n_samples"], seed=seed,
        box_mult=sec["box_mult"], tol=sec["tol"])
    r_sched = (0.25, 0.5, 1.0, 2.0, 4.0)
    path = out / "corrector.csv"
    header = ["eps", "l_max", "n", "lambda", "lambda_se", "E_f2", "E_absdet",
              "E_det"] + [f"trunc_r{r:g}" for r in r_sched]
    rows = []
    for st in run.stats:
        rows.append([sec["eps"], sec["l_max"], sec["n"], st.lambda_avg,
                     run.lambda_se, st.mean_f2, st.mean_abs_det, st.mean_det]
                    + [st.truncated[r] for r in r_sched])
    write_csv(path, header, rows)
    write_sidecar(path, cfg, seed, time.perf_counter() - t0,
                  {"lambda_mean": run.lambda_mean, "lambda_se": run.lambda_se})
    print(f"wrote {path}")
    return 0


def cmd_particle_run(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    sec = cfg["particle"]
    ls = RunConfig.parse_list(sec["l_list"])
    ns = RunConfig.parse_list(sec["n_list"], int)
    if len(ls) != len(ns):
        raise ConfigError("l_list and n_list must have equal length")
    t0 = time.perf_counter()
    times = particle.default_sample_times(sec["dt"], sec["t_end"])
    estimates = []
    for i, (l_max, n) in enumerate(zip(ls, ns)):
        res = particle.annealed_msd(sec["eps"], l_max, n, sec["dt"], sec["t_end"],
                                    sec["n_envs"], sec["paths_per_env"],
                                    seed=seed + i, sample_times=times)
        est = res.as_estimate()
        estimates.append(est)
        path = out / f"msd_L{l_max:g}.csv"
        header = ["t", "msd_x", "msd_y", "se_x", "se_y"]
        rows = [[times[j], est.msd[0, j], est.msd[1, j], est.se[0, j], est.se[1, j]]
                for j in range(len(times))]
        write_csv(path, header, rows)
        write_sidecar(path, cfg, seed, time.perf_counter() - t0)
    summary = {}
    if len(estimates) >= 2:
        ratio, se, t_cmp = particle.msd_growth_ratio(estimates[0], estimates[-1],
                                                     min(ls))
        summary = {"growth_ratio": ratio, "ratio_se": se, "compare_time": t_cmp}
    spath = out / "particle_summary.json"
    atomic_write(spath, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {spath}")
    return 0


def cmd_qv_check(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    t0 = time.perf_counter()
    r1 = acceptance.criterion_1_algebra()
    r2 = acceptance.criterion_2_covariance()
    path = out / "qv_check.json"
    payload = {r.name: r.payload() for r in (r1, r2)}
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    write_sidecar(path, cfg, seed, time.perf_counter() - t0)
    print(f"wrote {path}")
    return 0 if (r1.passed and r2.passed) else 2


def cmd_accept(cfg: RunConfig, args) -> int:
    seed, _, out = _run_common(cfg, args)
    if seed != acceptance.SEED:
        print(f"config error: accept runs at the fixed seed {acceptance.SEED} "
              f"(acceptance.SEED), not {seed}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    results = acceptance.run_all(verbose=True)
    path = out / "accept.json"
    payload = {r.name: r.payload() for r in results}
    payload["all_pass"] = all(r.passed for r in results)
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")
    write_sidecar(path, cfg, acceptance.SEED, time.perf_counter() - t0)
    print(f"wrote {path}")
    return 0 if payload["all_pass"] else 2


HANDLERS = {
    "qv-check": cmd_qv_check,
    "sde-run": cmd_sde_run,
    "ode-run": cmd_ode_run,
    "tail-check": cmd_tail_check,
    "field-run": cmd_field_run,
    "corrector-run": cmd_corrector_run,
    "particle-run": cmd_particle_run,
    "accept": cmd_accept,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalehom",
        description="scale-by-scale homogenization laboratory")
    parser.add_argument("command", choices=sorted(HANDLERS))
    parser.add_argument("--config", required=True,
                        help="config file path, or 'default'")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--tau", type=float, default=None,
                        help="tail-check: terminal time override")
    parser.add_argument("--sigma-hat", dest="sigma_hat", type=float, default=None,
                        help="tail-check: truncation location override")
    parser.add_argument("--margin", type=float, default=None,
                        help="tail-check: regime margin override")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig.load(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return HANDLERS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
