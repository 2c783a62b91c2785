"""Experiment orchestration: config parsing, dispatch, and atomic outputs.

Configs are plain ``key = value`` text with one section per module; unknown
sections or keys are rejected and every value, from a file or a flag, is
validated before any work starts.  Each command is a row of ``COMMANDS``
whose runner computes named outputs; ``dispatch`` writes each atomically
(CSV with 17 significant digits, JSON, or a field snapshot) with a JSON
sidecar carrying the config hash, versions, seed, and wall time.  Data files
are byte-identical across runs with the same config and seed, on any number
of CPUs; wall time lives only in the sidecars.

Exit codes: 0 success, 1 argument/config validation failure, 2 numeric
failure (non-convergence, non-finite states, failed acceptance criteria).
"""

from __future__ import annotations

import argparse
import configparser
from collections import namedtuple
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


def parse_list(raw: str, caster=float) -> list:
    return [caster(tok.strip()) for tok in raw.split(",") if tok.strip()]


def _entries(desc: str, caster=float, ok=lambda v: True, empty_ok=False) -> tuple:
    """Predicate on a comma list: every entry parses and passes ``ok``."""
    def check(raw: str) -> bool:
        try:
            vals = parse_list(raw, caster)
        except ValueError:
            return False
        return (empty_ok or bool(vals)) and all(ok(v) for v in vals)
    return desc, check


_POS = ("positive", lambda v: v > 0)
_NONNEG = ("nonnegative", lambda v: v >= 0)
_GT1 = ("> 1", lambda v: v > 1)
_POW2 = ("power of two", lambda v: v > 1 and v & (v - 1) == 0)

#: section -> key -> (default text, parser, (predicate description, predicate)
#: or None); ``DEFAULT_CONFIG`` is rendered from the defaults
SCHEMA = {
    "run": {
        "seed": ("11", int, _NONNEG),
        "out_dir": (".", str, None),
    },
    "sde": {
        "eps": ("0.2", float, _NONNEG),
        "lambda2_max": ("4.0", float, _GT1),
        "n_steps": ("400", int, _POS),
        "n_traj": ("100000", int, _POS),
        "mode": ("full", str, ("full or exp", lambda v: v in ("full", "exp"))),
        "record_stride": ("1", int, _POS),
        "snapshot_points": ("", str, _entries("a comma list of numbers", empty_ok=True)),
    },
    "ode": {
        "eps": ("0.2", float, _NONNEG),
        "x_end": ("4.0", float, _GT1),
        "n_points": ("201", int, ("at least 2", lambda v: v >= 2)),
    },
    "tail": {
        "tau": ("3.2188758248682006", float, _POS),
        "sigma_hat": ("-3.29", float, None),
        "margin": ("0.1", float, _POS),
    },
    "field": {
        "eps": ("0.6578818376172799", float, _POS),
        "l_max": ("32.0", float, _GT1),
        "n": ("256", int, _POW2),
        "box_mult": ("4.0", float, _POS),
        "n_samples": ("24", int, _POS),
        "save_snapshot": ("false", str, ("true or false", lambda v: v in ("true", "false"))),
    },
    "corrector": {
        "eps": ("0.05", float, _POS),
        "l_max": ("32.0", float, _GT1),
        "n": ("512", int, _POW2),
        "box_mult": ("4.0", float, _POS),
        "n_samples": ("20", int, _POS),
        "tol": ("1e-10", float, _POS),
    },
    "particle": {
        "eps": ("0.4", float, _NONNEG),
        "l_list": ("16, 64", str, _entries("a non-empty comma list of numbers > 1",
                                           ok=_GT1[1])),
        "n_list": ("512, 2048", str, _entries("a non-empty comma list of powers of two",
                                              int, _POW2[1])),
        "dt": ("0.1", float, ("in (0, 0.1]", lambda v: 0 < v <= 0.1)),
        "t_end": ("250.0", float, _POS),
        "n_envs": ("12", int, _POS),
        "paths_per_env": ("8192", int, _POS),
    },
}

DEFAULT_CONFIG = "\n".join(
    f"[{section}]\n" + "".join(f"{key} = {row[0]}".rstrip() + "\n" for key, row in keys.items())
    for section, keys in SCHEMA.items())


class ConfigError(ValueError):
    pass


def _value(section: str, key: str, raw: str):
    """Cast and range-check one value, from a config file or from a flag."""
    _, caster, check = SCHEMA[section][key]
    try:
        val = caster(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key} = {raw!r}: not a valid {caster.__name__}") from exc
    if check is not None and not check[1](val):
        raise ConfigError(f"[{section}] {key} = {raw!r}: must be {check[0]}")
    return val


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
            unknown = [key for key in parser[section] if key not in SCHEMA[section]]
            if unknown:
                raise ConfigError(f"unknown key {unknown[0]!r} in section [{section}]")
            sections[section] = {key: _value(section, key, raw)
                                 for key, raw in parser[section].items()}
        for section, keys in SCHEMA.items():
            missing = set(keys) - set(sections.get(section, ()))
            if missing:
                raise ConfigError(
                    f"missing keys in section [{section}]: {sorted(missing)}")
        part = sections["particle"]
        if len(parse_list(part["l_list"])) != len(parse_list(part["n_list"])):
            raise ConfigError("[particle] l_list and n_list must have equal length")
        return cls(sections)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        if path == "default":
            return cls.parse(DEFAULT_CONFIG)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        return cls.parse(text)

    def dumps(self) -> str:
        parser = configparser.ConfigParser()
        for section, keys in self.sections.items():
            parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                               for k, v in keys.items()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def sha256(self) -> str:
        payload = json.dumps(self.sections, sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()


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
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def _json_text(payload: dict) -> str:
    """Indented, key-sorted JSON; numpy scalars as the Python values they hold."""
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.item()) + "\n"


def write_sidecar(path: Path, cfg: RunConfig, seed: int, wall_s: float,
                  extra: dict | None = None) -> None:
    payload = {"config_sha256": cfg.sha256(), "scalehom_version": __version__,
               "numpy_version": np.__version__, "scipy_version": scipy.__version__,
               "seed": seed, "wall_time_s": wall_s, **(extra or {})}
    atomic_write(path.with_suffix(path.suffix + ".meta.json"), _json_text(payload))


#: output kinds of a runner besides JSON payloads (dicts)
Csv = namedtuple("Csv", "header rows")
Snapshot = namedtuple("Snapshot", "state box_len")


def _moment_header(lead: list[str]) -> list[str]:
    return lead + [f"E_{n}" for n in proxysde.MOMENT_NAMES] \
        + [f"se_{n}" for n in proxysde.MOMENT_NAMES]


# A runner takes its config section (None for commands without one) and the
# seed, and returns (outputs, sidecar extras, passed):
# outputs map file names to a Csv, a Snapshot or a JSON payload.  A
# snapshot's path is recorded in every sidecar of the run.

def run_qv_check(sec, seed):
    r1 = acceptance.criterion_1_algebra()
    r2 = acceptance.criterion_2_covariance()
    return {"qv_check.json": {r.name: r.payload() for r in (r1, r2)}}, {}, \
        r1.passed and r2.passed


def run_sde(sec, seed):
    run = proxysde.SdeConfig(
        eps=sec["eps"], lambda2_max=sec["lambda2_max"], n_steps=sec["n_steps"],
        n_traj=sec["n_traj"], seed=seed, mode=sec["mode"],
        record_stride=sec["record_stride"],
        snapshot_points=tuple(parse_list(sec["snapshot_points"])))
    s = proxysde.run_ensemble(run).series
    rows = [[s.lambda2[i], s.ln_l[i], *s.means[i], *s.ses[i]]
            for i in range(len(s.lambda2))]
    return {"sde_series.csv": Csv(_moment_header(["lambda2", "ln_l"]), rows)}, \
        {"n_traj": run.n_traj, "mode": run.mode,
         "draw_threads": proxysde.draw_threads()}, True


def run_ode(sec, seed):
    xs = np.linspace(1.0, sec["x_end"], sec["n_points"])
    table = momentodes.integrate_moments(sec["eps"], sec["x_end"],
                                         momentodes.ClosureSource.bound(), x_eval=xs)
    env = momentodes.envelope(sec["eps"], sec["x_end"])
    bounds = [np.interp(xs, env.x, col)
              for col in (env.b_low, env.b_high, env.c_low, env.c_high)]
    ln_l = (xs - 1.0) / sec["eps"] ** 2 if sec["eps"] > 0 else np.zeros_like(xs)
    header = ["lambda2", "ln_l", "E_phi2_resc", "E_phi4_resc", "E_f2", "E_f4",
              "E_det", "E_det2", "env_f4_low", "env_f4_high", "env_det2_low",
              "env_det2_high"]
    rows = [[xs[i], ln_l[i], table.a_resc[i], table.b_resc[i], table.big_a[i],
             table.big_b[i], table.det[i], table.det2[i], *(b[i] for b in bounds)]
            for i in range(len(xs))]
    return {"ode_series.csv": Csv(header, rows)}, \
        {"envelope_constants": env.constants}, True


def run_tail(sec, seed):
    tcfg = kolmogorov.TailConfig(sec["tau"], sec["sigma_hat"], regime_margin=sec["margin"])
    ramp = kolmogorov.RampEvolution(tcfg.sigma_hat)
    grid = tcfg.grid()[:: max(1, kolmogorov.N_SIGMA // 2000)]
    slices = np.linspace(0.0, tcfg.tau, 5)
    header = ["sigma"] + [f"zeta_hat_tau_{tp:.6g}" for tp in slices]
    cols = [ramp.value(tcfg.tau - tp, grid) for tp in slices]
    rows = [[grid[i], *[c[i] for c in cols]] for i in range(len(grid))]
    terms = kolmogorov.bound_terms(tcfg)
    summary = {"tau": tcfg.tau, "sigma_hat": tcfg.sigma_hat,
               "zeta_at_origin": kolmogorov.zeta_at_origin(tcfg),
               "i1": terms.i1, "i2": terms.i2, "margin": sec["margin"],
               "regime_ok": kolmogorov.in_regime(tcfg, np.exp(tcfg.tau))}
    return {"tail_profiles.csv": Csv(header, rows), "tail_summary.json": summary}, {}, True


def run_field(sec, seed):
    fcfg = fieldsim.FieldConfig(eps=sec["eps"], l_max=sec["l_max"], n=sec["n"],
                                box_mult=sec["box_mult"],
                                n_samples=sec["n_samples"], seed=seed)
    keep = sec["save_snapshot"] == "true"
    res = fieldsim.run_field_ensemble(fcfg, keep_final=keep)
    mean, se = res.moments()
    rows = [[res.lambda2[i], *mean[i], *se[i]] for i in range(len(res.lambda2))]
    outputs = {"field_moments.csv": Csv(_moment_header(["lambda2"]), rows)}
    qv = fieldsim.empirical_qv(res)
    extra = {"qv_accumulated": qv.accumulated_dpsi, "qv_expected": qv.expected_dpsi,
             "qv_ok": qv.ok(), "draw_threads": proxysde.draw_threads()}
    if keep:
        outputs["field_state.bin"] = Snapshot(res.final_state, fcfg.grid().box_len)
    return outputs, extra, True


def run_corrector(sec, seed):
    run = corrector.run_corrector_ensemble(
        sec["eps"], sec["l_max"], sec["n"], sec["n_samples"], seed=seed,
        box_mult=sec["box_mult"], tol=sec["tol"])
    header = ["eps", "l_max", "n", "lambda", "lambda_se", "E_f2", "E_absdet",
              "E_det"] + [f"trunc_r{r:g}" for r in corrector.R_SCHEDULE]
    rows = [[sec["eps"], sec["l_max"], sec["n"], st.lambda_avg, run.lambda_se,
             st.mean_f2, st.mean_abs_det, st.mean_det]
            + [st.truncated[r] for r in corrector.R_SCHEDULE] for st in run.stats]
    return {"corrector.csv": Csv(header, rows)}, \
        {"lambda_mean": run.lambda_mean, "lambda_se": run.lambda_se,
         "draw_threads": proxysde.draw_threads()}, True


def run_particle(sec, seed):
    ls, ns = parse_list(sec["l_list"]), parse_list(sec["n_list"], int)
    times = particle.default_sample_times(sec["dt"], sec["t_end"])
    outputs, estimates = {}, []
    for i, (l_max, n) in enumerate(zip(ls, ns)):
        est = particle.annealed_msd(sec["eps"], l_max, n, sec["dt"], sec["t_end"],
                                    sec["n_envs"], sec["paths_per_env"],
                                    seed=seed + i, sample_times=times).as_estimate()
        estimates.append(est)
        rows = [[times[j], *est.msd[:, j], *est.se[:, j]] for j in range(len(times))]
        outputs[f"msd_L{l_max:g}.csv"] = Csv(["t", "msd_x", "msd_y", "se_x", "se_y"], rows)
    summary = {}
    if len(estimates) >= 2:
        ratio, se, t_cmp = particle.msd_growth_ratio(estimates[0], estimates[-1],
                                                     min(ls))
        summary = {"growth_ratio": ratio, "ratio_se": se, "compare_time": t_cmp}
    outputs["particle_summary.json"] = summary
    return outputs, {"draw_threads": proxysde.draw_threads()}, True


def run_accept(sec, seed):
    if seed != acceptance.SEED:
        raise ConfigError(f"accept runs at the fixed seed {acceptance.SEED} "
                          f"(acceptance.SEED), not {seed}")
    results = acceptance.run_all(verbose=True)
    payload = {r.name: r.payload() for r in results}
    payload["all_pass"] = passed = all(r.passed for r in results)
    return {"accept.json": payload}, {"draw_threads": proxysde.draw_threads()}, passed


#: one CLI command: its config section (or None), its runner, and the
#: section keys that flags may override
Command = namedtuple("Command", "name section run flags", defaults=((),))
COMMANDS = {c.name: c for c in (
    Command("qv-check", None, run_qv_check),
    Command("sde-run", "sde", run_sde),
    Command("ode-run", "ode", run_ode),
    Command("tail-check", "tail", run_tail, ("tau", "sigma_hat", "margin")),
    Command("field-run", "field", run_field),
    Command("corrector-run", "corrector", run_corrector),
    Command("particle-run", "particle", run_particle),
    Command("accept", None, run_accept),
)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="config file path, or 'default'")
    common.add_argument("--out", dest="out_dir", help="override [run] out_dir")
    common.add_argument("--seed", help="override [run] seed")
    parser = argparse.ArgumentParser(
        prog="scalehom", description="scale-by-scale homogenization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        p = sub.add_parser(cmd.name, parents=[common])
        for key in cmd.flags:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"override [{cmd.section}] {key}")
    return parser


def _override(cfg: RunConfig, section: str, keys, args) -> dict:
    """Copy of ``cfg[section]`` with the given flags applied; ``cfg`` itself,
    and so the sidecar's config hash, stays as loaded."""
    sec = dict(cfg[section])
    for key in keys:
        if getattr(args, key) is not None:
            sec[key] = _value(section, key, getattr(args, key))
    return sec


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    cmd = COMMANDS[args.command]
    try:
        cfg = RunConfig.load(args.config)
        run = _override(cfg, "run", ("seed", "out_dir"), args)
        sec = _override(cfg, cmd.section, cmd.flags, args) if cmd.section else None
        out = Path(run["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        outputs, extra, passed = cmd.run(sec, run["seed"])
        for name, data in outputs.items():
            path = out / name
            if isinstance(data, Csv):
                write_csv(path, data.header, data.rows)
            elif isinstance(data, Snapshot):
                fieldsim.save_snapshot(path, data.state, data.box_len)
                extra["snapshot"] = str(path)
            else:
                atomic_write(path, _json_text(data))
        wall_s = time.perf_counter() - t0
        for name in outputs:
            write_sidecar(out / name, cfg, run["seed"], wall_s, extra)
            print(f"wrote {out / name}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
