"""The benchmark's own tests: every workload at its tiny size, every check
failing on a perturbed output, the traced metrics and the entry point.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import worker
from workloads import CallFailed, Calls, DeepTail, SdeRun, Spatial

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 7


def _failed(results) -> list[str]:
    return [c.name for c in results if not c.ok]


@pytest.fixture(scope="module")
def sde(tmp_path_factory):
    wl = SdeRun(SEED, "tiny", tmp_path_factory.mktemp("sde"))
    calls = Calls()
    s, table = wl.produce(calls)
    return wl, s, table, calls


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    wl = DeepTail(SEED, "tiny", tmp_path_factory.mktemp("deep"))
    calls = Calls()
    return wl, wl.produce(calls), calls


@pytest.fixture(scope="module")
def spatial(tmp_path_factory):
    wl = Spatial(SEED, "tiny", tmp_path_factory.mktemp("spatial"))
    calls = Calls()
    return wl, wl.run_field(calls), wl.run_corrector(calls), wl.run_particle(calls), calls


# ---------------------------------------------------------------- clean runs

def test_sde_run_passes(sde):
    wl, s, table, calls = sde
    assert _failed(wl.check(s, table)) == []
    assert (calls.attempted, calls.failed) == (3, 0)


def test_deep_tail_passes(deep):
    wl, outputs, calls = deep
    assert _failed(wl.check(*outputs)) == []
    assert (calls.attempted, calls.failed) == (7, 0)


def test_spatial_passes(spatial):
    wl, field, corr, part, calls = spatial
    results = wl.check_field(*field) + wl.check_corrector(*corr) + wl.check_particle(*part)
    assert _failed(results) == []
    assert (calls.attempted, calls.failed) == (6, 0)


def test_failing_call_is_counted_and_ends_the_round(tmp_path):
    wl = SdeRun(SEED, "tiny", tmp_path)
    wl.argv[2] = str(tmp_path / "missing.cfg")     # the CLI exits with 1
    calls = Calls()
    with pytest.raises(CallFailed):
        wl.run_round(calls)
    assert (calls.attempted, calls.failed) == (1, 1)
    # the measurement stops there and keeps neither the round's time nor checks
    assert worker.measure(wl, calls, 60.0) == ([], [], False)
    assert (calls.attempted, calls.failed) == (2, 2)


_RAISING_SITE = """
try:
    import scalehom.fieldsim
except ImportError:
    pass
else:
    def _raise(*args, **kwargs):
        raise RuntimeError("injected")
    scalehom.fieldsim.run_field_ensemble = _raise
"""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_with_a_raising_call_is_incorrect_and_exits_nonzero(tmp_path, trace):
    (tmp_path / "sitecustomize.py").write_text(_RAISING_SITE)
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "spatial",
                          "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170,
                         env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert out.returncode == 1, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "wall_s" not in result["metrics"]


# ---------------------------------------------------------------- perturbed outputs

def _shift(s: dict, column: str, n_se: float) -> dict:
    out = dict(s)
    name = column[2:]
    out[column] = s[column] + n_se * s[f"se_{name}"]
    return out


@pytest.mark.parametrize("column, failing", [
    ("E_det", "sde-run E det F: max |E det - 1| / se"),
    ("E_f2", "sde-run E|F|^2: max |MC - exact| / (5 se + bias)"),
    ("E_phi2_resc", "sde-run E|phi/L|^2: max |MC - exact| / (5 se + bias)"),
])
def test_sde_moment_shifted_by_10_se_fails(sde, column, failing):
    wl, s, table, _ = sde
    assert failing in _failed(wl.check(_shift(s, column, 10.0), table))


@pytest.mark.parametrize("second, fourth", [("E_f2", "E_f4"), ("E_det", "E_det2")])
def test_sde_fourth_moment_below_square_fails(sde, second, fourth):
    wl, s, table, _ = sde
    bad = dict(s)
    bad[fourth] = 0.99 * s[second] ** 2
    assert any("min (E X^2 - (E X)^2)" in name for name in _failed(wl.check(bad, table)))


@pytest.mark.parametrize("field, failing", [
    ("big_a", "moment flow E|F|^2 vs closed form: max relative deviation"),
    ("a_resc", "moment flow E|phi/L|^2 vs closed form: max relative deviation"),
])
def test_moment_flow_off_closed_form_fails(sde, field, failing):
    wl, s, table, _ = sde
    bad = dataclasses.replace(table, **{field: getattr(table, field) * (1.0 + 1e-6)})
    assert failing in _failed(wl.check(s, bad))


@pytest.mark.parametrize("field, column", [("big_b", "E_f4"), ("det2", "E_det2")])
def test_moment_flow_off_monte_carlo_fails(sde, field, column):
    wl, s, table, _ = sde
    se = s[f"se_{column[2:]}"]
    bad = dataclasses.replace(table, **{field: getattr(table, field) + 10.0 * se})
    assert any(name.startswith("moment flow") for name in _failed(wl.check(s, bad)))


def _series_with(res, name: str, values):
    from scalehom.proxysde import MOMENT_NAMES
    means = res.series.means.copy()
    means[:, MOMENT_NAMES.index(name)] = values
    return dataclasses.replace(res, series=dataclasses.replace(res.series, means=means))


@pytest.mark.parametrize("name, factor, failing", [
    ("det", None, "ensemble E det F: max |E det - 1| / se"),
    ("f2", None, "ensemble E|F|^2: max |MC - exact| / (5 se + bias)"),
    ("f4", 2.0, "E|F|^4 outside envelope / (5 se + bias)"),
])
def test_deep_tail_moment_perturbed_fails(deep, name, factor, failing):
    wl, (res, fractions, reports, env), _ = deep
    s = res.series
    values = s.column(name) * factor if factor else s.column(name) + 10.0 * s.se(name)
    bad = _series_with(res, name, values)
    assert failing in _failed(wl.check(bad, fractions, reports, env))


def test_deep_tail_without_intermittency_fails(deep):
    wl, (res, fractions, reports, env), _ = deep
    f2 = res.series.column("f2")
    bad = _series_with(res, "f4", 1.9 * f2 ** 2)
    assert "E|F|^4 / (E|F|^2)^2 at the last point" in _failed(
        wl.check(bad, fractions, reports, env))


def test_deep_tail_truncated_moment_off_fails(deep):
    wl, (res, fractions, reports, env), _ = deep
    bad = {lam2: v + 1e-6 for lam2, v in fractions.items()}
    assert "truncated second moment at lam2 = 25: max absolute deviation" in _failed(
        wl.check(res, bad, reports, env))


@pytest.mark.parametrize("field, value, failing", [
    ("lhs", lambda r: r.lhs + 1e-6, "tail chain lhs at margin 1: max absolute deviation"),
    ("e_zeta_mc", lambda r: r.e_zeta_mc + 1e-6,
     "tail chain E zeta at margin 1: max absolute deviation"),
    ("rhs", lambda r: 0.5 * r.e_zeta_mc, "tail chain at margin 1: max link violation"),
    ("chain_ok", lambda r: not r.chain_ok, "tail chain verdict at margin 1 agrees"),
])
def test_deep_tail_chain_report_perturbed_fails(deep, field, value, failing):
    wl, (res, fractions, reports, env), _ = deep
    bad = dict(reports)
    bad[1.0] = dataclasses.replace(reports[1.0], **{field: value(reports[1.0])})
    assert failing in _failed(wl.check(res, fractions, bad, env))


def test_field_driver_with_trace_fails(spatial):
    wl, (res, drivers), *_ = spatial
    grad = drivers[0].grad.copy()
    grad[0, 0] += 1e-6 * np.abs(drivers[0].dpsi).max()
    bad = [dataclasses.replace(drivers[0], grad=grad)] + drivers[1:]
    assert "field drivers: max |tr grad| / max |dpsi|" in _failed(wl.check_field(res, bad))


def test_field_variance_shifted_fails(spatial):
    wl, (res, drivers), *_ = spatial
    cfg = wl.field_cfg
    ladder = cfg.shell_ratio ** np.arange(len(res.l_mids) + 1)
    sd = checks.shell_variance_sd(cfg.n, cfg.grid().box_len, ladder, cfg.eps)
    qv = res.qv_dpsi.copy()
    qv[:, 0] += 10.0 * sd / np.sqrt(len(qv))
    bad = dataclasses.replace(res, qv_dpsi=qv)
    assert any("quadratic variation" in n for n in _failed(wl.check_field(bad, drivers)))


@pytest.mark.parametrize("factor, failing", [
    (1.01, {"corrector: max relative residual (own FFTs)",
            "corrector: max |flux - energy| / (lambda - 1)"}),
    (-1.0, {"corrector: min flux lambda"}),
])
def test_corrector_field_scaled_fails(spatial, factor, failing):
    wl, _, (run, solves), *_ = spatial
    bad = [(coef, dataclasses.replace(sol, phi=factor * sol.phi, grad=factor * sol.grad))
           for coef, sol in solves]
    assert failing <= set(_failed(wl.check_corrector(run, bad)))


def test_particle_outputs_perturbed_fail(spatial):
    wl, *_, (annealed, free, drift), _ = spatial
    assert _failed(wl.check_particle(annealed, free, drift)) == []

    shifted = dataclasses.replace(free, msd=free.msd + 10.0 * free.se)
    assert "drift-free max |msd - 2t| / se" in _failed(
        wl.check_particle(annealed, shifted, drift))

    x = np.arange(drift.grid.n) * drift.grid.spacing
    b = drift.b.copy()
    b[0] += 1e-3 * np.cos(2.0 * np.pi * x / drift.grid.box_len)[:, None]
    assert "drift: max |div b| / max |b| (own FFTs)" in _failed(
        wl.check_particle(annealed, free, dataclasses.replace(drift, b=b)))

    halved = [dataclasses.replace(a, msd=0.5 * a.msd, per_env=0.5 * a.per_env)
              for a in annealed]
    assert sum("enhancement" in n for n in _failed(
        wl.check_particle(halved, free, drift))) == len(annealed)


# ---------------------------------------------------------------- tracing

def test_traced_round_reports_every_layer_and_restores(tmp_path):
    from scalehom import corrector, proxysde
    before = (proxysde.run_ensemble, corrector.solve_corrector)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        calls = Calls()
        for wl in (SdeRun, DeepTail, Spatial):
            assert _failed(wl(SEED, "tiny", tmp_path).run_round(calls)) == []
    finally:
        patches.undo()
    assert (proxysde.run_ensemble, corrector.solve_corrector) == before

    metrics = {k: v for k, (v, _) in tracing.per_layer_metrics(tracer).items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace.untraced_wall_s", "trace.traced_wall_s",
                           "trace.overhead_s", "run.cpu_s"} == {m["name"] for m in declared}
    assert metrics["rng.normals_per_traj_step"] == 12.0
    assert metrics["shellcov.components_to_fields_calls"] > 0
    assert metrics["momentodes.rhs_calls"] > 0 and metrics["cli.bytes_written"] > 0
    assert metrics["kolmogorov.bound_terms_calls"] == 2
    assert metrics["fieldsim.shells"] == Spatial.SIZES["tiny"]["field"]["n_samples"] * 8
    assert metrics["corrector.matvecs"] > 0 and metrics["corrector.worst_residual"] < 1e-8
    assert 0 < metrics["particle.zero_drift_path_steps"] < metrics["particle.path_steps"]
    assert metrics["particle.drift_lookups"] == metrics["particle.path_steps"]


# ---------------------------------------------------------------- entry point

def test_run_prints_every_end_to_end_metric():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "spatial",
                          "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 6 == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "sde_run",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
