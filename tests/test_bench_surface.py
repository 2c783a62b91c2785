"""The benchmark tracer finds every package name it wraps.

``bench/tracing.py`` skips a name the package no longer has, and the metrics
read from that name then read 0.  Deleting or renaming a traced function must
therefore fail here rather than pass unnoticed in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from scalehom import proxysde

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_skips_no_name():
    tracing = load_tracing()

    class Recording(tracing.Patches):
        def __init__(self):
            super().__init__()
            self.skipped = []

        def wrap(self, owner, attr, factory, missing_ok=False):
            before = len(self._saved)
            super().wrap(owner, attr, factory, missing_ok)
            if len(self._saved) == before:
                self.skipped.append(f"{owner.__name__}.{attr}")

    original = proxysde.run_ensemble
    patches = Recording()
    try:
        tracing.install(tracing.Tracer(), patches)
        assert proxysde.run_ensemble is not original
    finally:
        patches.undo()
    assert patches.skipped == []
    assert proxysde.run_ensemble is original


@pytest.mark.parametrize("threads", [1, 2])
def test_traced_draws_count_nine_normals_per_step(monkeypatch, threads):
    # the draw hands its size to standard_normal; a draw into a buffer
    # without one would be counted as a single normal
    tracing = load_tracing()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    monkeypatch.setattr(proxysde, "BLOCK_SIZE", 128)
    monkeypatch.setattr(proxysde, "draw_threads", lambda: threads)
    cfg = proxysde.SdeConfig(eps=0.3, lambda2_max=1.5, n_steps=6, n_traj=300)
    try:
        tracing.install(tracer, patches)
        proxysde.run_ensemble(cfg)
    finally:
        patches.undo()
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["rng.normals_per_traj_step"][0] == 9
    assert metrics["rng.streams_opened"][0] == 3 * cfg.n_steps
