"""Spans and counters recorded around the package's public functions.

The wrappers live here and are installed by replacing module and class
attributes for the length of one traced round; the package is not changed.
Each span adds its duration to a total per span name; the totals are
guarded by a lock, so a worker pool inside the package may add to them.
Counters are read from the arguments and return values of the
wrapped calls.  :func:`per_layer_metrics` turns one round's record into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from collections import defaultdict

import numpy as np
from scipy.sparse.linalg import LinearOperator


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, factory, missing_ok: bool = False) -> None:
        """Replace ``owner.attr`` by ``factory(original)``.

        On a class the raw descriptor is wrapped, so classmethods stay
        classmethods and plain methods keep receiving ``self``.  With
        ``missing_ok`` an attribute the package no longer has is skipped.
        """
        present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if missing_ok and not present:
            return
        if isinstance(owner, type):
            old = owner.__dict__[attr]
            new = classmethod(factory(old.__func__)) if isinstance(old, classmethod) \
                else factory(old)
        else:
            old = getattr(owner, attr)
            new = factory(old)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    """Busy seconds and calls per span name, counters and maxima."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._lock = threading.Lock()

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                self.seconds[name] += elapsed
                self.calls[name] += 1

    def count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[key] += n

    def maximum(self, key: str, v: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], v)

    def span(self, name: str, on_return=None):
        """Wrapper factory: time each call; ``on_return(out, *args, **kw)``
        reads counters from the call."""
        def factory(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                out = self.timed(name, orig, *args, **kwargs)
                if on_return is not None:
                    on_return(out, *args, **kwargs)
                return out
            return wrapper
        return factory

    def counter(self, key: str, amount):
        """Wrapper factory that only counts ``amount(*args, **kw)`` per call."""
        def factory(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                self.count(key, amount(*args, **kwargs))
                return orig(*args, **kwargs)
            return wrapper
        return factory

    def report(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


class CountingGenerator:
    """A counter-based stream that reports its normal draws to the tracer."""

    def __init__(self, gen, tracer: Tracer, source: str):
        self._gen = gen
        self._tracer = tracer
        self._source = source

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._tracer.timed("rng.standard_normal", self._gen.standard_normal,
                                 size, *args, **kwargs)
        n = int(np.prod(size)) if size is not None else 1
        self._tracer.count("rng.normals_drawn", n)
        self._tracer.count(f"rng.normals.{self._source}", n)
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public calls of every layer the workloads reach.

    A function the package no longer has is skipped, so its metrics read 0.
    """
    from scalehom import cli, corrector, fieldsim, kolmogorov, momentodes, \
        particle, proxysde, rng, shellcov

    t = tracer
    wrap = functools.partial(patches.wrap, missing_ok=True)

    def sde_counts(res, cfg, *_, **__):
        t.count("proxysde.traj_steps", cfg.n_traj * cfg.n_steps)
        t.count("proxysde.moment_rows", res.series.n_traj * len(res.series.lambda2))

    wrap(proxysde, "run_ensemble", t.span("proxysde.run_ensemble", sde_counts))

    def stream_factory(source):
        def factory(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                t.count("rng.streams_opened", 1)
                return CountingGenerator(orig(*args, **kwargs), t, source)
            return wrapper
        return factory

    for module in (proxysde, fieldsim, particle, rng):
        wrap(module, "stream", stream_factory(module.__name__.rsplit(".", 1)[-1]))

    wrap(shellcov, "components_to_fields", t.span("shellcov.components_to_fields"))
    wrap(shellcov, "step_covariance", t.span("shellcov.step_covariance"))

    wrap(momentodes, "integrate_moments", t.span("momentodes.integrate_moments"))
    wrap(momentodes, "rhs", t.counter("momentodes.rhs_calls", lambda *a, **k: 1))
    wrap(cli, "write_csv", t.span("cli.write_csv"))
    wrap(cli, "atomic_write", t.counter(
        "cli.bytes_written",
        lambda path, data: len(data if isinstance(data, bytes) else data.encode())))

    wrap(kolmogorov, "verify_tail", t.span("kolmogorov.verify_tail"))
    wrap(kolmogorov, "bound_terms", t.span("kolmogorov.bound_terms"))
    for method in ("value", "d1", "d2"):
        wrap(kolmogorov.RampEvolution, method, t.counter(
            "kolmogorov.ramp_points", lambda self, s, sig: int(np.size(sig))))

    wrap(fieldsim, "run_field_ensemble", t.span("fieldsim.run_field_ensemble"))
    wrap(fieldsim, "sample_shell_field", t.span("fieldsim.sample_shell_field"))
    wrap(fieldsim, "driver_fields", t.span("fieldsim.driver_fields"))
    wrap(fieldsim, "step_fields", t.span("fieldsim.step_fields"))

    def solve_counts(sol, *_, **__):
        t.count("corrector.iterations", sol.iterations)
        t.maximum("corrector.worst_residual", sol.residual_rel)

    def counted_lgmres(orig):
        @functools.wraps(orig)
        def wrapper(a, b, *args, **kwargs):
            def matvec(v):
                t.count("corrector.matvecs", 1)
                return a.matvec(v)
            return orig(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), b,
                        *args, **kwargs)
        return wrapper

    wrap(corrector, "run_corrector_ensemble", t.span("corrector.run_corrector_ensemble"))
    wrap(corrector, "solve_corrector", t.span("corrector.solve_corrector", solve_counts))
    wrap(corrector, "lgmres", counted_lgmres)
    wrap(corrector, "sample_stream_function", t.span("corrector.sample_stream_function"))

    def path_counts(est, drift, dt, *_, **__):
        t.count("particle.path_steps", est.n_paths * int(round(est.times.max() / dt)))

    zero_fields = weakref.WeakValueDictionary()

    def remember_zero(field, *_, **__):
        zero_fields[id(field)] = field

    def lookup_counts(_, field, pos):
        t.count("particle.drift_lookups", len(pos))
        if zero_fields.get(id(field)) is field:
            t.count("particle.zero_drift_path_steps", len(pos))

    wrap(particle, "annealed_msd", t.span("particle.annealed_msd"))
    wrap(particle, "euler_maruyama", t.span("particle.euler_maruyama", path_counts))
    wrap(particle, "sample_stream_function", t.span("particle.sample_stream_function"))
    wrap(particle.DriftField, "from_stream", t.span("particle.DriftField.from_stream"))
    wrap(particle.DriftField, "zero", t.span("particle.DriftField.zero", remember_zero))
    wrap(particle.DriftField, "at", t.span("particle.DriftField.at", lookup_counts))


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, by name: (value, unit)."""
    s, c, n = t.seconds, t.calls, t.counts
    traj_steps = n["proxysde.traj_steps"]
    shells = c["fieldsim.driver_fields"]
    solves = c["corrector.solve_corrector"]
    path_steps = n["particle.path_steps"]
    return {
        "proxysde.run_ensemble_s": (s["proxysde.run_ensemble"], "s"),
        "proxysde.ns_per_traj_step": (_per(1e9 * s["proxysde.run_ensemble"], traj_steps), "ns"),
        "proxysde.traj_steps": (traj_steps, "count"),
        "proxysde.moment_rows": (n["proxysde.moment_rows"], "count"),
        "rng.streams_opened": (n["rng.streams_opened"], "count"),
        "rng.normals_drawn": (n["rng.normals_drawn"], "count"),
        "rng.normals_per_traj_step": (_per(n["rng.normals.proxysde"], traj_steps), "count"),
        "rng.normal_draw_s": (s["rng.standard_normal"], "s"),
        "shellcov.components_to_fields_s": (s["shellcov.components_to_fields"], "s"),
        "shellcov.components_to_fields_calls": (c["shellcov.components_to_fields"], "count"),
        "shellcov.step_covariance_s": (s["shellcov.step_covariance"], "s"),
        "shellcov.step_covariance_calls": (c["shellcov.step_covariance"], "count"),
        "momentodes.integrate_moments_s": (s["momentodes.integrate_moments"], "s"),
        "momentodes.rhs_calls": (n["momentodes.rhs_calls"], "count"),
        "cli.write_csv_s": (s["cli.write_csv"], "s"),
        "cli.bytes_written": (n["cli.bytes_written"], "B"),
        "kolmogorov.verify_tail_s": (s["kolmogorov.verify_tail"], "s"),
        "kolmogorov.bound_terms_s": (s["kolmogorov.bound_terms"], "s"),
        "kolmogorov.bound_terms_calls": (c["kolmogorov.bound_terms"], "count"),
        "kolmogorov.ramp_points": (n["kolmogorov.ramp_points"], "count"),
        "fieldsim.run_field_ensemble_s": (s["fieldsim.run_field_ensemble"], "s"),
        "fieldsim.sample_shell_field_s": (s["fieldsim.sample_shell_field"], "s"),
        "fieldsim.driver_fields_s": (s["fieldsim.driver_fields"], "s"),
        "fieldsim.ms_per_shell": (_per(1e3 * s["fieldsim.run_field_ensemble"], shells), "ms"),
        "fieldsim.step_fields_s": (s["fieldsim.step_fields"], "s"),
        "fieldsim.shells": (shells, "count"),
        "corrector.solve_corrector_s": (s["corrector.solve_corrector"], "s"),
        "corrector.solves": (solves, "count"),
        "corrector.s_per_solve": (_per(s["corrector.solve_corrector"], solves), "s"),
        "corrector.matvecs": (n["corrector.matvecs"], "count"),
        "corrector.iterations": (n["corrector.iterations"], "count"),
        "corrector.worst_residual": (t.maxima["corrector.worst_residual"], "rel"),
        "corrector.sample_stream_function_s": (s["corrector.sample_stream_function"], "s"),
        "particle.euler_maruyama_s": (s["particle.euler_maruyama"], "s"),
        "particle.path_steps": (path_steps, "count"),
        "particle.ns_per_path_step": (_per(1e9 * s["particle.euler_maruyama"], path_steps), "ns"),
        "particle.drift_lookup_s": (s["particle.DriftField.at"], "s"),
        "particle.drift_lookups": (n["particle.drift_lookups"], "count"),
        "particle.zero_drift_path_steps": (n["particle.zero_drift_path_steps"], "count"),
        "particle.env_build_s": (s["particle.sample_stream_function"]
                                 + s["particle.DriftField.from_stream"], "s"),
    }
