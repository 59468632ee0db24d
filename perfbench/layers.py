"""Per-layer tracing by wrapping the calls the driver makes into each module.

``qrefine.refine`` binds its collaborators by name at import, so the
wrappers replace those names on that module, and ``qrefine.qubo.energy``,
which the samplers look up at call time, is counted on its own module.
``qrefine.refine`` as a package attribute is the function, so the module
is reached through importlib. ``qrefine.precision`` is not wrapped: its
helpers run about 10^5 times per pass and a wrapper would mostly time
itself; their cost shows inside the layers that call them.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterator

REFINE_WRAPPED = {
    "build_window": "qubo.build_window",
    "residual_norm_sq": "linalg.residual_norm_sq",
    "decode_increments": "encoding.decode_increments",
    "symmetric_eigen": "linalg.symmetric_eigen",
    "error_vs_truth": "refine.error_vs_truth",
}
QUBO_COUNTED = "energy"
COMMON_LAYERS = ("qubo.build_window", "linalg.residual_norm_sq", "encoding.decode_increments",
                 "refine.error_vs_truth", "traceio.write", "qubo.energy")
REQUIRED = {
    "wide-k3": COMMON_LAYERS + ("samplers.exhaustive",),
    "narrow-k1": COMMON_LAYERS + ("samplers.exhaustive", "linalg.symmetric_eigen"),
    "anneal-sa": COMMON_LAYERS + ("samplers.anneal",),
}


class TracingError(RuntimeError):
    """A wrapped name is missing, or a layer that must run did not."""


def modules():
    return importlib.import_module("qrefine.refine"), importlib.import_module("qrefine.qubo")


def check_wrapped_names() -> None:
    refine_mod, qubo_mod = modules()
    missing = [f"qrefine.refine.{n}" for n in REFINE_WRAPPED if not callable(getattr(refine_mod, n, None))]
    if not callable(getattr(qubo_mod, QUBO_COUNTED, None)):
        missing.append(f"qrefine.qubo.{QUBO_COUNTED}")
    if missing:
        raise TracingError("cannot trace, names missing from the package: " + ", ".join(missing))


class Tracer:
    """Span totals per layer for one pass. Spans nest through a stack, so a
    layer's self time excludes any wrapped layer it calls; top_s is the
    time covered by outermost spans, and the rest of the pass is the
    driver's own time (refine.self_s)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.ground_fracs: list[float] = []
        self.top_s = 0.0
        self._stack: list[list[float]] = []

    def timed(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[name] += dt
                self.self_seconds[name] += dt - children[0]
                self.counts[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
                else:
                    self.top_s += dt

        return wrapped

    def counted(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def sampler(self, kind: str, fn: Callable, reads: int = 0, sweeps: int = 0) -> Callable:
        timed = self.timed(f"samplers.{kind}", fn)

        def wrapped(q):
            result = timed(q)
            if kind == "exhaustive":
                self.counts["samplers.exhaustive.states"] += 1 << q.n_qubits
            else:
                self.counts["samplers.anneal.flips"] += reads * sweeps * q.n_qubits
                self.ground_fracs.append(result.ground_occurrences() / reads)
            return result

        return wrapped

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the wrappers into the package for the duration of one pass."""
        check_wrapped_names()
        refine_mod, qubo_mod = modules()
        saved = {n: getattr(refine_mod, n) for n in REFINE_WRAPPED}
        saved_energy = getattr(qubo_mod, QUBO_COUNTED)
        try:
            for attr, layer in REFINE_WRAPPED.items():
                setattr(refine_mod, attr, self.timed(layer, saved[attr]))
            setattr(qubo_mod, QUBO_COUNTED, self.counted("qubo.energy", saved_energy))
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(refine_mod, attr, fn)
            setattr(qubo_mod, QUBO_COUNTED, saved_energy)


def pass_layers(tracer: Tracer, wall_s: float, traces, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, including exact counts taken
    from the records themselves."""
    s, n = tracer.seconds, tracer.counts
    solves = sum(len(t.records) for t in traces)
    moves = sum(1 for t in traces for r in t.records if any(r.bits))
    return {
        "traced_wall_s": wall_s,
        "refine.self_s": wall_s - tracer.top_s,
        "samplers.exhaustive.s": s["samplers.exhaustive"],
        "samplers.exhaustive.calls": n["samplers.exhaustive"],
        "samplers.exhaustive.states": n["samplers.exhaustive.states"],
        "samplers.exhaustive.ns_per_state": _ratio(s["samplers.exhaustive"] * 1e9, n["samplers.exhaustive.states"]),
        "qubo.energy.calls": n["qubo.energy"],
        "samplers.anneal.s": s["samplers.anneal"],
        "samplers.anneal.calls": n["samplers.anneal"],
        "samplers.anneal.flips": n["samplers.anneal.flips"],
        "samplers.anneal.ns_per_flip": _ratio(s["samplers.anneal"] * 1e9, n["samplers.anneal.flips"]),
        "samplers.anneal.ground_frac": statistics.fmean(tracer.ground_fracs) if tracer.ground_fracs else 0.0,
        "samplers.anneal.ground_frac_min": min(tracer.ground_fracs, default=0.0),
        "qubo.build_window.s": s["qubo.build_window"],
        "qubo.build_window.calls": n["qubo.build_window"],
        "qubo.build_window.us_per_call": _ratio(s["qubo.build_window"] * 1e6, n["qubo.build_window"]),
        "refine.error_vs_truth.s": s["refine.error_vs_truth"],
        "refine.error_vs_truth.calls": n["refine.error_vs_truth"],
        "linalg.residual_norm_sq.s": s["linalg.residual_norm_sq"],
        "linalg.residual_norm_sq.calls": n["linalg.residual_norm_sq"],
        "traceio.write.s": s["traceio.write"],
        "traceio.write.rows": n["traceio.write"],
        "traceio.write.bytes": csv_bytes,
        "encoding.decode_increments.s": s["encoding.decode_increments"],
        "encoding.decode_increments.calls": n["encoding.decode_increments"],
        "linalg.symmetric_eigen.s": s["linalg.symmetric_eigen"],
        "linalg.symmetric_eigen.calls": n["linalg.symmetric_eigen"],
        "refine.moves_accepted": moves,
        "refine.solves_rejected": solves - moves,
        "refine.accept_ratio": _ratio(moves, solves),
        "refine.recenter_cap_hits": sum(1 for t in traces if t.terminated_by == "recenter-cap"),
        "refine.levels": sum(len({r.level for r in t.records}) for t in traces),
    }


def check_accounting(tracer: Tracer, wall_s: float) -> list[str]:
    """The layers' self times plus the driver's own time must make up the
    traced wall time, and no self time may be negative."""
    problems = [f"{name}: negative self time {t!r}" for name, t in tracer.self_seconds.items() if t < -1e-9]
    driver = wall_s - tracer.top_s
    if driver < 0.0:
        problems.append(f"refine.self_s negative: {driver!r}")
    parts = sum(tracer.self_seconds.values()) + driver
    if abs(parts - wall_s) > 1e-6 * wall_s:
        problems.append(f"layer self times {parts!r} s do not add up to the traced wall {wall_s!r} s")
    return problems


def check_required(workload: str, tracer: Tracer) -> None:
    idle = [name for name in REQUIRED[workload] if tracer.counts[name] == 0]
    if idle:
        raise TracingError(f"{workload}: layers that must run showed zero calls: {', '.join(idle)}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
