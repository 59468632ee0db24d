"""Workload inputs, one refinement pass, and the output checks.

Inputs are problem documents (strict JSON text) that go through
``parse_problem`` like a user's file would. Every check compares the
engine's output with a reference the engine does not compute itself:
exact ``Fraction`` arithmetic on the float inputs and the dyadic centers.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from qrefine import (
    AnnealConfig,
    LinearSystem,
    RefinementConfig,
    RefinementTrace,
    parse_problem,
    refine,
    sample_anneal,
    sample_exhaustive,
)
from qrefine.traceio import TraceWriter

WORKLOADS = ("wide-k3", "narrow-k1", "anneal-sa")

TABLE1_M_MAX = 20
L_MIN = -40
CHECKPOINTS = frozenset(range(15, L_MIN - 1, -5))  # the repro-table1 checkpoint levels
TABLE1_COMPONENT_TOL = 5e-12
WIDE_MAX_SOLVES = 60
EIGEN_COMPONENT_TOL = 1e-9
ILLCOND_KAPPA = 129.44
ILLCOND_ANGLES = (10.0, 30.0, 44.0, 71.5)
ILLCOND_M_MAX = 2
RECENTER_CAP = 1000
ANNEAL_READS = 1000
ANNEAL_SWEEPS = 100
# The engine's residual is a double-double (error ~2^-104 relative, since
# each row sum is an fsum of exact product pairs) rounded once to float
# (2^-53 relative). 2^-51 covers both with a factor of about four.
RESIDUAL_REL_TOL = Fraction(1, 2**51)


@dataclass(frozen=True)
class Run:
    """One refine call of a pass: 'table1', 'plain' or 'eigen'."""

    label: str
    kind: str
    system: LinearSystem
    truth: tuple[float, ...]
    config: RefinementConfig


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    sampler_kind: str  # 'exhaustive' | 'anneal'
    sampler: Callable


@dataclass
class PassResult:
    wall_s: float
    step_s: list[float]
    traces: list[RefinementTrace]
    csv_bytes: int
    sha256: str


def irrational_document() -> str:
    """The repro-table1 system over sqrt(2), sqrt(3), sqrt(5), sqrt(7)
    with solution (1024*pi, -32*e)."""
    r2, r3, r5, r7 = math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)
    a = [[r2, -r3], [r5, r7]]
    b = [1024.0 * r2 * math.pi + 32.0 * r3 * math.e, 1024.0 * r5 * math.pi - 32.0 * r7 * math.e]
    return json.dumps({"a": a, "b": b, "x_true": [1024.0 * math.pi, -32.0 * math.e]})


def illcond_document(kappa: float, theta_deg: float) -> str:
    """A = R(theta) diag(1, 1/kappa) R(theta)^T and b = A (1, 1), as in
    scripts/run_illcond.py."""
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)
    rot = [[c, -s], [s, c]]
    d = [1.0, 1.0 / kappa]
    a = [[math.fsum(rot[i][m] * d[m] * rot[j][m] for m in range(2)) for j in range(2)] for i in range(2)]
    b = [math.fsum(row) for row in a]
    return json.dumps({"a": a, "b": b, "x_true": [1.0, 1.0]})


def _run(label: str, kind: str, document: str, config: RefinementConfig) -> Run:
    problem = parse_problem(document)
    return Run(label, kind, problem.system(), problem.x_true, config)


def build(name: str, seed: int) -> Workload:
    """Parse the workload's problem documents and build its runs. Only
    anneal-sa has random inputs; the exhaustive workloads ignore seed."""
    table1 = irrational_document()
    if name == "wide-k3":
        config = RefinementConfig(m_max=TABLE1_M_MAX, l_min=L_MIN, bits_per_sign=3, level_step=3)
        return Workload(name, (_run("table1-k3", "table1", table1, config),), "exhaustive", sample_exhaustive)
    if name == "narrow-k1":
        runs = [_run("table1-k1", "table1", table1, RefinementConfig(m_max=TABLE1_M_MAX, l_min=L_MIN))]
        for theta in ILLCOND_ANGLES:
            doc = illcond_document(ILLCOND_KAPPA, theta)
            for kind, eigen in (("plain", False), ("eigen", True)):
                config = RefinementConfig(
                    m_max=ILLCOND_M_MAX,
                    l_min=L_MIN,
                    max_recenters_per_level=RECENTER_CAP,
                    use_eigenbasis=eigen,
                )
                runs.append(_run(f"illcond-{theta:g}-{kind}", kind, doc, config))
        return Workload(name, tuple(runs), "exhaustive", sample_exhaustive)
    if name == "anneal-sa":
        anneal = AnnealConfig(reads=ANNEAL_READS, sweeps=ANNEAL_SWEEPS, seed=seed)
        config = RefinementConfig(m_max=TABLE1_M_MAX, l_min=L_MIN, sampler="sa", anneal=anneal)
        sampler = functools.partial(sample_anneal, config=anneal)
        return Workload(name, (_run("table1-sa", "table1", table1, config),), "anneal", sampler)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run_pass(
    workload: Workload,
    sampler: Optional[Callable] = None,
    wrap_writer: Callable[[Callable], Callable] = lambda w: w,
) -> PassResult:
    """Refine every run once, each streaming its trace CSV into one
    in-memory buffer. A step is the gap between consecutive observer
    callbacks (the first step of a run starts at the refine call)."""
    sample = sampler if sampler is not None else workload.sampler
    buf = io.StringIO()
    steps: list[float] = []
    traces = []
    t_pass = time.perf_counter()
    for run in workload.runs:
        write = wrap_writer(TraceWriter(buf))
        last = time.perf_counter()

        def observer(record, write=write):
            nonlocal last
            now = time.perf_counter()
            steps.append(now - last)
            last = now
            write(record)

        traces.append(refine(run.system, run.config, truth=run.truth, observer=observer, sampler=sample))
    wall = time.perf_counter() - t_pass
    data = buf.getvalue().encode("utf-8")
    return PassResult(wall, steps, traces, len(data), hashlib.sha256(data).hexdigest())


def _fractions(center) -> list[Fraction]:
    scale = Fraction(2) ** center.exponent
    return [m * scale for m in center.mantissas]


def component_errors(center, truth) -> list[Fraction]:
    return [abs(c - Fraction(t)) for c, t in zip(_fractions(center), truth)]


def exact_residual_sq(system: LinearSystem, center) -> Fraction:
    x = _fractions(center)
    total = Fraction(0)
    for k in range(system.n):
        r = Fraction(float(system.b[k])) - sum(Fraction(float(system.a[k, i])) * x[i] for i in range(system.n))
        total += r * r
    return total


def final_error(traces: list[RefinementTrace], workload: Workload) -> float:
    """Largest per-component |x - x_true| over the pass's runs."""
    return float(max(max(component_errors(t.final_center, r.truth)) for r, t in zip(workload.runs, traces)))


def check_pass(workload: Workload, result: PassResult) -> list[str]:
    """Failures of one pass against the exact references; empty when good."""
    failures = []
    for run, trace in zip(workload.runs, result.traces):
        errors = component_errors(trace.final_center, run.truth)
        if run.kind == "table1":
            if max(errors) > TABLE1_COMPONENT_TOL:
                failures.append(f"{run.label}: final component error {float(max(errors)):.3e} > {TABLE1_COMPONENT_TOL}")
            last_of_level = {rec.level: rec for rec in trace.records}
            for m in sorted(CHECKPOINTS & last_of_level.keys(), reverse=True):
                err_sq = sum(e * e for e in component_errors(last_of_level[m].center_after, run.truth))
                if err_sq > Fraction(2 * 2.0**m) ** 2:
                    failures.append(f"{run.label}: error {math.sqrt(err_sq):.3e} after level {m} > {2 * 2.0**m:.3e}")
        if run.kind == "eigen":
            if trace.terminated_by != "level-exhausted":
                failures.append(f"{run.label}: ended {trace.terminated_by}, expected level-exhausted")
            if max(errors) > EIGEN_COMPONENT_TOL:
                failures.append(f"{run.label}: final component error {float(max(errors)):.3e} > {EIGEN_COMPONENT_TOL}")
        else:
            if not trace.records:
                failures.append(f"{run.label}: no QUBO solves recorded")
                continue
            exact = exact_residual_sq(run.system, trace.final_center)
            reported = Fraction(trace.records[-1].residual_norm_sq)
            if abs(reported - exact) > RESIDUAL_REL_TOL * exact:
                failures.append(
                    f"{run.label}: reported residual {float(reported)!r} != exact {float(exact)!r} within 2^-51"
                )
    if workload.name == "wide-k3":
        solves = sum(t.total_qubo_solves for t in result.traces)
        if solves > WIDE_MAX_SOLVES:
            failures.append(f"wide-k3: {solves} QUBO solves > {WIDE_MAX_SOLVES}")
    return failures
