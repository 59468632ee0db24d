#!/usr/bin/env python3
"""qrefine benchmark: one workload per process, closed loop, checked outputs.

  python3 perfbench/run.py --workload wide-k3 --seed 7 --seconds 30 --trace 0

Run from the repository root. With --trace 0 it prints the end-to-end
metrics; with --trace 1 it interleaves untraced passes with passes whose
calls into each layer are wrapped, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 0 only if every pass
passed its output checks, 1 if one failed. Without a result line, it exits
1 when qrefine cannot be imported from ./src and 2 when a layer cannot be
traced.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in the import probes,
# so a small shared machine measures the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 10  # each step's p90 over passes needs at least this many
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "qubo_solves": "count",
    "final_error": "abs",
    "peak_rss_mb": "MiB",
}


def load_package():
    """Import qrefine from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import qrefine
    except ImportError as exc:
        raise SystemExit(f"error: cannot import qrefine from {SRC}: {exc}") from exc
    if not Path(qrefine.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qrefine imported from {qrefine.__file__}, not from {SRC}")


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".ns_per_state", ".ns_per_flip")):
        return "ns"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(("ground_frac", "ground_frac_min", "accept_ratio")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def import_seconds() -> float:
    """Time `import qrefine` in a fresh interpreter (startup excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import qrefine; print(time.perf_counter() - t); print(qrefine.__file__)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    ).stdout.split("\n")
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: import probe loaded qrefine from {out[1]}")
    return float(out[0])


def measure_setup(workloads, name: str, seed: int):
    """Median over SETUP_REPEATS of fresh-process import plus parsing the
    problem documents and building the systems."""
    totals = []
    workload = None
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload = workloads.build(name, seed)
        totals.append(t_import + time.perf_counter() - t0)
    return statistics.median(totals), workload


class Checker:
    """Counts passes and failed passes; all passes must give the same trace."""

    def __init__(self, workloads, workload):
        self.workloads = workloads
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.sha256 = None
        self.messages: list[str] = []

    def __call__(self, result) -> None:
        self.attempted += 1
        failures = self.workloads.check_pass(self.workload, result)
        if self.sha256 is None:
            self.sha256 = result.sha256
        elif result.sha256 != self.sha256:
            failures.append(f"trace CSV sha256 {result.sha256} differs from the first pass {self.sha256}")
        if failures:
            self.failed += 1
            self.messages.extend(failures)


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workloads, workload, checker, seconds: float, setup_s: float) -> dict:
    """Every pass does the same work, which the trace digest proves, so the
    k-th step of each pass is one sample of the same step. A step's time is
    its 90th percentile over the passes: the time at the host's contended
    speed. On a shared host the fast share of a run varies from run to run,
    so medians taken over a run move far more than these upper tails.
    step_ms_p90 is over all step executions, so at least ten lie beyond it."""
    checker(workloads.run_pass(workload))  # warm-up: checked, not timed
    walls, steps = [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        last = workloads.run_pass(workload)
        checker(last)
        walls.append(last.wall_s)
        steps.append(array("d", last.step_s))  # only timings outlive a pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    step_s = [percentile(times, 90) for times in zip(*steps)]
    return {
        "setup_s": setup_s,
        "wall_s": sum(step_s),
        "step_ms_p50": 1e3 * statistics.median(step_s),
        "step_ms_p90": 1e3 * percentile([t for times in steps for t in times], 90),
        "qubo_solves": sum(t.total_qubo_solves for t in last.traces),
        "final_error": workloads.final_error(last.traces, workload),
        "peak_rss_mb": peak_rss_mb,
    }, {
        "passes": len(walls),
        "steps_per_pass": len(step_s),
        "pass_wall_median_s": statistics.median(walls),
        "pass_wall_min_s": min(walls),
        "pass_wall_max_s": max(walls),
    }


def per_layer(workloads, layers, workload, checker, seconds: float) -> dict:
    checker(workloads.run_pass(workload))  # warm-up
    plain_walls, traced = [], []
    reads, sweeps = workloads.ANNEAL_READS, workloads.ANNEAL_SWEEPS
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        result = workloads.run_pass(workload)
        checker(result)
        plain_walls.append(result.wall_s)
        tracer = layers.Tracer()
        sampler = tracer.sampler(workload.sampler_kind, workload.sampler, reads, sweeps)
        with tracer.installed():
            result = workloads.run_pass(workload, sampler, lambda w: tracer.timed("traceio.write", w))
        checker(result)
        layers.check_required(workload.name, tracer)
        problems = layers.check_accounting(tracer, result.wall_s)
        if problems:
            raise layers.TracingError("; ".join(problems))
        traced.append(layers.pass_layers(tracer, result.wall_s, result.traces, result.csv_bytes))
    # median_low: every figure is one a pass produced, so counts stay whole
    metrics = {name: statistics.median_low(p[name] for p in traced) for name in traced[0]}
    metrics["trace_overhead_s"] = metrics["traced_wall_s"] - statistics.median_low(plain_walls)
    return metrics, {"passes": len(plain_walls), "traced_passes": len(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7, help="annealer seed (exhaustive workloads have no random input)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help=f"measuring time after set-up and warm-up (at least {MIN_PASSES} passes run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_package()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **machine_record()}
    record["loadavg_before"] = os.getloadavg()
    try:
        if args.trace:
            workload = workloads.build(args.workload, args.seed)
            checker = Checker(workloads, workload)
            values, counts = per_layer(workloads, layers, workload, checker, args.seconds)
            units = {name: per_layer_unit(name) for name in values}
        else:
            setup_s, workload = measure_setup(workloads, args.workload, args.seed)
            checker = Checker(workloads, workload)
            values, counts = end_to_end(workloads, workload, checker, args.seconds, setup_s)
            units = END_TO_END_UNITS
    except layers.TracingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["loadavg_after"] = os.getloadavg()
    record.update(counts, trace_sha256=checker.sha256, fail_frac=checker.failed / checker.attempted)

    for message in checker.messages:
        print(f"FAIL: {message}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:<36} {value!r:>24} {units[name]}")
    print(f"{'fail_frac':<36} {record['fail_frac']!r:>24} ratio ({checker.failed}/{checker.attempted} passes)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
