"""Tests of the benchmark itself: the checker can fail, every declared
metric is printed with its unit, and every traced name exists.

  python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qrefine import SampleEntry, SampleSet  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def zero_sampler(q):
    """Always answers the all-zero state, so no move is ever made."""
    return SampleSet(entries=(SampleEntry((0,) * q.n_qubits, 0.0, 1),))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_zero_sampler_fails_every_pass(name):
    workload = workloads.build(name, seed=7)
    checker = run.Checker(workloads, workload)
    for _ in range(2):
        checker(workloads.run_pass(workload, zero_sampler))
    assert checker.attempted == 2 and checker.failed / checker.attempted == 1.0


def test_checker_passes_the_real_sampler():
    workload = workloads.build("narrow-k1", seed=7)
    assert workloads.check_pass(workload, workloads.run_pass(workload)) == []


def test_wrapped_names_exist_in_package():
    layers.check_wrapped_names()
    refine_mod, qubo_mod = layers.modules()
    for name in layers.REFINE_WRAPPED:
        assert callable(getattr(refine_mod, name))
    assert callable(getattr(qubo_mod, layers.QUBO_COUNTED))


def test_tracer_restores_the_package():
    refine_mod, qubo_mod = layers.modules()
    before = {n: getattr(refine_mod, n) for n in layers.REFINE_WRAPPED}
    energy = qubo_mod.energy
    with layers.Tracer().installed():
        assert all(getattr(refine_mod, n) is not f for n, f in before.items())
    assert {n: getattr(refine_mod, n) for n in layers.REFINE_WRAPPED} == before
    assert qubo_mod.energy is energy


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "wide-k3", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
