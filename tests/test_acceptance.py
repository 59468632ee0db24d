"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Every criterion recomputes its oracle from scratch (Fraction or integer
arithmetic, or an independent enumeration) and times only the engine
work, not the oracle. Run with -s to see the lines on success; they
are always shown for failures.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qrefine import (
    AnnealConfig,
    LinearSystem,
    QuboMatrix,
    RefinementConfig,
    condition_number,
    refine,
    sample_anneal,
    sample_exhaustive,
)
from qrefine.cli import main
from qrefine.encoding import EncodingSpec
from qrefine.qubo import energy

from helpers import (
    anneal_reference,
    build_illcond,
    decode,
    dyadic_fractions,
    enumerate_grid,
    irrational_system,
    frac_residual_sq,
    frac_solution,
    ising_energy,
    log2_distance,
    qubo_to_ising,
    random_bits,
    random_grid_instance,
    random_instance,
    random_qubo_coeffs,
    trace_to_csv,
    window_qubo,
)

_CHECKPOINTS = (15, 10, 5, 0, -5, -10, -15, -20, -25, -30, -35, -40)
_ANNEAL_SEED = 20260817


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def c1():
    """Criterion 1 run, shared: the trace and every window QUBO,
    engine-timed."""
    system, truth = irrational_system()
    config = RefinementConfig(m_max=20, l_min=-40)
    qubos = []

    def capture(qm):
        qubos.append(qm)
        return sample_exhaustive(qm)

    t0 = time.perf_counter()
    trace = refine(system, config, truth=truth, sampler=capture)
    seconds = time.perf_counter() - t0
    return {
        "system": system,
        "truth": truth,
        "config": config,
        "trace": trace,
        "qubos": qubos,
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def c2():
    system, truth = irrational_system()
    config = RefinementConfig(m_max=20, l_min=-40, bits_per_sign=3, level_step=3)
    t0 = time.perf_counter()
    trace = refine(system, config, truth=truth)
    seconds = time.perf_counter() - t0
    return {"trace": trace, "seconds": seconds}


def test_criterion_1_table_reproduction(c1):
    trace, truth = c1["trace"], c1["truth"]
    per_component = max(
        abs(v - t) for v, t in zip(trace.final_center.to_floats(), truth)
    )
    last_by_level = {}
    for rec in trace.records:
        last_by_level[rec.level] = rec
    worst_ratio = 0.0
    checkpoints_ok = True
    for m in _CHECKPOINTS:
        err = last_by_level[m].error_vs_truth
        bound = 2.0 * 2.0**m
        worst_ratio = max(worst_ratio, err / bound)
        checkpoints_ok = checkpoints_ok and err <= bound
    ok = per_component <= 5e-12 and checkpoints_ok and c1["seconds"] < 2.0
    report(
        1,
        ok,
        f"per-component {per_component:.3e} <= 5e-12, "
        f"12 checkpoints err <= 2*2^m (worst ratio {worst_ratio:.2f}), "
        f"engine {c1['seconds']:.3f}s < 2s",
    )


def test_criterion_2_multibit_variant(c1, c2):
    x1 = c1["trace"].final_center.to_floats()
    x2 = c2["trace"].final_center.to_floats()
    diff = max(abs(u - v) for u, v in zip(x1, x2))
    solves = c2["trace"].total_qubo_solves
    ok = diff <= 5e-12 and solves <= 60 and c2["seconds"] < 2.0
    report(
        2,
        ok,
        f"k=3 step=3 agrees with k=1 to {diff:.3e} <= 5e-12, "
        f"{solves} QUBO solves <= 60, engine {c2['seconds']:.3f}s < 2s",
    )


def test_criterion_3_energy_identity():
    rng = random.Random(12345)
    engine = 0.0
    worst = Fraction(0)
    for _ in range(200):
        a, b, center, k, l = random_instance(rng)
        n = len(b)
        spec = EncodingSpec(n_vars=n, l_lo=l, l_hi=l + k - 1)
        system = LinearSystem(a=a, b=b)
        bitsets = [random_bits(rng, 2 * k * n) for _ in range(256)]
        t0 = time.perf_counter()
        qm = window_qubo(system, center, spec)
        energies = [energy(qm, bits) for bits in bitsets]
        engine += time.perf_counter() - t0
        r0 = frac_residual_sq(a, b, dyadic_fractions(center))
        scale = max(Fraction(1), abs(r0))
        for bits, e in zip(bitsets, energies):
            moved = decode(bits, spec, center)
            r1 = frac_residual_sq(a, b, dyadic_fractions(moved))
            worst = max(worst, abs(Fraction(e) - (r1 - r0)) / scale)
    ok = worst <= Fraction(1, 10**9) and engine < 5.0
    report(
        3,
        ok,
        f"200 instances x 256 bitvectors, worst |energy - residual delta| "
        f"{float(worst):.3e} <= 1e-9 (relative), engine {engine:.3f}s < 5s",
    )


def test_criterion_4_ground_truth_oracle():
    rng = random.Random(777)
    engine = 0.0
    exact = 0
    for _ in range(50):
        a, b, center, k, l = random_grid_instance(rng)
        n = len(b)
        spec = EncodingSpec(n_vars=n, l_lo=l, l_hi=l + k - 1)
        system = LinearSystem(a=a, b=b)
        t0 = time.perf_counter()
        qm = window_qubo(system, center, spec)
        best = sample_exhaustive(qm).best()
        engine += time.perf_counter() - t0
        got = tuple(dyadic_fractions(decode(best.bits, spec, center)))
        lowest, argmin = None, set()
        for point in enumerate_grid(spec, center):
            r = frac_residual_sq(a, b, dyadic_fractions(point))
            if lowest is None or r < lowest:
                lowest, argmin = r, {tuple(dyadic_fractions(point))}
            elif r == lowest:
                argmin.add(tuple(dyadic_fractions(point)))
        assert got in argmin, f"sampler best {got} not an exact grid argmin"
        exact += 1
    ok = exact == 50 and engine < 5.0
    report(
        4,
        ok,
        f"{exact}/50 exhaustive winners equal the exact grid argmin, "
        f"engine {engine:.3f}s < 5s",
    )


def _verify_trace_invariants(a, b, trace) -> int:
    """Strict descent, stalls leave everything put, no revisits in a level.

    Residuals are recomputed exactly; the engine's own records are only
    trusted for bits, level, and the centers themselves.
    """
    n = len(b)
    prev = [Fraction(0)] * n
    prev_r = frac_residual_sq(a, b, prev)
    level = None
    seen = set()
    for rec in trace.records:
        now = dyadic_fractions(rec.center_after)
        r = frac_residual_sq(a, b, now)
        if rec.level != level:
            level, seen = rec.level, set()
        if any(rec.bits):
            assert r < prev_r, f"accepted move did not lower the exact residual at level {level}"
            key = tuple(now)
            assert key not in seen, f"center revisited within level {level}"
            seen.add(key)
        else:
            assert now == prev, "stall changed the center"
            assert r == prev_r, "stall changed the residual"
        prev, prev_r = now, r
    return len(trace.records)


def test_criterion_5_monotone_descent(c1, c2):
    system, _ = irrational_system()
    a = [[float(v) for v in row] for row in system.a]
    b = [float(v) for v in system.b]
    checked = _verify_trace_invariants(a, b, c1["trace"])
    checked += _verify_trace_invariants(a, b, c2["trace"])
    rng = random.Random(424242)
    for _ in range(20):
        n = rng.randint(1, 3)
        ra = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            ra[i][i] += 3.0
        rb = [rng.uniform(-8.0, 8.0) for _ in range(n)]
        trace = refine(LinearSystem(a=ra, b=rb), RefinementConfig(m_max=4, l_min=-8))
        checked += _verify_trace_invariants(ra, rb, trace)
    report(
        5,
        True,
        f"exact-residual descent, stall constancy, and no in-level revisits "
        f"hold over {checked} records from 22 traces",
    )


def test_criterion_6_eigenbasis_advantage():
    system, truth = build_illcond(44.0)
    config = RefinementConfig(m_max=2, l_min=-40)
    t0 = time.perf_counter()
    cond = condition_number(system)
    plain = refine(system, config, truth=truth)
    eigen = refine(system, replace(config, use_eigenbasis=True), truth=truth)
    seconds = time.perf_counter() - t0
    plain_moves = sum(1 for r in plain.records if any(r.bits))
    eigen_moves = sum(1 for r in eigen.records if any(r.bits))
    plain_err = max(abs(v - t) for v, t in zip(plain.final_center.to_floats(), truth))
    eigen_err = max(abs(v - t) for v, t in zip(eigen.final_center.to_floats(), truth))
    ok = (
        abs(cond / 129.44 - 1.0) <= 0.01
        and plain_moves >= 1.5 * eigen_moves
        and plain_err <= 1e-9
        and eigen_err <= 1e-9
        and seconds < 2.0
    )
    report(
        6,
        ok,
        f"cond {cond:.2f} within 1% of 129.44, moves {plain_moves} vs "
        f"{eigen_moves} (ratio {plain_moves / eigen_moves:.1f} >= 1.5), "
        f"errors {plain_err:.3e}/{eigen_err:.3e} <= 1e-9, "
        f"engine {seconds:.3f}s < 2s",
    )


def test_criterion_7_annealer_adequacy(c1):
    anneal = AnnealConfig(reads=1000, sweeps=100, seed=_ANNEAL_SEED)
    assert all(qm.n_qubits == 4 for qm in c1["qubos"])
    engine = 0.0
    min_occ = 1000
    found_all = True
    for qm in c1["qubos"]:
        # the annealer searches every encoding, so its oracle is the full
        # enumeration of an unmarked copy, not the window's canonical one
        ground = sample_exhaustive(QuboMatrix(qm.n_qubits, qm.linear, dict(qm.quadratic))).best().energy
        t0 = time.perf_counter()
        ss = sample_anneal(qm, anneal)
        engine += time.perf_counter() - t0
        found_all = found_all and ss.best().energy == ground
        min_occ = min(min_occ, ss.ground_occurrences())
    ok = found_all and min_occ >= 300 and engine < 10.0
    report(
        7,
        ok,
        f"SA found the full-enumeration ground on all {len(c1['qubos'])} window "
        f"QUBOs, min occurrences {min_occ}/1000 >= 300, engine {engine:.3f}s < 10s",
    )


def test_anneal_matches_reference_on_table1_windows(c1):
    """Criterion 7's runs make the decisions of the reference loop."""
    anneal = AnnealConfig(reads=1000, sweeps=100, seed=_ANNEAL_SEED)
    for qm in c1["qubos"]:
        assert sample_anneal(qm, anneal).entries == anneal_reference(qm, anneal).entries


def test_criterion_8_ising_equivalence():
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(50):
        nq = rng.randint(1, 12)
        linear, quadratic = random_qubo_coeffs(rng, nq)
        qm = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        model = qubo_to_ising(qm)
        for state in range(1 << nq):
            bits = tuple((state >> u) & 1 for u in range(nq))
            spins = tuple(2 * b - 1 for b in bits)
            eq = energy(qm, bits)
            ei = ising_energy(model, spins) + model.offset
            worst = max(worst, abs(eq - ei) / max(1.0, abs(eq)))
    ok = worst <= 1e-12
    report(
        8,
        ok,
        f"QUBO == Ising + offset over all states of 50 problems, "
        f"worst relative gap {worst:.3e} <= 1e-12",
    )


def test_criterion_9_determinism(c1, tmp_path):
    system, truth = irrational_system()
    again = refine(system, c1["config"], truth=truth)
    csv_a = trace_to_csv(c1["trace"]).encode("utf-8")
    csv_b = trace_to_csv(again).encode("utf-8")
    problem = tmp_path / "problem.json"
    problem.write_text(
        '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -2.0]}', encoding="utf-8"
    )
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    args = ["qubo-dump", str(problem), "--center", "0.5,-0.25", "--level", "-3"]
    assert main([*args, "--out", str(d1)]) == 0
    assert main([*args, "--out", str(d2)]) == 0
    dumps_equal = d1.read_bytes() == d2.read_bytes()
    ok = csv_a == csv_b and dumps_equal
    report(
        9,
        ok,
        f"two runs give byte-identical trace CSV ({len(csv_a)} bytes) "
        f"and qubo-dump output is byte-stable",
    )


def test_criterion_10_deep_levels():
    # every run's windows are one unit window, so no window term underflows:
    # at l_min = -1000 the final exact error, against the Fraction solution,
    # is at most 2 kappa 2^l_min on table1 and on seeded well-conditioned
    # systems A = G / sqrt(n) + 2 I. Engine time measured on a 2-core box:
    # 0.73 s for the five runs
    l_min = -1000
    systems = [irrational_system()[0]]
    for n in (2, 3, 4, 6):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) / math.sqrt(n) + 2.0 * np.eye(n)
        systems.append(LinearSystem(a=a, b=rng.standard_normal(n)))
    engine, worst = 0.0, -math.inf
    for system in systems:
        t0 = time.perf_counter()
        trace = refine(system, RefinementConfig(l_min=l_min))
        engine += time.perf_counter() - t0
        x = frac_solution(system.a.tolist(), system.b.tolist())
        bound = math.log2(2.0 * condition_number(system)) + l_min
        worst = max(worst, log2_distance(trace.final_center, x) - bound)
    ok = worst <= 0.0 and engine < 3.0
    report(
        10,
        ok,
        f"{len(systems)} systems at l_min {l_min}, exact error <= 2 kappa 2^l_min "
        f"(worst 2^{worst:.2f} of the bound), engine {engine:.3f}s < 3s",
    )
