"""Level descent: acceptance rule, stalls, caps, eigenbasis, exactness."""

import importlib
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    build_illcond,
    dyadic_fractions,
    enumerate_grid,
    frac_normal_rhs,
    frac_residual_sq,
    irrational_system,
)
from qrefine import (
    AnnealConfig,
    DimensionMismatch,
    DyadicVector,
    IndexOutOfRange,
    LinearSystem,
    RefinementConfig,
    SampleEntry,
    SampleSet,
    SingularMatrix,
    condition_number,
    refine,
    sample_anneal,
    sample_exhaustive,
)
from qrefine.encoding import EncodingSpec
from qrefine.linalg import exact_gram, normal_residual, residual, symmetric_eigen
from qrefine.qubo import energy
from qrefine.refine import default_m_max, energy_change, error_vs_truth

ID2 = LinearSystem(a=[[1.0, 0.0], [0.0, 1.0]], b=[3.0, -2.0])


def fracs(vec: DyadicVector) -> list[Fraction]:
    return dyadic_fractions(vec)


def one_level(system, start, level, max_recenters=1000):
    """Refine at the single one-bit window [level, level] from start."""
    config = RefinementConfig(m_max=level, l_min=level, max_recenters_per_level=max_recenters,
                              initial_center=start)
    return refine(system, config)


def test_config_validation():
    with pytest.raises(ValueError):
        RefinementConfig(bits_per_sign=0)
    with pytest.raises(ValueError):
        RefinementConfig(level_step=0)
    with pytest.raises(ValueError):
        RefinementConfig(max_recenters_per_level=0)
    with pytest.raises(ValueError):
        RefinementConfig(residual_tolerance=-1.0)
    with pytest.raises(ValueError):
        RefinementConfig(sampler="quantum")
    # a window that cannot fit is refused by refine, once m_max is known
    at_zero = LinearSystem(a=[[1.0]], b=[0.0])
    with pytest.raises(ValueError, match="no 1-bit window fits"):
        refine(at_zero, RefinementConfig(m_max=-5, l_min=0))
    with pytest.raises(ValueError, match="no 3-bit window fits"):
        refine(at_zero, RefinementConfig(m_max=-40, l_min=-40, bits_per_sign=3))
    assert refine(at_zero, RefinementConfig(m_max=-38, l_min=-40, bits_per_sign=3)).total_qubo_solves == 1


def test_recenter_at_solution_is_noop():
    system = LinearSystem(a=[[1.0]], b=[5.0])
    for level in (3, 0, -7):
        result = one_level(system, DyadicVector((5,), 0), level)
        assert result.final_center == DyadicVector((5,), 0)
        assert result.terminated_by == "level-exhausted"
        assert len(result.records) == 1  # the stall solve that proves stability
        assert result.records[0].qubo_energy == 0.0
        assert not any(result.records[0].bits)


def test_recenter_one_move_then_stall():
    system = LinearSystem(a=[[1.0]], b=[5.0])
    result = one_level(system, DyadicVector.zero(1), 2)
    assert fracs(result.final_center) == [Fraction(4)]
    moves = [r for r in result.records if any(r.bits)]
    assert len(moves) == 1
    # energy of the move is r(4) - r(0) = 1 - 25
    assert moves[0].qubo_energy == -24.0
    assert moves[0].target_energy == -25.0
    assert result.records[-1].qubo_energy == 0.0


def test_recenter_level_zero_reaches_solution():
    system = LinearSystem(a=[[1.0]], b=[5.0])
    result = one_level(system, DyadicVector((4,), 0), 0)
    assert fracs(result.final_center) == [Fraction(5)]
    assert result.records[-1].residual_norm_sq == 0.0


def test_recenter_cap_counts_accepted_moves():
    system = LinearSystem(a=[[1.0]], b=[5.0])
    result = one_level(system, DyadicVector.zero(1), 0, max_recenters=2)
    assert result.terminated_by == "recenter-cap"
    assert len(result.records) == 2
    assert fracs(result.final_center) == [Fraction(2)]  # walked 0 -> 1 -> 2, then cut off


def test_move_accepted_when_residual_drops_below_float_precision():
    # x0 and x1 have zero columns, so no move changes their rows; moving
    # x2 by 2^-101 takes the residual from 1 + 2^-60 + 2^-200 to
    # 1 + 2^-60 + 2^-202, a drop 140 bits below the 2^-60 term
    system = LinearSystem(a=np.diag([0.0, 0.0, 1.0]), b=[1.0, 2.0**-30, 2.0**-100])
    result = one_level(system, DyadicVector.zero(3), -101, max_recenters=1)
    assert result.terminated_by == "recenter-cap"
    assert fracs(result.records[0].center_after) == [0, 0, Fraction(2) ** -101]


def test_refine_exact_on_integer_grid():
    config = RefinementConfig(m_max=2, l_min=0)
    trace = refine(ID2, config)
    assert fracs(trace.final_center) == [Fraction(3), Fraction(-2)]
    assert trace.records[-1].residual_norm_sq == 0.0
    assert trace.terminated_by == "level-exhausted"
    levels = [r.level for r in trace.records]
    assert levels == sorted(levels, reverse=True)
    assert set(levels) == {2, 1, 0}


def test_refine_wide_windows_span_blocks():
    # 18-qubit windows: 16 blocks of the exhaustive sampler per solve
    a = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
    trace = refine(LinearSystem(a=a, b=[1.0, 2.0, 3.0]),
                   RefinementConfig(bits_per_sign=3, level_step=3, l_min=-30))
    assert trace.total_qubo_solves == 22
    assert trace.terminated_by == "level-exhausted"
    solution = [Fraction(2, 9), Fraction(1, 9), Fraction(13, 9)]
    dist_sq = sum((c - x) ** 2 for c, x in zip(fracs(trace.final_center), solution))
    kappa = 2.0 + math.sqrt(3.0)  # A is symmetric with eigenvalues 3 - sqrt 3, 3, 3 + sqrt 3
    assert dist_sq <= (Fraction(kappa) * Fraction(2) ** -30) ** 2


def test_refine_record_bookkeeping():
    trace = refine(ID2, RefinementConfig(m_max=2, l_min=0), truth=(3.0, -2.0))
    assert [r.ordinal for r in trace.records] == list(range(1, len(trace.records) + 1))
    assert trace.total_qubo_solves == len(trace.records)
    for rec in trace.records:
        if any(rec.bits):
            assert rec.qubo_energy < 0.0
        else:
            assert rec.qubo_energy == 0.0
        assert rec.target_energy <= 0.0
    assert trace.records[-1].error_vs_truth == 0.0


def test_refine_monotone_descent_oracle():
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(m_max=8, l_min=-12))
    prev = frac_residual_sq(system.a, system.b, [Fraction(0), Fraction(0)])
    prev_center = DyadicVector.zero(2)
    for rec in trace.records:
        now = frac_residual_sq(system.a, system.b, fracs(rec.center_after))
        if any(rec.bits):
            assert now < prev
        else:
            assert rec.center_after == prev_center
            assert now == prev
        prev, prev_center = now, rec.center_after


def test_refine_no_repeated_centers_within_level():
    system, _ = irrational_system()
    trace = refine(system, RefinementConfig(m_max=8, l_min=-12))
    seen: dict[int, set] = {}
    for rec in trace.records:
        if any(rec.bits):
            level_set = seen.setdefault(rec.level, set())
            assert rec.center_after not in level_set
            level_set.add(rec.center_after)


def test_refine_target_energy_decays():
    system, _ = irrational_system()
    trace = refine(system, RefinementConfig(m_max=8, l_min=-12))
    level_end_targets = []
    for i, rec in enumerate(trace.records):
        if i + 1 == len(trace.records) or trace.records[i + 1].level != rec.level:
            level_end_targets.append(-rec.residual_norm_sq)
    assert all(t <= 0.0 for t in level_end_targets)
    assert level_end_targets == sorted(level_end_targets)


def test_refine_level_local_optimality():
    rng = random.Random(62831)
    for _ in range(12):
        n = rng.randint(1, 3)
        a = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]) + 2.0 * np.eye(n)
        b = [rng.uniform(-4, 4) for _ in range(n)]
        system = LinearSystem(a=a, b=b)
        level = rng.randint(-3, 2)
        start = DyadicVector(tuple(rng.randint(-8, 8) for _ in range(n)), level)
        result = one_level(system, start, level)
        assert result.terminated_by == "level-exhausted"
        spec = EncodingSpec(n_vars=n, l_lo=level, l_hi=level)
        settled = frac_residual_sq(system.a, b, fracs(result.final_center))
        for point in enumerate_grid(spec, result.final_center):
            assert frac_residual_sq(system.a, b, fracs(point)) >= settled


def test_refine_grid_containment():
    # solution representable on the level grid: descent must hit it exactly
    a = [[2.0, 1.0], [1.0, 3.0]]
    truth = [Fraction(11, 4), Fraction(-5, 2)]
    b = [float(2 * truth[0] + truth[1]), float(truth[0] + 3 * truth[1])]
    system = LinearSystem(a=a, b=b)
    trace = refine(system, RefinementConfig(m_max=3, l_min=-2))
    assert fracs(trace.final_center) == truth
    assert trace.records[-1].residual_norm_sq == 0.0


def test_refine_initial_center_and_tolerance():
    system, truth = irrational_system()
    start = DyadicVector.from_floats((3216.0, -87.0))
    config = RefinementConfig(m_max=4, l_min=-30, residual_tolerance=1e-10,
                              initial_center=start)
    trace = refine(system, config, truth=truth)
    assert trace.terminated_by == "residual-tolerance"
    assert trace.records[-1].residual_norm_sq <= 1e-10
    assert trace.records[-1].error_vs_truth <= 1e-4


def test_refine_recenter_cap_ends_run():
    system = LinearSystem(a=[[1.0]], b=[100.0])
    config = RefinementConfig(m_max=0, l_min=-2, max_recenters_per_level=3)
    trace = refine(system, config)
    assert trace.terminated_by == "recenter-cap"
    assert trace.total_qubo_solves == 3


def test_refine_rejects_resolved_m_max_without_window():
    # default m_max here is 1, so a 3-bit window would start at -1 < l_min
    system = LinearSystem(a=[[1.0]], b=[0.0])
    with pytest.raises(ValueError, match="no 3-bit window fits"):
        refine(system, RefinementConfig(l_min=0, bits_per_sign=3))
    assert refine(system, RefinementConfig(l_min=-1, bits_per_sign=3)).total_qubo_solves == 1


def test_refine_rejects_bad_initial_center():
    with pytest.raises(DimensionMismatch, match="solution length != system size"):
        refine(ID2, RefinementConfig(m_max=2, l_min=0, initial_center=DyadicVector.zero(3)))


def test_error_vs_truth_examples():
    system, truth = irrational_system()
    exact = DyadicVector.from_floats
    assert error_vs_truth(DyadicVector((0, 0), 0), exact(truth)) == pytest.approx(
        math.hypot(truth[0], truth[1]), rel=1e-15
    )
    assert 3218.0 < error_vs_truth(DyadicVector((0, 0), 0), exact(truth)) < 3218.5
    assert error_vs_truth(DyadicVector((3,), 0), exact((5.0,))) == 2.0
    assert error_vs_truth(exact(truth), exact(truth)) == 0.0
    # the square passes the float range, the distance does not
    assert error_vs_truth(DyadicVector.zero(2), exact((1e300, 0.0))) == 1e300
    assert error_vs_truth(DyadicVector((3, 4), 1020), exact((0.0, 0.0))) == 5.0 * 2.0**1020
    assert error_vs_truth(DyadicVector((1,), 1100), exact((0.0,))) == math.inf


def test_refine_rejects_truth_of_other_length():
    with pytest.raises(DimensionMismatch, match="truth lengths differ"):
        refine(ID2, RefinementConfig(m_max=2, l_min=0), truth=(3.0,))


def test_refine_rejects_non_finite_truth_before_any_solve():
    solves = []

    def counted(qm):
        solves.append(qm)
        return sample_exhaustive(qm)

    with pytest.raises(ValueError, match="non-finite value"):
        refine(ID2, RefinementConfig(m_max=2, l_min=0), truth=(3.0, math.nan), sampler=counted)
    assert solves == []


@given(
    st.lists(st.tuples(st.integers(min_value=-(2**80), max_value=2**80),
                       st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=3),
    st.integers(min_value=-1200, max_value=600),
)
def test_error_vs_truth_is_root_of_rounded_exact_square(pairs, exponent):
    center = DyadicVector(tuple(m for m, _ in pairs), exponent)
    truth = [t for _, t in pairs]
    square = sum((c - Fraction(t)) ** 2 for c, t in zip(fracs(center), truth))
    try:
        expect = math.sqrt(float(square))
    except OverflowError:
        return  # the square is past the float range
    assert error_vs_truth(center, DyadicVector.from_floats(truth)) == expect


def test_observer_sees_every_record():
    seen = []
    trace = refine(ID2, RefinementConfig(m_max=2, l_min=0), observer=seen.append)
    assert seen == list(trace.records)


def test_default_m_max_covers_solution():
    system, truth = irrational_system()
    m = default_m_max(system, residual(system, DyadicVector.zero(system.n)))
    assert 2.0**m >= max(abs(t) for t in truth)
    trace = refine(system, RefinementConfig(l_min=-40))
    for value, t in zip(trace.final_center.to_floats(), truth):
        assert abs(value - t) <= 5e-12


def test_one_eigen_solve_per_system(monkeypatch):
    # condition_number, an eigenbasis run and two default-m_max runs on one
    # system all read the cached symmetric_eigen of its gram, so LAPACK
    # runs once; the count is taken on numpy itself
    symmetric_eigen.cache_clear()
    original, calls = np.linalg.eigh, []

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    system, _ = build_illcond(44.0)
    condition_number(system)
    eigen = refine(system, RefinementConfig(l_min=-2, use_eigenbasis=True))
    plain = [refine(system, RefinementConfig(l_min=-2)) for _ in range(2)]
    top = default_m_max(system, residual(system, DyadicVector.zero(system.n)))
    assert eigen.records[0].level == plain[0].records[0].level == plain[1].records[0].level == top
    assert len(calls) == 1


def test_default_m_max_starts_at_the_start_residual():
    # from the float solve x0, ||x* - x0|| <= ||b - A x0|| / sigma_min, so
    # the top window drops from the zero start's 2^13 to 2^2, and the run
    # reaches the same final error as one from 2^13 in fewer solves
    system, truth = irrational_system()
    x0 = DyadicVector.from_floats(np.linalg.solve(system.a, system.b).tolist())
    start = refine(system, RefinementConfig(l_min=-40, initial_center=x0), truth=truth)
    high = refine(system, RefinementConfig(m_max=13, l_min=-40, initial_center=x0), truth=truth)
    assert refine(system, RefinementConfig(l_min=12)).records[0].level == 13  # from zero
    assert start.records[0].level == 2
    assert start.total_qubo_solves < high.total_qubo_solves
    assert start.records[-1].error_vs_truth == high.records[-1].error_vs_truth


def test_anneal_settings_need_the_annealer():
    # settings for a sampler that does not run are refused, not ignored
    with pytest.raises(ValueError, match="sampler='sa'"):
        RefinementConfig(m_max=4, l_min=-4, anneal=AnnealConfig(reads=3))
    assert RefinementConfig(sampler="sa", anneal=AnnealConfig(reads=3)).anneal.reads == 3


def test_every_run_forms_one_float_gram(monkeypatch):
    # plain or eigenbasis, the windows read float_gram of the run's work
    # matrix W, formed once; a plain run's W is A, and it leaves the
    # system's cached gram unread
    refine_mod = importlib.import_module("qrefine.refine")
    original, calls = refine_mod.float_gram, []

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(refine_mod, "float_gram", counted)
    system, _ = irrational_system()
    refine(system, RefinementConfig(m_max=20, l_min=-10))
    assert len(calls) == 1 and np.array_equal(calls[0], system.a)
    assert "gram" not in vars(system)
    refine(irrational_system()[0], RefinementConfig(m_max=20, l_min=-10, use_eigenbasis=True))
    assert len(calls) == 2


def test_run_forms_one_residual(monkeypatch):
    # b - Ac is formed once per run, and g and ||b - Ac||^2 both come from
    # it; residual_norm_sq is still called once, by the name on refine's
    # module that perfbench's tracer wraps
    linalg_mod, refine_mod = (importlib.import_module(f"qrefine.{m}") for m in ("linalg", "refine"))
    original_residual, original_norm_sq = linalg_mod.residual, refine_mod.residual_norm_sq
    residuals, norms = [], []

    def counted_residual(*args):
        residuals.append(args)
        return original_residual(*args)

    def counted_norm_sq(*args):
        norms.append(args)
        return original_norm_sq(*args)

    monkeypatch.setattr(linalg_mod, "residual", counted_residual)
    monkeypatch.setattr(refine_mod, "residual", counted_residual)
    monkeypatch.setattr(refine_mod, "residual_norm_sq", counted_norm_sq)
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(m_max=20, l_min=-40), truth=truth)
    assert trace.total_qubo_solves > 1
    assert (len(residuals), len(norms)) == (1, 1)


@pytest.mark.parametrize(
    "case, config",
    [(irrational_system, RefinementConfig(m_max=20, l_min=-40)),
     (lambda: build_illcond(44.0), RefinementConfig(m_max=2, l_min=-40, use_eigenbasis=True))],
    ids=["table1-k1", "illcond-44-eigenbasis"],
)
def test_records_change_only_with_a_move(monkeypatch, case, config):
    # the reported center and its error are formed at the start and after
    # each accepted move; a rejected solve's record reuses the last ones
    refine_mod = importlib.import_module("qrefine.refine")
    original, calls = refine_mod.error_vs_truth, []

    def counted(center, truth):
        calls.append(center)
        return original(center, truth)

    monkeypatch.setattr(refine_mod, "error_vs_truth", counted)
    system, truth = case()
    trace = refine(system, config, truth=truth)
    moved = [any(rec.bits) for rec in trace.records]
    assert len(calls) == 1 + sum(moved)
    assert not all(moved)
    start = DyadicVector.zero(2)
    last = (start, original(start, DyadicVector.from_floats(truth)))
    for rec, move in zip(trace.records, moved):
        if not move:
            assert (rec.center_after, rec.error_vs_truth) == last
        last = (rec.center_after, rec.error_vs_truth)
    assert trace.final_center == last[0]


def test_eigenbasis_diagonal_matches_plain():
    system = LinearSystem(a=[[4.0, 0.0], [0.0, 1.0]], b=[5.0, -3.0])
    config = RefinementConfig(m_max=2, l_min=-6)
    plain = refine(system, config)
    eigen = refine(system, replace(config, use_eigenbasis=True))
    assert eigen.final_center == plain.final_center
    assert [r.bits for r in eigen.records] == [r.bits for r in plain.records]
    assert [r.center_after for r in eigen.records] == [r.center_after for r in plain.records]


def test_eigenbasis_orthogonal_same_residual():
    th = math.radians(30.0)
    a = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    b = [0.75, -1.5]
    system = LinearSystem(a=a, b=b)
    config = RefinementConfig(m_max=2, l_min=-20)
    plain = refine(system, config)
    eigen = refine(system, replace(config, use_eigenbasis=True))
    assert plain.records[-1].residual_norm_sq <= 1e-10
    assert eigen.records[-1].residual_norm_sq <= 1e-10


def test_eigenbasis_final_center_is_exact_transform():
    system, truth = irrational_system()
    config = RefinementConfig(m_max=12, l_min=-20, use_eigenbasis=True)
    trace = refine(system, config, truth=truth)
    # recorded x-space centers are exact dyadics; the final error must
    # land near the plain route's
    err = error_vs_truth(trace.final_center, DyadicVector.from_floats(truth))
    assert err <= 1e-4
    assert trace.records[-1].center_after == trace.final_center


def test_eigenbasis_beats_plain_on_illconditioned():
    system, truth = build_illcond(30.0)
    config = RefinementConfig(m_max=2, l_min=-34)
    eigen = refine(system, replace(config, use_eigenbasis=True), truth=truth)
    plain = refine(system, config, truth=truth)
    eigen_moves = sum(1 for r in eigen.records if any(r.bits))
    plain_moves = sum(1 for r in plain.records if any(r.bits))
    assert eigen.records[-1].error_vs_truth <= 1e-9
    assert eigen_moves < plain_moves


def test_sa_refinement_deterministic():
    from qrefine import AnnealConfig

    system, _ = irrational_system()
    config = RefinementConfig(
        m_max=6, l_min=-6, sampler="sa",
        anneal=AnnealConfig(reads=64, sweeps=40, seed=11),
    )
    first = refine(system, config)
    second = refine(system, config)
    assert first.records == second.records
    assert first.final_center == second.final_center


@pytest.mark.parametrize(
    "config",
    [
        RefinementConfig(m_max=20, l_min=-40, bits_per_sign=3, level_step=3),
        RefinementConfig(m_max=6, l_min=-6, sampler="sa",
                         anneal=AnnealConfig(reads=64, sweeps=40, seed=11)),
    ],
    ids=["exhaustive-k3", "anneal"],
)
def test_records_carry_each_solves_ground_occurrences(config):
    # the record of every solve, accepted or not, carries the count that
    # a sampler wrapped around the same backend sees
    system, truth = irrational_system()
    counts = []

    def capture(qm):
        ss = sample_anneal(qm, config.anneal) if config.sampler == "sa" else sample_exhaustive(qm)
        counts.append(ss.ground_occurrences())
        return ss

    captured = refine(system, config, truth=truth, sampler=capture)
    trace = refine(system, config, truth=truth)
    assert trace.records == captured.records
    assert [r.ground_occurrences for r in trace.records] == counts
    assert max(counts) > 1


def check_carried_residuals(system, trace, start):
    """Every record's residual is the exact ||b - A center_after||^2,
    rounded once, and a rejected solve keeps the residual before it."""
    a, b = system.a.tolist(), system.b.tolist()
    before = float(frac_residual_sq(a, b, fracs(start)))
    for rec in trace.records:
        assert rec.residual_norm_sq == float(frac_residual_sq(a, b, fracs(rec.center_after)))
        if not any(rec.bits):
            assert rec.residual_norm_sq == before
        before = rec.residual_norm_sq


@pytest.mark.parametrize("k", [1, 3])
def test_carried_residual_is_exact_on_table1(k):
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(m_max=20, l_min=-40, bits_per_sign=k, level_step=k), truth=truth)
    # a run that never moves keeps its residual exact too, so it must move
    # and reach criterion 1's bound
    assert any(any(rec.bits) for rec in trace.records)
    assert all(abs(c - t) <= 5e-12 for c, t in zip(trace.final_center.to_floats(), truth))
    check_carried_residuals(system, trace, DyadicVector.zero(2))


def test_carried_residual_is_exact_on_random_plain_runs():
    rng = random.Random(2718)
    for _ in range(12):
        n = rng.randint(1, 3)
        a = [[rng.uniform(-2.0, 2.0) + (3.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
        b = [rng.uniform(-4.0, 4.0) for _ in range(n)]
        start = DyadicVector(tuple(rng.randint(-64, 64) for _ in range(n)), -3)
        k = rng.randint(1, 2)
        config = RefinementConfig(m_max=4, l_min=-24, bits_per_sign=k, initial_center=start)
        system = LinearSystem(a=a, b=b)
        trace = refine(system, config)
        assert any(any(rec.bits) for rec in trace.records)
        check_carried_residuals(system, trace, start)


def test_eigenbasis_run_reaches_the_exact_solution():
    # the work system is A V exactly, so the eigenbasis walk descends on
    # the stored system itself and tracks 2^l_min, not a rounded A V
    system, _ = build_illcond(44.0)
    trace = refine(system, RefinementConfig(m_max=2, l_min=-100, use_eigenbasis=True))
    (a00, a01), (a10, a11) = [[Fraction(v) for v in row] for row in system.a.tolist()]
    b0, b1 = (Fraction(v) for v in system.b.tolist())
    det = a00 * a11 - a01 * a10
    exact = [(b0 * a11 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det]
    dist_sq = sum((c - x) ** 2 for c, x in zip(fracs(trace.final_center), exact))
    kappa = condition_number(system)
    assert dist_sq <= (Fraction(kappa) * Fraction(1, 2**100)) ** 2
    check_carried_residuals(system, trace, DyadicVector.zero(2))


def test_initial_center_is_refused_with_eigenbasis():
    # the eigenbasis run's center is u in x = V u, so an initial x would be misread
    with pytest.raises(ValueError, match="use_eigenbasis"):
        RefinementConfig(use_eigenbasis=True, initial_center=DyadicVector.zero(2))
    RefinementConfig(use_eigenbasis=True)
    RefinementConfig(initial_center=DyadicVector.zero(2))


def test_sampler_bit_other_than_0_or_1_is_rejected():
    # energy() reads a bit only as set or not, so a bit of 2 would be
    # decoded as a move twice the size of the state its energy scored
    system = LinearSystem(a=[[1.0]], b=[3.0])

    def two(qm):
        return SampleSet((SampleEntry((2, 0), energy(qm, (2, 0)), 1),))

    with pytest.raises(IndexOutOfRange, match="0 or 1"):
        refine(system, RefinementConfig(m_max=0, l_min=0), sampler=two)


def test_move_is_accepted_by_its_exact_change_whatever_energy_is_reported():
    # a sampler's energies only rank its states: a move reported at +7
    # is still taken while the exact residual drops, and refused after
    system = LinearSystem(a=[[1.0]], b=[3.0])

    def uphill(qm):
        return SampleSet((SampleEntry((1, 0), 7.0, 1),))

    trace = refine(system, RefinementConfig(m_max=0, l_min=0), sampler=uphill)
    assert [r.bits for r in trace.records] == [(1, 0)] * 3 + [(0, 0)]
    assert [r.qubo_energy for r in trace.records] == [7.0] * 3 + [0.0]
    assert [fracs(r.center_after) for r in trace.records] == [[1], [2], [3], [3]]
    assert [r.residual_norm_sq for r in trace.records] == [4.0, 1.0, 0.0, 0.0]
    assert trace.final_center == DyadicVector((3,), 0)


def test_reported_energy_convention_does_not_change_the_walk():
    # the exhaustive best state reported at |energy| + 1, as a sampler with
    # another energy offset might, makes the same moves as the plain run
    system, truth = irrational_system()
    config = RefinementConfig(m_max=20, l_min=-40)

    def positive(qm):
        best = sample_exhaustive(qm).best()
        return SampleSet((best._replace(energy=abs(best.energy) + 1.0),))

    plain = refine(system, config, truth=truth)
    shifted = refine(system, config, truth=truth, sampler=positive)

    def walk(trace):
        return [(r.level, r.recenter_index, r.bits, r.center_after, r.residual_norm_sq, r.error_vs_truth)
                for r in trace.records]

    assert len(plain.records) == 100
    assert walk(shifted) == walk(plain)
    assert shifted.final_center == plain.final_center


@pytest.mark.parametrize("a", [[[3.0, 1.0], [3.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]]])
def test_singular_within_rounding_is_refused_alike(a):
    # the smallest eigenvalue of these A^T A comes out as rounding noise,
    # positive for the first and zero for the second; one relative test
    # refuses both, in default_m_max as in condition_number
    system = LinearSystem(a=a, b=[1.0, 1.0])
    with pytest.raises(SingularMatrix):
        default_m_max(system, residual(system, DyadicVector.zero(system.n)))
    with pytest.raises(SingularMatrix):
        condition_number(system)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150),
             min_size=n, max_size=n),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=n, max_size=n),
    st.integers(min_value=-80, max_value=40),
    st.lists(st.integers(min_value=-255, max_value=255), min_size=n, max_size=n),
    st.integers(min_value=-80, max_value=40),
)))
def test_energy_change_is_the_exact_residual_change(case):
    # the carried state of refine: the change 4^l y^T G y - 2^(l+1) y^T g
    # is ||b - A(c + y 2^l)||^2 - ||b - Ac||^2, and g - G y 2^l is the
    # normal residual at the moved center
    a, b, mantissas, exponent, increments, l = case
    system = LinearSystem(a=a, b=b)
    center = DyadicVector(tuple(mantissas), exponent)
    moved = center.add_increments(increments, l)
    rows, e, _ = system.exact
    g = normal_residual(rows, e, residual(system, center))
    d_m, d_e, (gy_m, gy_e) = energy_change(exact_gram(rows, e), g, increments, l)
    assert Fraction(d_m) * Fraction(2) ** d_e == (
        frac_residual_sq(a, b, fracs(moved)) - frac_residual_sq(a, b, fracs(center))
    )
    assert fracs(g.add_increments([-m for m in gy_m], gy_e)) == frac_normal_rhs(a, b, fracs(moved))


@pytest.mark.parametrize(
    "case, m_max, max_error",
    [(irrational_system, 20, 1e-12), (lambda: build_illcond(44.0), 2, 1e-10)],
    ids=["table1-k1", "illcond-44-plain"],
)
def test_carried_residual_is_exact_on_descending_runs(case, m_max, max_error):
    # the run must reach the truth too: a carried energy change of the
    # wrong sign refuses every move, and a center that never moves keeps
    # its residual exact
    system, truth = case()
    trace = refine(system, RefinementConfig(m_max=m_max, l_min=-40), truth=truth)
    assert trace.records[-1].error_vs_truth <= max_error
    check_carried_residuals(system, trace, DyadicVector.zero(2))


def test_residual_tolerance_compares_the_exact_square():
    # after level -3 the exact ||r||^2 lies above the float f it rounds
    # to, so a tolerance of f is not met there, and the next float up is
    system = LinearSystem(a=[[1.0]], b=[math.pi])
    config = RefinementConfig(m_max=3, l_min=-40)
    settled = [r for r in refine(system, config).records if r.level == -3][-1]
    f = settled.residual_norm_sq
    assert Fraction(f) < frac_residual_sq([[1.0]], [math.pi], fracs(settled.center_after))
    at_f = refine(system, replace(config, residual_tolerance=f))
    above_f = refine(system, replace(config, residual_tolerance=math.nextafter(f, math.inf)))
    assert (at_f.terminated_by, at_f.records[-1].level) == ("residual-tolerance", -5)
    assert (above_f.terminated_by, above_f.records[-1].level) == ("residual-tolerance", -3)
