"""Level-descent refinement: solve a small QUBO window, move the center,
repeat until the zero increment is optimal, then lower the scale.

A move is accepted by one rule: its decoded increment is nonzero and
its exact change in the squared residual is negative. The sampler's
energies only rank its states (and fill the record's qubo_energy), so
rounding dust, a state whose true improvement is zero but whose float
energy came out slightly negative, is rejected by the exact change,
which keeps the strict descent that proves termination. Rejected solves
are recorded as the canonical all-zero state with energy exactly 0, with the
last move's (or the start's) center and error_vs_truth. Every record carries
the solve's ground-state count, SampleSet.ground_occurrences(), accepted or not.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .encoding import BitVector, DyadicVector, EncodingSpec, decode_increments, dyadic_of_float, dyadic_to_float
from .errors import DimensionMismatch, TooLarge
from .linalg import (
    LinearSystem,
    exact_form,
    exact_gram,
    exact_matvec,
    float_gram,
    lambda_min,
    normal_residual,
    residual,
    residual_norm_sq,
    symmetric_eigen,
    unit_scale,
)
from .qubo import QuboMatrix, WindowLevel, build_window
from .samplers import AnnealConfig, SampleSet, sample_anneal, sample_exhaustive

logger = logging.getLogger("qrefine")

Sampler = Callable[[QuboMatrix], SampleSet]
Observer = Callable[["IterationRecord"], None]


@dataclass(frozen=True)
class RefinementConfig:
    m_max: int | None = None  # None: bound from ||b - A c0|| and the smallest singular value
    l_min: int = -40
    bits_per_sign: int = 1
    level_step: int | None = None  # None: descend by bits_per_sign
    max_recenters_per_level: int = 1000
    residual_tolerance: float = 0.0  # 0 disables early stopping
    use_eigenbasis: bool = False
    sampler: str = "exhaustive"
    anneal: AnnealConfig | None = None
    initial_center: DyadicVector | None = None

    def __post_init__(self) -> None:
        if self.bits_per_sign < 1:
            raise ValueError("bits_per_sign must be >= 1")
        if self.level_step is not None and self.level_step < 1:
            raise ValueError("level_step must be >= 1")
        if self.max_recenters_per_level < 1:
            raise ValueError("max_recenters_per_level must be >= 1")
        if self.residual_tolerance < 0 or not math.isfinite(self.residual_tolerance):
            raise ValueError("residual_tolerance must be finite and >= 0")
        if self.use_eigenbasis and self.initial_center is not None:
            raise ValueError("initial_center cannot be combined with use_eigenbasis")
        if self.sampler not in ("exhaustive", "sa"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.anneal is not None and self.sampler != "sa":
            raise ValueError("anneal settings need sampler='sa'")


@dataclass(frozen=True)
class IterationRecord:
    ordinal: int  # 1-based across the whole run
    level: int
    recenter_index: int  # 0-based within the level
    bits: BitVector
    qubo_energy: float
    target_energy: float
    center_after: DyadicVector
    residual_norm_sq: float
    error_vs_truth: float | None
    ground_occurrences: int  # the solve's SampleSet.ground_occurrences(); not in the trace CSV


@dataclass(frozen=True)
class RefinementTrace:
    records: tuple[IterationRecord, ...]
    final_center: DyadicVector
    total_qubo_solves: int
    terminated_by: str  # level-exhausted | residual-tolerance | recenter-cap


def error_vs_truth(center: DyadicVector, truth: DyadicVector) -> float:
    """2-norm distance from the exact center to the exact truth, of the
    same length: the root of the correctly rounded exact squared distance."""
    e = min(center.exponent, truth.exponent)
    ce, te = center.exponent - e, truth.exponent - e
    sq = sum(((m << ce) - (t << te)) ** 2 for m, t in zip(center.mantissas, truth.mantissas))
    # root of sq * 4^(e - s), times 2^s: s > 0 only where the square
    # would pass 2^1023, so the distance is still found when it fits
    s = max(0, (sq.bit_length() + 2 * e) // 2 - 511)
    try:
        return math.ldexp(math.sqrt(dyadic_to_float(sq, 2 * (e - s))), s)
    except OverflowError:  # the distance itself is past the float range
        return math.inf


def refine(
    system: LinearSystem,
    config: RefinementConfig,
    truth: Optional[Sequence[float]] = None,
    observer: Optional[Observer] = None,
    sampler: Optional[Sampler] = None,
) -> RefinementTrace:
    """Descend levels from m_max to l_min, recentering until stable at each.

    The window at the first step tops out at exponent m_max (when None,
    default_m_max of the start residual, or l_min + k - 1 if that is
    higher; an explicit m_max below it is refused); the window low edge l then
    drops by level_step until it would pass l_min. At each level the
    window [l, l+k-1] is re-solved around the moving center until the
    zero increment is optimal; a level that makes max_recenters_per_level
    moves without settling ends the run. With
    residual_tolerance > 0 the run stops early once the exact residual
    reaches it (checked as each level settles).

    The run holds one matrix W exactly (A, or A V below) and its exact
    Gram. With 2^s the power of two just above W's largest entry, every
    level-l window divided by 4^(l+s) is one unit window: weights 2^t
    (t < k) on the float Gram of W 2^-s, entries rounded once, with linear
    terms from the exact g 2^(-l-2s), g = W^T r, each rounded once. So no
    window term depends on the level or on the system's scale, and the
    samplers, `sampler` too, receive unit windows, whose window_spec is
    [0, k-1]. A record's qubo_energy is the unit energy times 4^(l+s),
    rounded once: exact in the normal range, correctly rounded where
    subnormal and +-inf past the range, like residual_norm_sq. The run
    forms r = b - Ac once, and from it carries g and ||r||^2, exactly; a
    center of the wrong length is refused there. The sampler's best state
    is accepted when its increment is nonzero and its exact change in
    ||r||^2 (energy_change) is negative, whatever energy the sampler
    reported, so rounding dust is rejected. `truth` is made exact once per
    run.

    Each window goes to `sampler` when given, else to the one that
    config.sampler names: sample_exhaustive, or sample_anneal with
    config.anneal (AnnealConfig() when None). `observer`, when given,
    gets each IterationRecord as it is made.

    With use_eigenbasis the unknowns are u with x = V u, V the
    eigenvectors of A^T A. Level moves then track the residual contours'
    axes, which kills the zigzag walk on ill-conditioned systems. Only
    the matrix changes: W is A V formed exactly (V entries are floats). The
    residual is the system's own at x = V u: b - (AV)u is b - A(Vu)
    exactly. So recorded residuals are the original system's, exactly,
    and recorded centers are V u, mapped back to x-coordinates exactly.
    """
    if truth is not None:
        if len(truth) != system.n:
            raise DimensionMismatch("center and truth lengths differ")
        truth = DyadicVector.from_floats(truth)  # ValueError unless finite
    (rows, e), to_x = system.exact[:2], (lambda c: c)
    if config.use_eigenbasis:
        vectors = symmetric_eigen(system.gram)[1]
        v_rows, v_exp = exact_form(vectors)  # V exactly, once
        rows = tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*v_rows)) for row in rows)
        e += v_exp
        to_x = lambda u: DyadicVector(*exact_matvec(v_rows, v_exp, u))
    if sampler is None:
        anneal = config.anneal if config.anneal is not None else AnnealConfig()
        sampler = (lambda q: sample_anneal(q, anneal)) if config.sampler == "sa" else sample_exhaustive
    k = config.bits_per_sign
    step = config.level_step if config.level_step is not None else k
    center = config.initial_center if config.initial_center is not None else DyadicVector.zero(system.n)
    # g = W^T (b - Ac) and ||b - Ac||^2 = res_m 2^res_e are carried exactly
    reported = to_x(center)
    r = residual(system, reported)  # DimensionMismatch on a center of the wrong length
    m_max = config.m_max
    if m_max is None:  # a bound below the lowest window's top starts the run there
        m_max = max(default_m_max(system, r), config.l_min + k - 1)
    elif m_max - k + 1 < config.l_min:
        raise ValueError(f"no {k}-bit window fits between m_max {m_max} and l_min {config.l_min}")

    records: list[IterationRecord] = []
    g, (res_m, res_e) = normal_residual(rows, e, r), residual_norm_sq(r)
    res_float = dyadic_to_float(res_m, res_e)  # rounded once each time res_m changes
    gram_exact = exact_gram(rows, e)
    tol_m, tol_e = dyadic_of_float(config.residual_tolerance)
    error = error_vs_truth(reported, truth) if truth is not None else None
    terminated = None
    l = m_max - k + 1
    # the unit window: the level-l window over 4^(l+s), on the float Gram of
    # W 2^-s, A's own in a plain run, formed after the checks above
    s = unit_scale(rows, e)
    unit = EncodingSpec(n_vars=system.n, l_lo=0, l_hi=k - 1)
    level = WindowLevel(float_gram(np.array([[dyadic_to_float(m, e - s) for m in row] for row in rows])), unit)
    while terminated is None and l >= config.l_min:
        logger.info("descending to level %d (window [%d, %d])", l, l, l + k - 1)
        moves = 0
        accepted = True
        while accepted:
            if moves >= config.max_recenters_per_level:
                logger.info("level %d: recenter cap %d reached", l, moves)
                terminated = "recenter-cap"
                break
            qm = build_window(level, DyadicVector(g.mantissas, g.exponent - l - 2 * s))
            solved = sampler(qm)
            best = solved.best()
            increments = decode_increments(best.bits, unit)  # in units of 2^l
            target = -res_float  # floor of the level-l window, 4^(l+s) times the unit one's
            bits, solve_energy = (0,) * unit.total_qubits, 0.0
            accepted = False
            if any(increments):
                d_m, d_e, (gy_m, gy_e) = energy_change(gram_exact, g, increments, l)
                accepted = d_m < 0
            if accepted:
                center = center.add_increments(increments, l)
                g = g.add_increments([-m for m in gy_m], gy_e)
                e = min(res_e, d_e)
                res_m, res_e = (res_m << (res_e - e)) + (d_m << (d_e - e)), e
                res_float = dyadic_to_float(res_m, res_e)
                unit_m, unit_e = dyadic_of_float(best.energy)
                bits, solve_energy = best.bits, dyadic_to_float(unit_m, unit_e + 2 * (l + s))
                reported = to_x(center)
                error = error_vs_truth(reported, truth) if truth is not None else None
            record = IterationRecord(
                ordinal=len(records) + 1,
                level=l,
                recenter_index=moves,  # every solve of a level but its last is a move
                bits=bits,
                qubo_energy=solve_energy,
                target_energy=target,
                center_after=reported,
                residual_norm_sq=res_float,
                error_vs_truth=error,
                ground_occurrences=solved.ground_occurrences(),
            )
            records.append(record)
            if observer is not None:
                observer(record)
            moves += accepted
        else:  # the zero increment won: the level settled
            logger.debug("level %d settled after %d moves", l, moves)
            e = min(res_e, tol_e)
            if config.residual_tolerance > 0.0 and res_m << (res_e - e) <= tol_m << (tol_e - e):
                terminated = "residual-tolerance"
        l -= step
    return RefinementTrace(
        records=tuple(records),
        final_center=reported,
        total_qubo_solves=len(records),
        terminated_by=terminated or "level-exhausted",
    )


def energy_change(
    gram: tuple[tuple[tuple[int, ...], ...], int], g: DyadicVector, increments: Sequence[int], l: int
) -> tuple[int, int, tuple[list[int], int]]:
    """(m, e, gy): the exact change m 2^e in ||b - Ac||^2 when c moves by
    y 2^l, y the integer increments, gram = (rows, gram_e) the exact
    G = A^T A and g = A^T (b - Ac), which is 4^l y^T G y - 2^(l+1) y^T g;
    gy is G y 2^l. Any exact symmetric G and g give that quadratic form."""
    rows, gram_e = gram
    gy_m = [sum(map(operator.mul, row, increments)) for row in rows]  # times 2^(gram_e + l)
    quad = sum(map(operator.mul, increments, gy_m))  # times 2^(gram_e + 2l)
    lin = sum(map(operator.mul, increments, g.mantissas))  # times 2^(g.exponent + l)
    e = min(gram_e + l, g.exponent + 1)
    return (quad << (gram_e + l - e)) - (lin << (g.exponent + 1 - e)), l + e, (gy_m, gram_e + l)


def default_m_max(system: LinearSystem, r: DyadicVector) -> int:
    """ceil(log2(||r|| / smallest-singular-value + 1)) + 1, a bound on the
    exponent of ||x* - c|| for the start residual r = b - Ac (b at a zero start).
    Its norm is taken of r 2^-t, with 2^t the power of two just above max |r|,
    and the smallest eigenvalue of the unit Gram is A^T A's times 4^-s, so the
    bound is their ratio times 2^(t - s): exact powers of two, so only a bound
    past the float range is refused."""
    lam_min = lambda_min(symmetric_eigen(system.gram)[0])  # SingularMatrix: singular within rounding
    t = unit_scale((r.mantissas,), r.exponent)
    unit_norm = float(np.linalg.norm(DyadicVector(r.mantissas, r.exponent - t).to_floats()))
    try:
        bound = math.ldexp(unit_norm / math.sqrt(lam_min), t - system.scale)
    except OverflowError:
        raise TooLarge("||r|| / smallest singular value is past the float range") from None
    return math.ceil(math.log2(bound + 1.0)) + 1
