"""Level-descent refinement: solve a small QUBO window, move the center,
repeat until the zero increment is optimal, then lower the scale.

A move is accepted only when the sampled energy is strictly negative,
the decoded increment is nonzero, and the compensated residual actually
drops. The last clause guards against coefficient-rounding dust: a
state whose true improvement is zero can acquire a tiny negative float
energy, and accepting it would break the strict-descent invariant that
proves termination. Rejected solves are recorded as the canonical
all-zero state with energy exactly 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .encoding import (
    BitVector,
    DyadicVector,
    EncodingSpec,
    canonical_bits,
    decode_increments,
)
from .errors import DimensionMismatch, SingularMatrix
from .linalg import EigenBasis, LinearSystem, residual_norm_sq, symmetric_eigen
from .precision import dd_sum_squares, dyadic_of_float, dyadic_sum, float_parts
from .qubo import QuboMatrix, build_window
from .samplers import AnnealConfig, SampleSet, sample_anneal, sample_exhaustive

logger = logging.getLogger("qrefine")

Sampler = Callable[[QuboMatrix], SampleSet]
Observer = Callable[["IterationRecord"], None]


@dataclass(frozen=True)
class RefinementConfig:
    m_max: int | None = None  # None: bound from ||b|| and the smallest singular value
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
        if self.sampler not in ("exhaustive", "sa"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.m_max is not None and self.m_max < self.l_min:
            raise ValueError("m_max must not lie below l_min")


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


@dataclass(frozen=True)
class RefinementTrace:
    records: tuple[IterationRecord, ...]
    final_center: DyadicVector
    total_qubo_solves: int
    terminated_by: str  # level-exhausted | residual-tolerance | recenter-cap


class LevelResult(NamedTuple):
    center: DyadicVector
    records: tuple[IterationRecord, ...]
    cap_reached: bool


def make_sampler(config: RefinementConfig) -> Sampler:
    if config.sampler == "sa":
        anneal = config.anneal if config.anneal is not None else AnnealConfig()
        return lambda q: sample_anneal(q, anneal)
    return sample_exhaustive


def error_vs_truth(center: DyadicVector, truth: Sequence[float]) -> float:
    """2-norm distance from the exact center to a float truth vector."""
    if len(center) != len(truth):
        raise DimensionMismatch("center and truth lengths differ")
    if not all(map(math.isfinite, truth)):
        raise ValueError("truth must be finite")
    total = dd_sum_squares(
        [-float(t), *float_parts(m, center.exponent)] for m, t in zip(center.mantissas, truth)
    )
    return math.sqrt(max(total.to_float(), 0.0))


def recenter_level(
    system: LinearSystem,
    center: DyadicVector,
    l: int,
    k: int,
    sampler: Sampler,
    *,
    max_recenters: int = 1000,
    ordinal_base: int = 0,
    truth: Optional[Sequence[float]] = None,
    observer: Optional[Observer] = None,
    center_transform: Optional[Callable[[DyadicVector], DyadicVector]] = None,
) -> LevelResult:
    """Re-solve the window [l, l+k-1] around a moving center until the
    zero increment is optimal. Returns the settled center, the records
    of every QUBO solve, and whether the recenter cap cut the level off.
    """
    spec = EncodingSpec(n_vars=system.n, l_lo=l, l_hi=l + k - 1)
    res_now = residual_norm_sq(system, center)
    records: list[IterationRecord] = []
    moves = 0
    while True:
        if moves >= max_recenters:
            logger.info("level %d: recenter cap %d reached", l, max_recenters)
            return LevelResult(center, tuple(records), True)
        qm = build_window(system, center, spec)
        best = sampler(qm).best()
        increments = decode_increments(best.bits, spec)
        target = -res_now.to_float()  # floor of the QUBO just solved
        accepted = False
        if best.energy < 0.0 and any(increments):
            candidate = center.add_increments(increments, l)
            res_next = residual_norm_sq(system, candidate)
            accepted = res_next.less_than(res_now)
        if accepted:
            moves += 1
            center, res_now = candidate, res_next
            bits, solve_energy = best.bits, best.energy
        else:
            bits = canonical_bits((0,) * system.n, spec)
            solve_energy = 0.0
        reported = center_transform(center) if center_transform else center
        record = IterationRecord(
            ordinal=ordinal_base + len(records) + 1,
            level=l,
            recenter_index=len(records),
            bits=bits,
            qubo_energy=solve_energy,
            target_energy=target,
            center_after=reported,
            residual_norm_sq=res_now.to_float(),
            error_vs_truth=error_vs_truth(reported, truth) if truth is not None else None,
        )
        records.append(record)
        if observer is not None:
            observer(record)
        if not accepted:
            logger.debug("level %d settled after %d moves", l, moves)
            return LevelResult(center, tuple(records), False)


def refine(
    system: LinearSystem,
    config: RefinementConfig,
    truth: Optional[Sequence[float]] = None,
    observer: Optional[Observer] = None,
    sampler: Optional[Sampler] = None,
) -> RefinementTrace:
    """Descend levels from m_max to l_min, recentering until stable at each.

    The window at the first step tops out at exponent m_max; the window
    low edge l then drops by level_step until it would pass l_min. With
    residual_tolerance > 0 the run stops early once the compensated
    residual reaches it (checked as each level settles).

    With use_eigenbasis the unknowns are u with x = V u, V the
    eigenvectors of A^T A. Level moves then track the residual contours'
    axes, which kills the zigzag walk on ill-conditioned systems.
    Recorded centers are mapped back to x-coordinates exactly (V entries
    are floats, so V u is a dyadic matrix-vector product); recorded
    residuals and energies are those of the transformed system the loop
    actually minimizes.
    """
    work, to_x = system, None
    if config.use_eigenbasis:
        vectors = _eigenbasis_of_normal_matrix(system).vectors
        work = LinearSystem(a=_fsum_matmul(system.a, vectors), b=system.b)
        to_x = lambda u: _dyadic_matvec(vectors, u)
    sample = sampler if sampler is not None else make_sampler(config)
    k = config.bits_per_sign
    step = config.level_step if config.level_step is not None else k
    m_max = config.m_max if config.m_max is not None else default_m_max(system)
    if m_max < config.l_min:
        raise ValueError("resolved m_max lies below l_min")
    center = config.initial_center if config.initial_center is not None else DyadicVector.zero(work.n)
    if len(center) != work.n:
        raise DimensionMismatch("initial center length != system size")

    records: list[IterationRecord] = []
    terminated = "level-exhausted"
    l = m_max - k + 1
    while l >= config.l_min:
        logger.info("descending to level %d (window [%d, %d])", l, l, l + k - 1)
        result = recenter_level(
            work,
            center,
            l,
            k,
            sample,
            max_recenters=config.max_recenters_per_level,
            ordinal_base=len(records),
            truth=truth,
            observer=observer,
            center_transform=to_x,
        )
        center = result.center
        records.extend(result.records)
        if result.cap_reached:
            terminated = "recenter-cap"
            break
        if config.residual_tolerance > 0.0 and records[-1].residual_norm_sq <= config.residual_tolerance:
            terminated = "residual-tolerance"
            break
        l -= step
    final = to_x(center) if to_x else center
    return RefinementTrace(
        records=tuple(records),
        final_center=final,
        total_qubo_solves=len(records),
        terminated_by=terminated,
    )


def default_m_max(system: LinearSystem) -> int:
    """ceil(log2(||b|| / smallest-singular-value + 1)) + 1, a magnitude bound."""
    basis = _eigenbasis_of_normal_matrix(system)
    lam_min = float(basis.values[-1])
    if lam_min <= 0.0:
        raise SingularMatrix("cannot bound the solution magnitude of a singular system")
    bnorm = float(np.linalg.norm(system.b))
    return math.ceil(math.log2(bnorm / math.sqrt(lam_min) + 1.0)) + 1


def _eigenbasis_of_normal_matrix(system: LinearSystem) -> EigenBasis:
    return symmetric_eigen(np.array(system.gram))


def _fsum_matmul(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return np.array(
        [[math.fsum(float(a[r, m]) * float(v[m, j]) for m in range(n)) for j in range(n)] for r in range(n)]
    )


def _dyadic_matvec(mat: np.ndarray, vec: DyadicVector) -> DyadicVector:
    """Exact x = mat @ vec for a float matrix and dyadic vector."""
    return DyadicVector.from_pairs(
        dyadic_sum([(am * m, ae + vec.exponent) for (am, ae), m in zip(row, vec.mantissas)])
        for row in (map(dyadic_of_float, r) for r in mat.tolist())
    )
