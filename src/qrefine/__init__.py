"""Iterative QUBO refinement for linear systems.

Each unknown gets a small window of binary variables at scale 2^l; the
shifted least-squares QUBO over those bits is minimized by a classical
sampler, the center moves by the decoded increment, and the scale drops
until the solution is pinned to ~2^-40. Centers are exact dyadic
rationals throughout, so sixty levels of descent never round.
"""

from .encoding import (
    BitVector,
    DyadicVector,
    EncodingSpec,
    canonical_bits,
    decode_increments,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NotSymmetric,
    ParseError,
    QrefineError,
    SingularMatrix,
    TooLarge,
    TooManyQubits,
)
from .linalg import (
    EigenBasis,
    LinearSystem,
    condition_number,
    residual_norm_sq,
    symmetric_eigen,
)
from .problems import ProblemDocument, load_problem, parse_problem
from .qubo import (
    IsingModel,
    QuboMatrix,
    build_window,
    dump,
    energy,
    parse,
    qubo_to_ising,
)
from .refine import (
    IterationRecord,
    RefinementConfig,
    RefinementTrace,
    error_vs_truth,
    refine,
)
from .samplers import AnnealConfig, SampleEntry, SampleSet, sample_anneal, sample_exhaustive

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "BitVector",
    "DimensionMismatch",
    "DyadicVector",
    "EigenBasis",
    "EncodingSpec",
    "IndexOutOfRange",
    "IsingModel",
    "IterationRecord",
    "LengthMismatch",
    "LinearSystem",
    "NotSymmetric",
    "ParseError",
    "ProblemDocument",
    "QrefineError",
    "QuboMatrix",
    "RefinementConfig",
    "RefinementTrace",
    "SampleEntry",
    "SampleSet",
    "SingularMatrix",
    "TooLarge",
    "TooManyQubits",
    "build_window",
    "canonical_bits",
    "condition_number",
    "decode_increments",
    "dump",
    "energy",
    "error_vs_truth",
    "load_problem",
    "parse",
    "parse_problem",
    "qubo_to_ising",
    "refine",
    "residual_norm_sq",
    "sample_anneal",
    "sample_exhaustive",
    "symmetric_eigen",
]
