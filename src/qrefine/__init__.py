"""Iterative QUBO refinement for linear systems.

Each unknown gets a small window of binary variables at scale 2^l; the
shifted least-squares QUBO over those bits is minimized by a classical
sampler, the center moves by the decoded increment, and the scale drops
until the solution is pinned to ~2^-40. Centers are exact dyadic
rationals throughout, so sixty levels of descent never round.

The top level holds what callers of ``refine`` and sampler authors
use; window building, the QUBO format and the linear-algebra helpers
are imported from their submodules.
"""

from .encoding import DyadicVector
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ParseError,
    QrefineError,
    SingularMatrix,
    TooLarge,
    TooManyQubits,
)
from .linalg import LinearSystem, condition_number
from .problems import parse_problem
from .qubo import QuboMatrix
from .refine import IterationRecord, RefinementConfig, RefinementTrace, refine
from .samplers import AnnealConfig, SampleEntry, SampleSet, sample_anneal, sample_exhaustive

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "DimensionMismatch",
    "DyadicVector",
    "IndexOutOfRange",
    "IterationRecord",
    "LinearSystem",
    "ParseError",
    "QrefineError",
    "QuboMatrix",
    "RefinementConfig",
    "RefinementTrace",
    "SampleEntry",
    "SampleSet",
    "SingularMatrix",
    "TooLarge",
    "TooManyQubits",
    "condition_number",
    "parse_problem",
    "refine",
    "sample_anneal",
    "sample_exhaustive",
]
