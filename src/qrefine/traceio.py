"""Trace CSV serialization.

Columns: ordinal, level, recenter_index, bits (0/1 string in qubit
layout order), qubo_energy, target_energy, residual_norm_sq,
error_vs_truth (empty when no truth was supplied), then one exact
decimal column per center component. Centers are dyadic, so their
decimal expansions are finite and the file is lossless. A record's
ground_occurrences is not written. No field needs CSV quoting, so a row
is its fields joined by commas, written at once.

TraceWriter is the one writer: pass it to refine as the observer to
stream rows as they are made.
"""

from __future__ import annotations

from typing import TextIO

from .refine import IterationRecord


def header(n_components: int) -> list[str]:
    return [
        "ordinal",
        "level",
        "recenter_index",
        "bits",
        "qubo_energy",
        "target_energy",
        "residual_norm_sq",
        "error_vs_truth",
    ] + [f"c{i}" for i in range(n_components)]


def format_record(record: IterationRecord) -> list[str]:
    return [
        str(record.ordinal),
        str(record.level),
        str(record.recenter_index),
        "".join(map(str, record.bits)),
        repr(record.qubo_energy),
        repr(record.target_energy),
        repr(record.residual_norm_sq),
        "" if record.error_vs_truth is None else repr(record.error_vs_truth),
        *record.center_after.to_decimal_strings(),
    ]


class TraceWriter:
    """Streams rows as the refinement produces them (observer-compatible)."""

    def __init__(self, stream: TextIO):
        self._stream = stream
        self._wrote_header = False

    def __call__(self, record: IterationRecord) -> None:
        if not self._wrote_header:
            self._stream.write(",".join(header(len(record.center_after))) + "\n")
            self._wrote_header = True
        self._stream.write(",".join(format_record(record)) + "\n")

