"""Trace CSV round-trips and byte stability."""

import csv
import io
from fractions import Fraction

import pytest

from qrefine import LinearSystem
from qrefine.encoding import DyadicVector
from qrefine.refine import IterationRecord, RefinementConfig, RefinementTrace, refine
from qrefine.traceio import (
    TraceWriter,
    format_record,
    header,
)

from helpers import dyadic_fractions, irrational_system, trace_to_csv


def small_trace():
    system, truth = irrational_system()
    config = RefinementConfig(m_max=12, l_min=-4)
    return refine(system, config, truth=truth)


def test_header_names():
    assert header(2) == [
        "ordinal",
        "level",
        "recenter_index",
        "bits",
        "qubo_energy",
        "target_energy",
        "residual_norm_sq",
        "error_vs_truth",
        "c0",
        "c1",
    ]


def test_format_record_exact_fields():
    record = IterationRecord(
        ordinal=3,
        level=-1,
        recenter_index=2,
        bits=(1, 0, 0, 1),
        qubo_energy=-2.5,
        target_energy=-3.0,
        center_after=DyadicVector(mantissas=(5, -1), exponent=-2),
        residual_norm_sq=0.1,
        error_vs_truth=None,
        ground_occurrences=1,
    )
    row = format_record(record)
    assert row == ["3", "-1", "2", "1001", "-2.5", "-3.0", repr(0.1), "", "1.25", "-0.25"]


def test_format_record_repr_floats_are_lossless():
    record = IterationRecord(
        ordinal=1,
        level=0,
        recenter_index=0,
        bits=(1,),
        qubo_energy=-1.0 / 3.0,
        target_energy=-0.1,
        center_after=DyadicVector(mantissas=(1,), exponent=0),
        residual_norm_sq=2.0 / 3.0,
        error_vs_truth=1e-300,
        ground_occurrences=1,
    )
    row = format_record(record)
    assert float(row[4]) == -1.0 / 3.0
    assert float(row[5]) == -0.1
    assert float(row[6]) == 2.0 / 3.0
    assert float(row[7]) == 1e-300


def test_trace_to_csv_deterministic():
    first = trace_to_csv(small_trace())
    second = trace_to_csv(small_trace())
    assert first == second
    assert first.startswith("ordinal,level,")
    # every line terminated the same way, no platform \r\n
    assert "\r" not in first
    assert first.endswith("\n")


def test_write_then_read_inverts(tmp_path):
    trace = small_trace()
    path = tmp_path / "trace.csv"
    path.write_text(trace_to_csv(trace), encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        head, *rows = csv.reader(fh)
    assert head == header(2)
    assert len(rows) == len(trace.records)
    for row, record in zip(rows, trace.records):
        assert int(row[0]) == record.ordinal
        assert int(row[1]) == record.level
        assert int(row[2]) == record.recenter_index
        assert tuple(int(ch) for ch in row[3]) == record.bits
        assert float(row[4]) == record.qubo_energy
        assert float(row[5]) == record.target_energy
        assert float(row[6]) == record.residual_norm_sq
        assert float(row[7]) == record.error_vs_truth
        # center decimals are exact: Fraction of the string equals the value
        got = [Fraction(cell) for cell in row[8:]]
        assert got == dyadic_fractions(record.center_after)


def test_read_empty_file(tmp_path):
    # a trace with no records writes an empty file, not a lone header
    empty = RefinementTrace(records=(), final_center=DyadicVector.zero(2),
                            total_qubo_solves=0, terminated_by="level-exhausted")
    path = tmp_path / "empty.csv"
    path.write_text(trace_to_csv(empty), encoding="utf-8", newline="")
    assert path.read_bytes() == b""
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == []


def test_streaming_writer_matches_batch():
    trace = small_trace()
    out = io.StringIO()
    writer = TraceWriter(out)
    for record in trace.records:
        writer(record)
    assert out.getvalue() == trace_to_csv(trace)


def csv_oracle(trace) -> str:
    """The trace CSV as the stdlib csv writer forms it, header first."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header(len(trace.final_center)))
    writer.writerows(format_record(record) for record in trace.records)
    return out.getvalue()


TABLE1, TABLE1_TRUTH = irrational_system()
THREE = LinearSystem(a=[[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]], b=[1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "system,truth,config",
    [
        (TABLE1, TABLE1_TRUTH, RefinementConfig(m_max=12, l_min=-12)),
        (TABLE1, None, RefinementConfig(m_max=12, l_min=-12)),
        (LinearSystem(a=[[3.0]], b=[1.0]), [1.0 / 3.0], RefinementConfig(m_max=2, l_min=-30)),
        (THREE, None, RefinementConfig(m_max=2, l_min=-20)),
    ],
    ids=["with-truth", "without-truth", "one-unknown", "three-unknowns"],
)
def test_writer_bytes_match_the_csv_module(system, truth, config):
    # TraceWriter joins the fields itself, so no field may need csv quoting
    trace = refine(system, config, truth=truth)
    assert any(any(rec.bits) for rec in trace.records)
    assert all((rec.error_vs_truth is None) == (truth is None) for rec in trace.records)
    assert trace_to_csv(trace) == csv_oracle(trace)
