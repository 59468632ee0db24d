"""SVG chart emission."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from qrefine.encoding import DyadicVector
from qrefine.linalg import LinearSystem
from qrefine.plots import decay_svg, emit_plots, trajectory_svg
from qrefine.refine import RefinementConfig, RefinementTrace, refine

from helpers import irrational_system


def test_emit_both_charts_for_two_unknowns(tmp_path):
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(m_max=20, l_min=-40), truth=truth)
    paths = emit_plots(trace, str(tmp_path / "run"), truth=truth)
    assert paths == [str(tmp_path / "run_decay.svg"), str(tmp_path / "run_trajectory.svg")]
    decay = (tmp_path / "run_decay.svg").read_text(encoding="utf-8")
    traj = (tmp_path / "run_trajectory.svg").read_text(encoding="utf-8")
    assert decay.startswith("<svg")
    assert traj.startswith("<svg")
    assert "polyline" in decay
    assert "polyline" in traj
    # decade labels cover the full error range of this run
    assert ">1e3<" in decay
    assert ">1e-13<" in decay
    # truth marker present and labeled
    assert "solution" in traj
    # the bytes `qrefine repro-table1 --plot` writes
    digests = [hashlib.sha256((tmp_path / f"run_{name}.svg").read_bytes()).hexdigest()
               for name in ("decay", "trajectory")]
    assert digests == [
        "a4425606ecc877507952e8d4530e32411f79ae450fb63a553110065c7e896e86",
        "cda5247941fb03bc42cf2dcd254c339b8922c1cec22bd68e35770f0028f30cf5",
    ]


def test_no_truth_skips_decay(tmp_path):
    system, _ = irrational_system()
    trace = refine(system, RefinementConfig(m_max=12, l_min=-2))
    paths = emit_plots(trace, str(tmp_path / "run"))
    assert paths == [str(tmp_path / "run_trajectory.svg")]


def test_three_unknowns_skip_trajectory(tmp_path):
    system = LinearSystem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]))
    truth = np.array([1.0, 2.0, 3.0])
    trace = refine(system, RefinementConfig(m_max=2, l_min=0), truth=truth)
    paths = emit_plots(trace, str(tmp_path / "run"), truth=truth)
    assert paths == [str(tmp_path / "run_decay.svg")]


def test_decay_of_one_record_at_error_one():
    # one solve whose error is exactly 1: a single point at log10 = 0, so
    # both axes need widening to a nonempty range
    system = LinearSystem(a=[[1.0]], b=[0.0])
    trace = refine(system, RefinementConfig(m_max=0, l_min=0), truth=[1.0])
    assert [r.error_vs_truth for r in trace.records] == [1.0]
    svg = decay_svg(trace)
    assert svg.startswith("<svg")
    assert ">1e0<" in svg
    assert ">1e1<" in svg


def test_trajectory_rejects_wrong_dimension():
    system = LinearSystem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]))
    trace = refine(system, RefinementConfig(m_max=2, l_min=0))
    with pytest.raises(ValueError):
        trajectory_svg(trace)


def test_empty_trace_rejected(tmp_path):
    trace = RefinementTrace(
        records=(),
        final_center=DyadicVector.from_floats([0.0, 0.0]),
        total_qubo_solves=0,
        terminated_by="level-exhausted",
    )
    with pytest.raises(ValueError):
        emit_plots(trace, str(tmp_path / "run"))


def test_single_record_trace_is_valid(tmp_path):
    # one stalled solve: the decay chart degenerates to a point, not an error
    system = LinearSystem(a=np.array([[1.0]]), b=np.array([0.25]))
    trace = refine(system, RefinementConfig(m_max=0, l_min=0), truth=np.array([0.25]))
    assert len(trace.records) == 1
    svg = decay_svg(trace)
    assert svg.startswith("<svg")
    assert "circle" in svg
    paths = emit_plots(trace, str(tmp_path / "run"), truth=[0.25])
    assert paths == [str(tmp_path / "run_decay.svg")]


def test_decay_draws_only_finite_errors():
    # errors past the float range have no logarithm to plot: the chart is
    # the one drawn when those records carry no error at all
    system, truth = irrational_system()
    trace = refine(system, RefinementConfig(m_max=20, l_min=-40), truth=truth)

    def with_errors(error):
        records = [replace(r, error_vs_truth=error) if r.ordinal % 3 == 1 else r
                   for r in trace.records]
        return replace(trace, records=tuple(records))

    svg = decay_svg(with_errors(math.inf))
    assert svg == decay_svg(with_errors(None))
    finite = sum(r.ordinal % 3 != 1 for r in trace.records)
    assert svg.split('points="')[1].split('"')[0].count(",") == finite


def test_all_zero_errors_still_render():
    system = LinearSystem(a=np.array([[1.0]]), b=np.array([0.0]))
    trace = refine(system, RefinementConfig(m_max=0, l_min=0), truth=np.array([0.0]))
    assert all(r.error_vs_truth == 0.0 for r in trace.records)
    svg = decay_svg(trace)
    assert "no positive errors to plot" in svg


def test_all_infinite_errors_say_so():
    # a truth near the float limit: every distance rounds past the float
    # range, so there is no point to plot, and the note says why
    system = LinearSystem(a=np.eye(2), b=np.ones(2))
    trace = refine(system, RefinementConfig(m_max=2, l_min=-4), truth=np.array([1.7e308, 1.7e308]))
    assert all(r.error_vs_truth == math.inf for r in trace.records)
    svg = decay_svg(trace)
    assert "every positive error is infinite" in svg and "no positive errors" not in svg
