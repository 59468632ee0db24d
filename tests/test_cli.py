"""End-to-end CLI behavior through main(argv)."""

import hashlib
import json
import sys

import pytest

from qrefine import LinearSystem, SingularMatrix, TooLarge, cli, condition_number, errors
from qrefine.cli import main
from qrefine.qubo import parse
from qrefine.traceio import format_record, header


IDENTITY = '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -2.0]}'
FAST_FLAGS = ["--m-max", "6", "--l-min", "-6"]


def write_problem(tmp_path, text, name="problem.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    path = "unused.json"
    assert main(["solve", path, "--frobnicate"]) == 2


def test_solve_identity(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0]], "b": [3.0]}')
    rc = main(["solve", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x[0] = 3\n" in out
    assert "residual_norm_sq = 0.0" in out
    assert "terminated_by = level-exhausted" in out


def test_solve_reports_error_when_truth_given(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0]], "b": [3.0], "x_true": [3.0]}')
    rc = main(["solve", path, "--l-min", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error_vs_truth = 0.0" in out


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err


def test_solve_integer_beyond_float_range_is_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1' + "0" * 400 + ']], "b": [1.0]}')
    rc = main(["solve", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err and "'a'" in err


def test_solve_malformed_problem_names_field(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0, 2.0]], "b": [1.0]}')
    rc = main(["solve", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'a'" in err and "square" in err


def test_solve_singular_system(tmp_path, capsys):
    # one message, from solve as from condition_number; the float lambda_min
    # of [[3, 1], [3, 1]]'s A^T A is rounding noise above 0
    message = "A^T A is singular: its smallest eigenvalue is zero within rounding"
    for a in ([[1, 1], [1, 1]], [[3, 1], [3, 1]]):
        path = write_problem(tmp_path, json.dumps({"a": a, "b": [1, 1]}))
        assert main(["solve", path]) == 3
        assert capsys.readouterr().err == f"solver error: {message}\n"
        with pytest.raises(SingularMatrix) as info:
            condition_number(LinearSystem(a=a, b=[1, 1]))
        assert str(info.value) == message


def test_solve_refused_run_creates_no_trace(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0, 1.0], [1.0, 1.0]], "b": [1.0, 1.0]}')
    trace = tmp_path / "sing.csv"
    rc = main(["solve", path, "--trace", str(trace)])
    assert rc == 3
    assert "solver error" in capsys.readouterr().err
    assert not trace.exists()


def test_solve_refused_run_keeps_existing_trace_bytes(tmp_path, capsys):
    # no 3-bit window fits above l_min 5: refused before the first solve,
    # so the file the first row would open is never touched
    path = write_problem(tmp_path, '{"a": [[1.0]], "b": [3.0]}')
    trace = tmp_path / "old.csv"
    trace.write_bytes(b"ordinal,level\n1,0\n")
    rc = main(["solve", path, "--l-min", "5", "--bits-per-sign", "3", "--trace", str(trace)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert trace.read_bytes() == b"ordinal,level\n1,0\n"


def test_solve_run_failing_after_its_first_row_keeps_it(tmp_path, capsys, monkeypatch):
    real_refine, seen = cli.refine, []

    def fail_after_one_row(system, config, truth=None, observer=None):
        seen.append(real_refine(system, config, truth=truth).records[0])
        observer(seen[0])
        raise TooLarge("boom")

    monkeypatch.setattr(cli, "refine", fail_after_one_row)
    path = write_problem(tmp_path, IDENTITY)
    trace = tmp_path / "t.csv"
    assert main(["solve", path, *FAST_FLAGS, "--trace", str(trace)]) == 3
    assert capsys.readouterr().err == "solver error: boom\n"
    rows = [header(2), format_record(seen[0])]
    assert trace.read_text(encoding="utf-8") == "".join(",".join(row) + "\n" for row in rows)


def test_solve_failed_run_keeps_trace_symlink(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0, 1.0], [1.0, 1.0]], "b": [1.0, 1.0]}')
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    rc = main(["solve", path, "--trace", str(link)])
    assert rc == 3
    assert "solver error" in capsys.readouterr().err
    assert link.is_symlink() and target.exists()


def test_solve_trace_that_cannot_be_opened_is_left_alone(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    target = tmp_path / "a-directory"
    target.mkdir()
    rc = main(["solve", path, *FAST_FLAGS, "--trace", str(target)])
    assert rc == 2
    assert "input error" in capsys.readouterr().err
    assert target.is_dir()


DIAG_1E200 = '{"a": [[1e200, 0.0], [0.0, 1e200]], "b": [1e200, 2e200]}'
B_1E160 = '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1e160, -3e159]}'
GRAM_FSUM = '{"a": [[1e154, 1e154], [1e154, 0]], "b": [1e154, 1e154]}'
RHS_1E308 = '{"a": [[1e154]], "b": [1e308]}'
# every float product in A^T A underflows to 0.0, though A is exactly nonsingular
DIAG_1E170 = '{"a": [[1e-170, 0], [0, 2e-170]], "b": [1e-170, 2e-170]}'


@pytest.mark.parametrize(
    "text,flags",
    [
        (DIAG_1E200, []),  # A^T A overflows
        (DIAG_1E200, ["--m-max", "4"]),  # A^T A and A^T b' overflow
        (B_1E160, []),  # ||b|| overflows
        (B_1E160, ["--m-max", "535"]),  # the window weights squared overflow
        (IDENTITY, ["--m-max", "1100"]),  # the bit weight 2^1100 overflows
        (GRAM_FSUM, []),  # the fsum of A^T A overflows
        (GRAM_FSUM, ["--m-max", "4"]),  # the same, first met in the window
        (RHS_1E308, ["--m-max", "4"]),  # A^T b' overflows, A^T A is finite
        (DIAG_1E170, []),  # A^T A underflows
        (DIAG_1E170, ["--m-max", "3"]),  # the same, first met in the window
        (DIAG_1E170, ["--eigenbasis"]),  # the same, before the eigenbasis is found
    ],
    ids=["gram", "window-rhs", "norm-b", "window-weights", "bit-weight",
         "gram-fsum", "gram-fsum-m-max", "window-rhs-only",
         "gram-underflow", "gram-underflow-m-max", "gram-underflow-eigenbasis"],
)
def test_solve_past_float_range_is_solver_error(tmp_path, capsys, text, flags):
    path = write_problem(tmp_path, text)
    rc = main(["solve", path, *flags])
    err = capsys.readouterr().err
    assert rc == 3
    assert "solver error" in err and "float range" in err


@pytest.mark.parametrize("flags", [[], ["--eigenbasis"]], ids=["plain", "eigenbasis"])
def test_solve_subnormal_gram_reaches_the_solution(tmp_path, capsys, flags):
    # at 1e-160 the A^T A entries are subnormal but nonzero, so the run
    # still finds x = (1, 1)
    path = write_problem(tmp_path, '{"a": [[1e-160, 0], [0, 2e-160]], "b": [1e-160, 2e-160]}')
    assert main(["solve", path, *flags]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x[0] = 1\nx[1] = 1\n")


def test_qubo_dump_gram_underflow_is_solver_error(tmp_path, capsys):
    path = write_problem(tmp_path, DIAG_1E170)
    assert main(["qubo-dump", path]) == 3
    assert capsys.readouterr() == ("", "solver error: A^T A is past the float range\n")


def test_window_fit_is_checked_before_the_gram(tmp_path, capsys):
    # two faults: no window fits, and A^T A overflows; the input error wins
    path = write_problem(tmp_path, '{"a": [[1e200, 0], [0, 1e200]], "b": [1, 1]}')
    assert main(["solve", path, "--m-max", "-50", "--l-min", "-40"]) == 2
    assert capsys.readouterr().err == "input error: no 1-bit window fits between m_max -50 and l_min -40\n"


def test_solve_residual_past_float_range_still_descends(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1e160, 0.0]}')
    rc = main(["solve", path, "--m-max", "4", "--l-min", "-2", "--max-recenters", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    # every move lowers the exact residual, though each reads inf as a float
    assert "x[0] = 80\n" in out
    assert "residual_norm_sq = inf\n" in out
    assert "terminated_by = recenter-cap\n" in out


def test_solve_error_past_float_range_squared(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0], "x_true": [1e300, 0.0]}')
    rc = main(["solve", path, "--m-max", "2", "--l-min", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "error_vs_truth = 1e+300\n" in out


def test_solve_bad_anneal_reads(tmp_path, capsys):
    path = write_problem(tmp_path, '{"a": [[1.0]], "b": [3.0]}')
    rc = main(["solve", path, "--sampler", "sa", "--reads", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err


def test_solve_trace_is_byte_stable(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    t1, t2 = str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")
    assert main(["solve", path, *FAST_FLAGS, "--trace", t1]) == 0
    assert main(["solve", path, *FAST_FLAGS, "--trace", t2]) == 0
    capsys.readouterr()
    b1 = (tmp_path / "t1.csv").read_bytes()
    b2 = (tmp_path / "t2.csv").read_bytes()
    assert b1 == b2
    assert b1.startswith(b"ordinal,level,")


def test_solve_writes_plots(tmp_path, capsys):
    text = '{"a": [[1.0, 0.0], [0.0, 1.0]], "b": [3.0, -2.0], "x_true": [3.0, -2.0]}'
    path = write_problem(tmp_path, text)
    prefix = str(tmp_path / "run")
    rc = main(["solve", path, *FAST_FLAGS, "--plot", prefix])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"wrote {prefix}_decay.svg" in out
    assert f"wrote {prefix}_trajectory.svg" in out
    for suffix in ("_decay.svg", "_trajectory.svg"):
        body = (tmp_path / f"run{suffix}").read_text(encoding="utf-8")
        assert body.startswith("<svg")


def test_solve_plot_of_three_unknowns_skips_trajectory(tmp_path, capsys):
    text = '{"a": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [1, 2, 3], "x_true": [1, 2, 3]}'
    path = write_problem(tmp_path, text)
    prefix = str(tmp_path / "run")
    assert main(["solve", path, *FAST_FLAGS, "--plot", prefix]) == 0
    out = capsys.readouterr().out
    assert f"wrote {prefix}_decay.svg" in out
    assert "trajectory plot skipped: needs exactly 2 unknowns" in out
    assert sorted(p.name for p in tmp_path.glob("run*")) == ["run_decay.svg"]


def test_solve_sa_deterministic(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    flags = ["solve", path, *FAST_FLAGS, "--sampler", "sa",
             "--reads", "50", "--sweeps", "40", "--seed", "9"]
    assert main(flags) == 0
    first = capsys.readouterr().out
    assert main(flags) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_eigenbasis_flag(tmp_path, capsys):
    text = '{"a": [[2.0, 0.0], [0.0, 1.0]], "b": [2.0, 1.5], "x_true": [1.0, 1.5]}'
    path = write_problem(tmp_path, text)
    rc = main(["solve", path, "--eigenbasis", "--m-max", "2", "--l-min", "-12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x[0] = 1\n" in out
    assert "x[1] = 1.5\n" in out


def test_qubo_dump_exact_line(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["qubo-dump", path, "--center", "0.5,-0.25", "--level", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (
        '{"num_qubits":4,'
        '"linear":{"0":-6.0,"1":14.0,"2":11.0,"3":-3.0},'
        '"quadratic":{"0,1":-8.0,"2,3":-8.0}}\n'
    )


WIDE3 = '{"a": [[4, 1, 0], [1, 3, 1], [0, 1, 2]], "b": [1, 2, 3]}'


def test_qubo_dump_wide3_golden_bytes(tmp_path, capsys):
    # an 18-qubit window off the zero center, pinned byte for byte, and
    # its output parses back
    path = write_problem(tmp_path, WIDE3)
    argv = ["qubo-dump", path, "--bits-per-sign", "3", "--level", "-3", "--center", "0.5,-0.25,0.375"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a18ab1588d5f59c23396e83ce18b60761d31003a15522038d2114fae0289d3ce"
    )
    assert parse(out).n_qubits == 18


# a x = a with a = 2^508: 4 times its windows' coefficient magnitudes sum
# past the float range, so both samplers work on each window scaled by a
# power of two
BIG508 = '{"a": [[8.379879956214123e+152]], "b": [8.379879956214123e+152]}'
K3 = ["--bits-per-sign", "3", "--level-step", "3", "--l-min", "-30"]
SA7 = ["--sampler", "sa", "--seed", "7", "--reads"]


@pytest.mark.parametrize(
    "problem,flags,stdout_digest",
    [
        (WIDE3, K3, "ac8c17a1ce8cbcd1aa1029bd5a3459d628b303def31e6159e89c959add7d87cf"),
        (WIDE3, ["--tol", "1e-20"], "f59e4ab92b8fde08f86f0641d56b4417ffc2d6bfdca1aa11e432059c9f3a0b14"),
        # the annealer finds every 18-qubit window's ground state: the exhaustive run's bytes
        (WIDE3, [*K3, *SA7, "200"], "ac8c17a1ce8cbcd1aa1029bd5a3459d628b303def31e6159e89c959add7d87cf"),
        # 2^6 states fit in 1000 reads, so every flip is looked up by state code
        (WIDE3, ["--l-min", "-30", *SA7, "1000"],
         "7ec26b6421fa511565a76bbd188f97aeb0ab4c78a0738c6be70d6fa98defb5d9"),
        # 24-qubit windows, the exhaustive sampler's cap
        (WIDE3, ["--bits-per-sign", "4", "--level-step", "4", "--l-min", "-30"],
         "81773c25c8d0e950df14f30395da187538b0f2958c8111e6e0feb54812808158"),
        (BIG508, ["--l-min", "-30"], "169c9aa20300ffc09cf9dede6c484e6c7ca7a53fbd1c455d30dc3a5ad21c8d4e"),
        (BIG508, ["--l-min", "-30", *SA7, "200"],
         "169c9aa20300ffc09cf9dede6c484e6c7ca7a53fbd1c455d30dc3a5ad21c8d4e"),
    ],
    ids=["k3-step3", "tol", "k3-sa200", "k1-sa-table", "k4", "big508", "big508-sa"],
)
def test_solve_wide3_stdout_is_pinned(tmp_path, capsys, problem, flags, stdout_digest):
    # each printed x[i] and residual is one rounding of an exact value
    path = write_problem(tmp_path, problem)
    assert main(["solve", path, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest


def test_solve_wide3_eigenbasis_reaches_the_residual_floor(tmp_path, capsys):
    # not pinned: the bits of an eigenbasis run depend on the LAPACK build
    path = write_problem(tmp_path, WIDE3)
    assert main(["solve", path, "--eigenbasis", "--l-min", "-40"]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(printed["residual_norm_sq"]) < 1e-12


def test_qubo_dump_deep_window_keeps_subnormal_couplings(tmp_path, capsys):
    # a 6-qubit window at 2^-520: all 15 couplings are subnormal and nonzero
    path = write_problem(tmp_path, WIDE3)
    assert main(["qubo-dump", path, "--level", "-520"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "2de593516bbb5b15500088b0d29f5fce6f2397019b019c32c0288ecd44d97d2d"
    )
    q = parse(out)
    assert q.n_qubits == 6 and len(q.quadratic) == 15
    assert all(0.0 < abs(c) < sys.float_info.min for c in q.quadratic.values())


def test_qubo_dump_to_file_ends_with_newline(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    out_path = tmp_path / "window.json"
    rc = main(["qubo-dump", path, "--out", str(out_path)])
    assert rc == 0
    body = out_path.read_bytes()
    assert body.endswith(b"\n")
    doc = json.loads(body)
    assert doc["num_qubits"] == 4


def test_qubo_dump_stdout_matches_file(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    out_path = tmp_path / "window.json"
    assert main(["qubo-dump", path, "--level", "-2", "--out", str(out_path)]) == 0
    assert main(["qubo-dump", path, "--level", "-2"]) == 0
    printed = capsys.readouterr().out
    assert printed == out_path.read_text(encoding="utf-8")


def test_qubo_dump_rejects_non_dyadic_center(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["qubo-dump", path, "--center", "0.3,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not dyadic" in err


def test_qubo_dump_rejects_wrong_center_arity(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["qubo-dump", path, "--center", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "2 components" in err


def test_qubo_dump_rejects_unparsable_center(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["qubo-dump", path, "--center", "abc,0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad center component 'abc'" in err


def test_qubo_dump_without_bits_is_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, WIDE3)
    assert main(["qubo-dump", path, "--bits-per-sign", "0"]) == 2
    assert capsys.readouterr().err == "input error: l_lo must not exceed l_hi\n"


def test_qubo_dump_linear_term_past_float_range_is_solver_error(tmp_path, capsys):
    # the quadratic term (-8) is finite; only the linear terms overflow
    path = write_problem(tmp_path, '{"a": [[1.0]], "b": [1e308]}')
    rc = main(["qubo-dump", path, "--level", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "solver error: window [1, 1] has coefficients past the float range\n"


def test_repro_table_runs_clean(capsys):
    rc = main(["repro-table1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "final_error = " in captured.out
    # all twelve checkpoint levels reported
    for m in (15, 10, 5, 0, -5, -10, -15, -20, -25, -30, -35, -40):
        assert f"\n{m:>5}  " in captured.out


def test_repro_table_failed_checkpoints_exit_4(capsys):
    # one read of one sweep cannot follow the descent, so checkpoints fail
    rc = main(["repro-table1", "--sampler", "sa", "--reads", "1", "--sweeps", "1", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 4
    failures = captured.err.splitlines()
    assert failures[-1].startswith("FAIL: final per-component error ")
    assert failures[0].startswith("FAIL: error ")
    assert all(" after level " in line for line in failures[:-1])
    assert "final_error = " in captured.out


def test_repro_table_bad_reads(capsys):
    rc = main(["repro-table1", "--sampler", "sa", "--reads", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err


def test_solve_no_window_fits_is_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    trace, prefix = str(tmp_path / "t.csv"), str(tmp_path / "run")
    rc = main(["solve", path, "--m-max", "-40", "--l-min", "-40", "--bits-per-sign", "3",
               "--trace", trace, "--plot", prefix])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--trace", "--plot"])
def test_solve_unwritable_output_is_input_error(tmp_path, capsys, flag):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["solve", path, *FAST_FLAGS, flag, str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err
    assert "Traceback" not in err


def test_qubo_dump_unwritable_out_is_input_error(tmp_path, capsys):
    path = write_problem(tmp_path, IDENTITY)
    rc = main(["qubo-dump", path, "--out", str(tmp_path / "missing" / "window.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "flags,digest,stdout_digest",
    [
        ([], "5a7f15e447aaca250fdca48780bc2e74443f07adb20937c6f202bfe6f73465f7",
         "cfce552a2c0f237146133a4417e4f855be1f7f70e645667804f0b4dc1d7214fc"),
        (["--bits-per-sign", "3", "--level-step", "3"],
         "cb3b6cd72560892db798fbc07aca64183052aff269dbca092392e01f3fdeafec",
         "3a9c3d91514a1c5e31e58dd99359d6e58027e7dbcaf7956349758fce81c6eb10"),
        (["--sampler", "sa", "--reads", "1000", "--seed", "7"],
         "5a7f15e447aaca250fdca48780bc2e74443f07adb20937c6f202bfe6f73465f7",
         "d2ae32aa40a6a67e56390425bfcfebd2cef186fe097d82657373c717e97e666b"),
    ],
    ids=["k1", "k3-step3", "sa"],
)
def test_repro_table_trace_matches_golden_hash(tmp_path, capsys, flags, digest, stdout_digest):
    # the stdout digest pins the table, ground-occurrence column included;
    # the annealer finds every 4-qubit window's ground state, so its trace
    # is the k=1 one, and its table differs only in the ground counts
    trace = tmp_path / "trace.csv"
    assert main(["repro-table1", *flags, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest


def test_repro_table_k3_has_a_row_with_ground_count_above_1(capsys):
    # a 12-qubit window can have degenerate ground states; the table shows
    # each level's first-solve count
    assert main(["repro-table1", "--bits-per-sign", "3", "--level-step", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = [int(f[2]) for f in rows if len(f) == 4 and set(f[1]) <= {"0", "1"}]
    assert counts and max(counts) > 1


def test_repro_table_writes_plots(tmp_path, capsys):
    prefix = str(tmp_path / "table1")
    assert main(["repro-table1", "--plot", prefix]) == 0
    out = capsys.readouterr().out
    for suffix in ("_decay.svg", "_trajectory.svg"):
        assert f"wrote {prefix}{suffix}\n" in out
        assert (tmp_path / f"table1{suffix}").read_text(encoding="utf-8").startswith("<svg")


INPUT_ERRORS = {OSError, ValueError, errors.ParseError, errors.DimensionMismatch, errors.IndexOutOfRange}
RAISED = sorted(errors.QrefineError.__subclasses__(), key=lambda t: t.__name__) + [OSError, ValueError]


def test_input_errors_are_the_value_errors():
    # errors.py holds the split: the CLI names no qrefine type of its own
    assert cli._INPUT_ERRORS == (OSError, ValueError)


@pytest.mark.parametrize("exc_type", RAISED, ids=lambda t: t.__name__)
def test_exit_code_depends_only_on_error_type(tmp_path, capsys, monkeypatch, exc_type):
    # the same error gives the same code and prefix whichever command meets it
    def boom(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr(cli, "refine", boom)
    monkeypatch.setattr(cli, "build_window", boom)
    path = write_problem(tmp_path, IDENTITY)
    code, prefix = (2, "input error: boom\n") if exc_type in INPUT_ERRORS else (3, "solver error: boom\n")
    for argv in (["solve", path], ["qubo-dump", path]):
        assert main(argv) == code
        assert capsys.readouterr().err == prefix
