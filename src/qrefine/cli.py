"""Command-line front end.

Subcommands:
  solve          refine a problem file, optionally writing trace CSV and SVG plots
  repro-table1   run the built-in irrational 2x2 reproduction with error checkpoints,
                 optionally writing trace CSV and SVG plots
  qubo-dump      emit the interchange JSON for one window around a given center

Exit codes: 0 success; 2 input error (OSError or ValueError, as are
ParseError, DimensionMismatch and IndexOutOfRange); 3 solver error (any
other QrefineError: SingularMatrix, TooLarge, TooManyQubits); 4
checkpoint assertion failure. `main` alone maps an error, by its type,
to its code and its "input error:" or "solver error:" line. Set
QREFINE_LOG=error|info|debug for diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .encoding import DyadicVector, EncodingSpec
from .errors import ParseError, QrefineError
from .linalg import LinearSystem, normal_residual, residual
from .plots import emit_plots
from .problems import load_problem
from .qubo import WindowLevel, build_window, dump
from .refine import IterationRecord, RefinementConfig, RefinementTrace, refine
from .samplers import AnnealConfig
from .traceio import TraceWriter

# exit 2, the input errors of errors.py among them; every other QrefineError exits 3
_INPUT_ERRORS = (OSError, ValueError)
_CHECKPOINTS = [15, 10, 5, 0, -5, -10, -15, -20, -25, -30, -35, -40]


def irrational_system() -> tuple[LinearSystem, tuple[float, float]]:
    """The built-in 2x2 system over sqrt(2), sqrt(3), sqrt(5), sqrt(7) with
    solution (1024*pi, -32*e), all at correctly rounded 64-bit precision."""
    r2, r3, r5, r7 = math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)
    truth = (1024.0 * math.pi, -32.0 * math.e)  # exact power-of-two scalings
    a = np.array([[r2, -r3], [r5, r7]])
    b = np.array(
        [1024.0 * r2 * math.pi + 32.0 * r3 * math.e,
         1024.0 * r5 * math.pi - 32.0 * r7 * math.e]
    )
    return LinearSystem(a=a, b=b), truth


def _init_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("QREFINE_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("qrefine").setLevel(level)


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits-per-sign", type=int, default=1, help="window bits per sign")
    p.add_argument("--level-step", type=int, default=None, help="exponent decrement per level")
    p.add_argument("--sampler", choices=("exhaustive", "sa"), default="exhaustive")
    p.add_argument("--reads", type=int, default=1000, help="annealer reads")
    p.add_argument("--sweeps", type=int, default=100, help="annealer sweeps per read")
    p.add_argument("--seed", type=int, default=0, help="annealer seed")


def _add_refine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-max", type=int, default=None, help="starting scale exponent")
    p.add_argument("--l-min", type=int, default=-40, help="final window low edge")
    _add_window_flags(p)
    p.add_argument("--tol", type=float, default=0.0, help="early-stop residual tolerance")
    p.add_argument("--max-recenters", type=int, default=1000, help="recenter cap per level")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="PATH", help="write trace CSV")
    p.add_argument("--plot", default=None, metavar="PREFIX", help="write SVG plots with this prefix")


def _config_from(args: argparse.Namespace) -> RefinementConfig:
    anneal = None
    if args.sampler == "sa":
        anneal = AnnealConfig(reads=args.reads, sweeps=args.sweeps, seed=args.seed)
    return RefinementConfig(
        m_max=args.m_max,
        l_min=args.l_min,
        bits_per_sign=args.bits_per_sign,
        level_step=args.level_step,
        max_recenters_per_level=args.max_recenters,
        residual_tolerance=args.tol,
        use_eigenbasis=args.eigenbasis,
        sampler=args.sampler,
        anneal=anneal,
    )


def _run(
    args: argparse.Namespace,
    system: LinearSystem,
    config: RefinementConfig,
    truth: tuple[float, ...] | None,
) -> RefinementTrace:
    """Refine, streaming rows to the --trace file, which the first row
    opens: a run refused before its first solve never touches the path,
    and one that fails later keeps the rows it wrote."""
    if not args.trace:
        return refine(system, config, truth=truth)
    with contextlib.ExitStack() as stack:
        writer = None

        def observe(record: IterationRecord) -> None:
            nonlocal writer
            if writer is None:
                writer = TraceWriter(stack.enter_context(open(args.trace, "w", encoding="utf-8", newline="")))
            writer(record)

        return refine(system, config, truth=truth, observer=observe)


def _plot(args: argparse.Namespace, trace: RefinementTrace, truth: tuple[float, ...] | None) -> None:
    """Write the --plot charts and list them."""
    if not args.plot:
        return
    for path in emit_plots(trace, args.plot, truth):
        print(f"wrote {path}")
    if len(trace.final_center) != 2:
        print("trajectory plot skipped: needs exactly 2 unknowns")


def cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    config = _config_from(args)
    system = problem.system()
    truth = problem.x_true
    trace = _run(args, system, config, truth)

    for i, value in enumerate(trace.final_center.to_floats()):
        print(f"x[{i}] = {value:.18g}")
    final = trace.records[-1]
    print(f"residual_norm_sq = {final.residual_norm_sq!r}")
    if final.error_vs_truth is not None:
        print(f"error_vs_truth = {final.error_vs_truth!r}")
    print(f"qubo_solves = {trace.total_qubo_solves}")
    print(f"terminated_by = {trace.terminated_by}")
    _plot(args, trace, truth)
    return 0


def cmd_repro_table1(args: argparse.Namespace) -> int:
    system, truth = irrational_system()
    config = _config_from(args)
    trace = _run(args, system, config, truth)

    first_by_level: dict[int, int] = {}  # in descent order
    last_by_level: dict[int, int] = {}
    for idx, rec in enumerate(trace.records):
        first_by_level.setdefault(rec.level, idx)
        last_by_level[rec.level] = idx

    single_bit = config.bits_per_sign == 1 and (config.level_step or 1) == 1
    shown = [m for m in _CHECKPOINTS if m in first_by_level] if single_bit else list(first_by_level)
    print(f"{'m':>5}  {'bits(first solve)':<20} {'ground occ':>10}  {'error after level':>18}")
    failures = []
    for m in shown:
        first = trace.records[first_by_level[m]]
        err = trace.records[last_by_level[m]].error_vs_truth
        bits = "".join(str(b) for b in first.bits)
        print(f"{m:>5}  {bits:<20} {first.ground_occurrences:>10}  {err:>18.3e}")
        if m in _CHECKPOINTS and err > 2.0 * 2.0**m:
            failures.append(f"error {err:.3e} after level {m} exceeds bound {2.0 * 2.0 ** m:.3e}")

    final_err = trace.records[-1].error_vs_truth
    for i, value in enumerate(trace.final_center.to_floats()):
        print(f"x[{i}] = {value:.18g}")
    print(f"final_error = {final_err!r}")
    print(f"qubo_solves = {trace.total_qubo_solves}")
    per_component = [
        abs(v - t) for v, t in zip(trace.final_center.to_floats(), truth)
    ]
    if max(per_component) > 5e-12:
        failures.append(f"final per-component error {max(per_component):.3e} exceeds 5e-12")
    for failure in failures:  # before the plots, so a plot error cannot hide them
        print(f"FAIL: {failure}", file=sys.stderr)
    _plot(args, trace, truth)
    return 4 if failures else 0


def _parse_center(text: str, n: int) -> DyadicVector:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n:
        raise ParseError(f"center needs {n} components, got {len(tokens)}")
    pairs = []
    for tok in tokens:
        try:
            frac = Fraction(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad center component {tok!r}") from exc
        den = frac.denominator
        if den & (den - 1):
            raise ParseError(f"center component {tok!r} is not dyadic (denominator {den})")
        pairs.append((frac.numerator, -(den.bit_length() - 1)))
    return DyadicVector.from_pairs(pairs)


def cmd_qubo_dump(args: argparse.Namespace) -> int:
    system = load_problem(args.problem).system()
    n = system.n
    center = _parse_center(args.center, n) if args.center else DyadicVector.zero(n)
    spec = EncodingSpec(n_vars=n, l_lo=args.level, l_hi=args.level + args.bits_per_sign - 1)
    g = normal_residual(*system.exact[:2], residual(system, center))
    text = dump(build_window(WindowLevel(system.gram, spec), g))
    if not args.out:
        print(text)
        return 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrefine",
        description="Iterative QUBO refinement solver for linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="refine a problem file")
    p_solve.add_argument("problem", help="problem JSON path")
    _add_refine_flags(p_solve)
    p_solve.add_argument("--eigenbasis", action="store_true", help="refine in the eigenbasis of A^T A")
    _add_output_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_repro = sub.add_parser(
        "repro-table1",
        help="run the built-in irrational 2x2 system, m=20 down to -40, with error checkpoints",
    )
    _add_window_flags(p_repro)
    _add_output_flags(p_repro)
    p_repro.set_defaults(
        func=cmd_repro_table1, m_max=20, l_min=-40, tol=0.0, max_recenters=1000, eigenbasis=False
    )

    p_dump = sub.add_parser("qubo-dump", help="emit window QUBO as interchange JSON")
    p_dump.add_argument("problem", help="problem JSON path")
    p_dump.add_argument("--center", default=None, help="comma-separated dyadic decimals (default zeros)")
    p_dump.add_argument("--level", type=int, default=0, help="window low exponent")
    p_dump.add_argument("--bits-per-sign", type=int, default=1)
    p_dump.add_argument("--out", default=None, metavar="PATH", help="output path (default stdout)")
    p_dump.set_defaults(func=cmd_qubo_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    _init_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: usage error or --help
        return int(exc.code or 0)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except QrefineError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
