"""Command-line interface.

Exit codes: 0 success (property holds / scan clean), 1 property false or
inconsistent, 2 usage or input errors, 3 scan found a counterexample.
Data goes to stdout, diagnostics to stderr. Floats in JSON output are
rounded to 12 decimal places so identical inputs give byte-identical
reports, except ``spectral``'s residual (3 significant digits) and tol (the
eigensolver's fixed tolerance, ``spectral.DEFAULT_TOL``, as written). No
command takes a tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

from .graph import _check_graph6_max, _parse_graph6_within, complete, extremal, is_connected, to_graph6
from .oracle import SizeGuardError, find_fractional_factor, is_fractional_ab_deleted
from .spectral import DEFAULT_TOL, ConvergenceError, _check_matrix_guard, feng_yu_bound, hsf_bound, spectral_summary
from .theorems import (
    THEOREM_IDS,
    SharpnessError,
    eval_theorem,
    scan,
    summarize,
    verify_sharpness,
)

__all__ = ["main"]

_TSV_COLUMNS = ("id", "theorem", "hypothesis_met", "oracle", "consistent", "rho", "q", "e", "delta")

# max RSS at n >= 10 000: construct's 0.31-0.38 n^2 bytes; check's and factor's, on cycle lines, 0.287 and 0.275 n^2
CONSTRUCT_BUDGET_GIB = 1  # the memory construct, check and factor may spend
CONSTRUCT_MAX_N = math.isqrt(CONSTRUCT_BUDGET_GIB * 2**30 * 5 // 2)  # 51810: the largest n with 0.4 n^2 bytes in budget


def _round(x: float) -> float:
    return round(x, 12) + 0.0  # + 0.0 turns a rounded -0.0 into 0.0


def _round_floats(value):
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _emit(obj) -> None:
    print(json.dumps(_round_floats(obj)))


def _tsv_cell(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return format(_round(value), ".12g")
    return str(value)


@contextmanager
def _input_lines(args) -> Iterator[Iterable[str]]:
    """The graph input as lines: --graph6, else --file (opened here, read lazily), else stdin.

    The file, and stdin's byte stream where it has one, are read as latin-1, which maps
    each byte to the character of the same value, so a non-ASCII byte reaches the graph6
    parser, and its error names that byte, whatever the locale. A stdin without a byte
    stream (an in-memory one) is read as the text it holds. A closed stdin, which Python
    sets to None, is read as empty, as /dev/null is."""
    if getattr(args, "graph6", None) is not None:
        yield [args.graph6]
    elif getattr(args, "file", None):
        with open(args.file, encoding="latin-1") as fh:
            yield fh
    elif sys.stdin is None:
        yield ()
    else:
        raw = getattr(sys.stdin, "buffer", None)
        yield sys.stdin if raw is None else (line.decode("latin-1") for line in raw)


def _read_one_line(args) -> str:
    if getattr(args, "graph6", None) is not None:
        return args.graph6  # verbatim: only stream lines are stripped
    with _input_lines(args) as lines:
        for line in lines:
            if line.strip():
                return line.strip()
    raise ValueError("no input graph: expected one graph6 line")


def _check_budget(n: int, work: str) -> None:
    """ValueError when n is past CONSTRUCT_MAX_N, the largest n at which ``work`` stays in the memory budget."""
    if n > CONSTRUCT_MAX_N:
        raise ValueError(
            f"n={n} exceeds {CONSTRUCT_MAX_N}, the largest n {work}"
            f" within its {CONSTRUCT_BUDGET_GIB} GiB memory budget"
        )


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group()
    src.add_argument("--graph6", help="graph6 string (default: read stdin)")
    src.add_argument("--file", help="path to a graph6 file")


def _cmd_construct(args) -> int:
    if args.family == "extremal" and args.a is None:
        raise ValueError("--family extremal requires --a")
    _check_graph6_max(args.n)  # refused before the graph's ~n^2/8 bytes of row masks are built
    _check_budget(args.n, "construct encodes")
    graph = complete(args.n) if args.family == "complete" else extremal(args.n, args.a)
    print(to_graph6(graph))
    return 0


def _cmd_spectral(args) -> int:
    graph = _parse_graph6_within(_read_one_line(args), _check_matrix_guard)
    summary = spectral_summary(graph)
    fy = feng_yu_bound(graph) if graph.n >= 2 and is_connected(graph) else None
    rounded = _round_floats(
        {"n": graph.n, "rho": summary.rho, "q": summary.q, "hsf_bound": hsf_bound(graph), "feng_yu_bound": fy}
    )
    # both are far below the 12-decimal rounding: the residual prints to 3 significant digits, tol as written
    print(json.dumps({**rounded, "residual": float(f"{summary.residual:.2e}"), "tol": DEFAULT_TOL}))
    return 0


def _cmd_check(args) -> int:
    graph = _parse_graph6_within(_read_one_line(args), lambda n: _check_budget(n, "check decodes"))
    verdict, witness = is_fractional_ab_deleted(graph, args.a, args.b, max_n=args.max_n)
    _emit(
        {
            "n": graph.n,
            "a": args.a,
            "b": args.b,
            "verdict": verdict,
            "witness": witness.to_json() if witness is not None else None,
        }
    )
    return 0 if verdict else 1


def _cmd_factor(args) -> int:
    graph = _parse_graph6_within(_read_one_line(args), lambda n: _check_budget(n, "factor decodes"))
    assignment = find_fractional_factor(graph, args.a, args.b)
    payload = {"n": graph.n, "a": args.a, "b": args.b, "exists": assignment is not None}
    if assignment is not None:
        payload.update(assignment.to_json())
    else:
        payload.update({"denominator": 2, "weights": None})
    _emit(payload)
    return 0 if assignment is not None else 1


def _cmd_theorem(args) -> int:
    graph = _parse_graph6_within(_read_one_line(args), _check_matrix_guard)
    report = eval_theorem(graph, args.theorem, args.a, args.b, max_n=args.max_n)
    _emit(report.to_json())
    return 0 if report.consistent else 1


def _cmd_sharpness(args) -> int:
    try:
        report = verify_sharpness(args.n, args.a, args.b)
    except SharpnessError as exc:
        print(f"sharpness violation: {exc}", file=sys.stderr)
        return 1
    _emit(report.to_json())
    return 0


def _cmd_scan(args) -> int:
    with _input_lines(args) as lines:
        counts = summarize(_printed(args, scan(lines, args.theorem, args.a, args.b, max_n=args.max_n)))
    _emit(counts)
    return 3 if counts["counterexamples"] else 0


def _printed(args, records) -> Iterator:
    """Yield each scan record after printing its row, so no record outlives its line."""
    if args.format == "tsv":
        print("\t".join(_TSV_COLUMNS))
    for record in records:
        if record.error is not None:
            print(f"line {record.index}: {record.error}", file=sys.stderr)
        if args.format == "json":
            _emit(record.to_json())
        elif record.error is not None:
            print("\t".join([str(record.index), args.theorem] + ["NA"] * 7))
        else:
            rep = record.report
            cells = [
                _tsv_cell(record.index),
                rep.theorem_id,
                _tsv_cell(rep.hypothesis_met),
                _tsv_cell(rep.oracle_verdict),
                _tsv_cell(rep.consistent),
                _tsv_cell(rep.hypothesis_values["rho"]),
                _tsv_cell(rep.hypothesis_values["q"]),
                _tsv_cell(rep.hypothesis_values["e"]),
                _tsv_cell(rep.hypothesis_values["delta"]),
            ]
            print("\t".join(cells))
        yield record


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built on the
    first call and shared after: parsing leaves them unchanged.

    Not built at import, which would add its few milliseconds to every import.
    """
    parser = argparse.ArgumentParser(
        prog="fracdel",
        description="Decide fractional [a,b]-deleted graphs, compute spectral bounds, "
        "and verify the sufficient conditions on graph6 corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("--family", choices=("complete", "extremal"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("spectral", help="spectral radius, signless Laplacian radius, and bounds")
    _add_graph_input(p)
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("check", help="decide whether the graph is fractional [a,b]-deleted")
    _add_graph_input(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("factor", help="construct a half-integral fractional [a,b]-factor")
    _add_graph_input(p)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("theorem", help="evaluate one sufficient condition plus the exact oracle")
    _add_graph_input(p)
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(handler=_cmd_theorem)

    p = sub.add_parser("sharpness", help="replay the tightness checks on the extremal graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(handler=_cmd_sharpness)

    p = sub.add_parser("scan", help="stream a graph6 corpus through one condition")
    _add_graph_input(p)
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.set_defaults(handler=_cmd_scan)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The named command's parser reads its own arguments, in one pass.

    Anything it cannot finish alone (no command named, or arguments left
    over) goes through the full parser, so help, usage errors and their
    exit codes are the full parser's own. The direct path does not set
    ``command``; no handler reads it.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # BLAS reads it as numpy loads, which no fracdel import does
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.handler(args)
    except (SizeGuardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
