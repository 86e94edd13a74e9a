"""CLI subcommands, output schemas, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracdel.cli
import fracdel.theorems
from fracdel import MATRIX_GUARD, ConvergenceError, Graph, complete, extremal, parse_graph6, scan, summarize, to_graph6
from fracdel.cli import main
from helpers import cycle_graph, path_graph, star_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_complete(capsys):
    code, out, _ = run(capsys, "construct", "--family", "complete", "--n", "7")
    assert code == 0
    assert parse_graph6(out.strip()) == complete(7)


def test_construct_extremal(capsys):
    code, out, _ = run(capsys, "construct", "--family", "extremal", "--n", "7", "--a", "1")
    assert code == 0
    assert out.strip() == "F~~{?"


def test_construct_errors(capsys):
    code, _, err = run(capsys, "construct", "--family", "extremal", "--n", "7")
    assert code == 2 and "--a" in err
    code, _, err = run(capsys, "construct", "--family", "extremal", "--n", "4", "--a", "3")
    assert code == 2 and "error" in err


def test_spectral_json(capsys):
    code, out, _ = run(capsys, "spectral", "--graph6", "Bw")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["n", "rho", "q", "hsf_bound", "feng_yu_bound", "residual", "tol"]
    assert data["n"] == 3
    assert data["rho"] == pytest.approx(2.0, abs=1e-9)
    assert data["q"] == pytest.approx(4.0, abs=1e-9)
    assert data["hsf_bound"] == pytest.approx(2.0, abs=1e-9)
    assert data["feng_yu_bound"] == pytest.approx(4.0, abs=1e-9)
    code, out, _ = run(capsys, "spectral", "--graph6", "Bw", "--tol", "1e-12")
    assert code == 0 and json.loads(out)["tol"] == 1e-12


def test_spectral_disconnected_has_null_feng_yu(capsys):
    g6 = to_graph6(parse_graph6("A?"))  # two isolated vertices
    code, out, _ = run(capsys, "spectral", "--graph6", g6)
    assert code == 0
    assert json.loads(out)["feng_yu_bound"] is None


def test_check_false_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--graph6", "F~~{?", "--a", "1", "--b", "3")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] is False
    assert data["witness"] == {"S": [], "T": [6], "theta": 0, "epsilon": 1, "rule": "deleted"}


def test_check_true(capsys):
    code, out, _ = run(capsys, "check", "--graph6", to_graph6(complete(5)), "--a", "1", "--b", "3")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True and data["witness"] is None


def test_check_guard_exit(capsys):
    code, _, err = run(capsys, "check", "--graph6", to_graph6(cycle_graph(25)), "--a", "1", "--b", "3")
    assert code == 2 and "max_n" in err
    code, out, _ = run(
        capsys, "check", "--graph6", to_graph6(cycle_graph(25)), "--a", "1", "--b", "3", "--max-n", "25"
    )
    assert code == 0 and json.loads(out)["verdict"] is True
    # a vertex of degree <= a refutes at S = {} before the guard
    code, out, _ = run(capsys, "check", "--graph6", to_graph6(path_graph(25)), "--a", "1", "--b", "3")
    assert code == 1  # a path is not [1,3]-deleted: end edges strand a vertex
    assert json.loads(out)["verdict"] is False


def test_check_past_the_guard_answers_true_without_the_subset_scan(capsys):
    # a 2^40 scan is out of reach; the double-cover repair decides K_40 directly
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--graph6", to_graph6(complete(40)), "--a", "1", "--b", "3", "--max-n", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["verdict"] is True


# the parser is built once per process: a run of mixed subcommands, optional flags and
# exits must print what a fresh process prints for each
ALTERNATING = [
    ["check", "--graph6", "F~~{?", "--a", "1", "--b", "3"],
    ["spectral", "--graph6", "Bw", "--tol", "1e-12"],
    ["check", "--graph6", "F~~~w", "--a", "1", "--b", "3", "--max-n", "7"],
    ["factor", "--graph6", "Cl", "--a", "1", "--b", "1"],
    ["spectral", "--graph6", "Bw"],
    ["theorem", "--graph6", "F~~~w", "--theorem", "1.8", "--a", "1", "--b", "3"],
    ["check", "--graph6", "F~~{?", "--a", "1", "--b", "3"],
    ["construct", "--family", "extremal", "--n", "7", "--a", "1"],
    ["check", "--graph6", ":Fa@x^", "--a", "1", "--b", "3"],
    ["theorem", "--graph6", "F~~~w", "--theorem", "1.4", "--a", "1", "--b", "3", "--max-n", "6"],
]


def test_one_process_serves_alternating_subcommands(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    fresh = {}
    for argv in ALTERNATING:
        if tuple(argv) not in fresh:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from fracdel.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            fresh[tuple(argv)] = (proc.returncode, proc.stdout)
    for argv in ALTERNATING:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == fresh[tuple(argv)], argv


def test_factor_exists(capsys):
    code, out, _ = run(capsys, "factor", "--graph6", to_graph6(cycle_graph(4)), "--a", "1", "--b", "1")
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True and data["denominator"] == 2
    assert sorted(w[2] for w in data["weights"]) in ([0, 0, 2, 2], [1, 1, 1, 1])


def test_factor_missing(capsys):
    code, out, _ = run(capsys, "factor", "--graph6", to_graph6(star_graph(3)), "--a", "1", "--b", "1")
    assert code == 1
    data = json.loads(out)
    assert data["exists"] is False and data["weights"] is None


def test_theorem_report(capsys):
    code, out, _ = run(
        capsys, "theorem", "--graph6", to_graph6(complete(7)), "--theorem", "1.4", "--a", "1", "--b", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == "1.4" and data["hypothesis_met"] is True
    assert data["oracle"] is True and data["consistent"] is True


def test_theorem_skip_above_guard(capsys):
    code, out, _ = run(
        capsys, "theorem", "--graph6", to_graph6(cycle_graph(25)), "--theorem", "1.8", "--a", "1", "--b", "3"
    )
    assert code == 0
    assert json.loads(out)["oracle"] == "skipped(size-guard)"


def test_sharpness(capsys):
    code, out, _ = run(capsys, "sharpness", "--n", "9", "--a", "2", "--b", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["witness"]["T"] == [8]
    code, _, err = run(capsys, "sharpness", "--n", "6", "--a", "1", "--b", "3")
    assert code == 2


def test_rounded_zero_prints_without_a_sign(capsys):
    code, out, _ = run(capsys, "sharpness", "--n", "7", "--a", "1", "--b", "4")
    assert code == 0
    assert "-0.0" not in out and json.loads(out)["q_gap"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem", "--graph6", "F~~~w", "--theorem", "1.8", "--a", "1", "--b", "3"],
        ["scan", "--graph6", "F~~~w", "--theorem", "1.8", "--a", "1", "--b", "3"],
        ["sharpness", "--n", "9", "--a", "2", "--b", "3"],
    ],
)
def test_tol_is_refused_where_a_hypothesis_is_decided(capsys, argv):
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--tol", "1e-3"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_sharpness_violation_exit(capsys, monkeypatch):
    monkeypatch.setattr(fracdel.theorems, "is_fractional_ab_deleted", lambda *a, **k: (True, None))
    code, _, err = run(capsys, "sharpness", "--n", "9", "--a", "2", "--b", "3")
    assert code == 1 and "sharpness violation" in err


def test_scan_tsv(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(
        "\n".join([to_graph6(complete(7)), "###", to_graph6(extremal(7, 1))]) + "\n",
        encoding="ascii",
    )
    code, out, err = run(capsys, "scan", "--file", str(corpus), "--theorem", "1.8", "--a", "1", "--b", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id\ttheorem\thypothesis_met\toracle\tconsistent\trho\tq\te\tdelta"
    rows = [ln.split("\t") for ln in lines[1:-1]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert rows[0][2] == "true" and rows[0][3] == "true" and rows[0][4] == "true"
    assert rows[1][2] == "NA"
    assert rows[2][3] == "false"  # extremal graph fails the oracle
    assert rows[2][7] == "16" and rows[2][8] == "1"
    summary = json.loads(lines[-1])
    assert summary["graphs"] == 2 and summary["errors"] == 1 and summary["counterexamples"] == 0
    assert "line 2" in err


def test_scan_json_lines(capsys):
    import sys

    lines = to_graph6(complete(7)) + "\n" + to_graph6(complete(8)) + "\n"
    code = None
    stdin = sys.stdin
    sys.stdin = io.StringIO(lines)
    try:
        code = main(["scan", "--theorem", "1.6", "--a", "1", "--b", "3", "--format", "json"])
    finally:
        sys.stdin = stdin
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    records = [json.loads(ln) for ln in out]
    assert [r.get("id") for r in records[:-1]] == [1, 2]
    assert all(r["consistent"] for r in records[:-1])
    assert records[-1]["graphs"] == 2


def test_scan_counterexample_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(fracdel.theorems, "is_fractional_ab_deleted", lambda *a, **k: (False, None))
    import sys

    stdin = sys.stdin
    sys.stdin = io.StringIO(to_graph6(complete(7)) + "\n")
    try:
        code = main(["scan", "--theorem", "1.8", "--a", "1", "--b", "3"])
    finally:
        sys.stdin = stdin
    capsys.readouterr()
    assert code == 3


def test_scan_survives_numerical_failure(capsys, monkeypatch):
    real = fracdel.theorems.spectral_summary

    def flaky(graph, *args, **kwargs):
        if graph.n == 8:
            raise ConvergenceError("no convergence within 0 sweeps", 1.0)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(fracdel.theorems, "spectral_summary", flaky)
    lines = [to_graph6(complete(n)) for n in (7, 8, 9)]
    records = list(scan(lines, "1.8", 1, 3))
    assert [r.report is not None for r in records] == [True, False, True]
    assert "numerical failure" in records[1].error
    counts = summarize(records)
    assert counts["graphs"] == 2 and counts["errors"] == 1
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "scan", "--theorem", "1.8", "--a", "1", "--b", "3")
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines()[1:-1]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert rows[1] == ["2", "1.8"] + ["NA"] * 7
    assert json.loads(out.splitlines()[-1])["errors"] == 1
    assert "line 2: numerical failure" in err


def test_scan_file_and_stdin_print_same_bytes(capsys, monkeypatch, tmp_path):
    text = "\n".join([to_graph6(complete(7)), "", "###", to_graph6(extremal(7, 1))]) + "\n"
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(text, encoding="ascii")
    for fmt, rows in (("tsv", 5), ("json", 4)):
        argv = ["scan", "--theorem", "1.8", "--a", "1", "--b", "3", "--format", fmt]
        from_file = run(capsys, *argv, "--file", str(corpus))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        from_stdin = run(capsys, *argv)
        assert from_file == from_stdin
        assert from_file[0] == 0 and from_file[1].count("\n") == rows


def test_scan_max_n_past_the_mask_width_skips_the_oracle(capsys, monkeypatch):
    lines = [to_graph6(g) for g in (complete(7), cycle_graph(64), complete(8))]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, err = run(capsys, "scan", "--theorem", "1.8", "--a", "1", "--b", "3", "--max-n", "100")
    assert code == 0 and err == ""
    rows = [ln.split("\t") for ln in out.splitlines()[1:-1]]
    assert [r[3] for r in rows] == ["true", "skipped(size-guard)", "true"]
    summary = json.loads(out.splitlines()[-1])
    assert summary["graphs"] == 3 and summary["oracle_skipped"] == 1


def test_a_graph_past_the_matrix_guard_is_an_error_row_or_exit_2(capsys, monkeypatch):
    line = to_graph6(Graph(MATRIX_GUARD + 1))  # about 1.4 MB of graph6
    zeros = np.zeros

    def no_large_matrix(shape, *args, **kwargs):  # one 4097 x 4097 float64 matrix is 128 MiB
        assert np.prod(shape) <= MATRIX_GUARD**2, shape
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_large_matrix)
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "scan", "--theorem", "1.4", "--a", "1", "--b", "3")
    assert code == 0 and out.splitlines()[1].split("\t") == ["1", "1.4"] + ["NA"] * 7
    assert json.loads(out.splitlines()[-1])["errors"] == 1
    assert err == "line 1: n=4097 exceeds the 4096-vertex limit of the dense spectral matrices\n"
    for argv in (["spectral"], ["theorem", "--theorem", "1.8", "--a", "1", "--b", "3"]):
        code, out, err = run(capsys, *argv, "--graph6", line)
        assert code == 2 and out == "" and "4096-vertex limit" in err


def test_spectral_and_theorem_refuse_a_line_past_the_matrix_guard_before_decoding_it(capsys, monkeypatch):
    valid = to_graph6(Graph(MATRIX_GUARD + 1))  # about 1.4 MB of graph6
    truncated = valid[:6]  # the size field and two payload bytes

    def never(line):
        raise AssertionError("parse_graph6 called on a line past the ceiling")

    monkeypatch.setattr(fracdel.cli, "parse_graph6", never)
    want = f"error: n={MATRIX_GUARD + 1} exceeds the {MATRIX_GUARD}-vertex limit of the dense spectral matrices\n"
    for line in (valid, truncated):
        for argv in (["spectral"], ["theorem", "--theorem", "1.4", "--a", "1", "--b", "3"]):
            assert run(capsys, *argv, "--graph6", line) == (2, "", want)
            monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
            assert run(capsys, *argv) == (2, "", want)


def _scan_peak_bytes(path, lines: int) -> int:
    """tracemalloc peak of one `scan --file` over `lines` malformed lines, output discarded."""
    path.write_text("###\n" * lines, encoding="ascii")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        tracemalloc.start()
        try:
            assert main(["scan", "--file", str(path), "--theorem", "1.8", "--a", "1", "--b", "3"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_corpus(tmp_path):
    small = _scan_peak_bytes(tmp_path / "small.g6", 2_000)
    large = _scan_peak_bytes(tmp_path / "large.g6", 20_000)
    # keeping every record would cost about 250 bytes a line: ~5 MB more here
    assert large < small + (1 << 20), (small, large)


def test_stdin_single_graph(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, _ = run(capsys, "spectral")
    assert code == 0 and json.loads(out)["n"] == 3


def test_malformed_graph6_exits_2(capsys):
    code, _, err = run(capsys, "check", "--graph6", ":Fa@x^", "--a", "1", "--b", "3")
    assert code == 2 and "sparse6" in err


def test_empty_stdin_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, _, err = run(capsys, "spectral")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["theorem", "--theorem", "9.9", "--a", "1", "--b", "3"])
    assert ei.value.code == 2


def test_file_input(capsys, tmp_path):
    path = tmp_path / "one.g6"
    path.write_text("F~~{?\n", encoding="ascii")
    code, out, _ = run(capsys, "check", "--file", str(path), "--a", "1", "--b", "3")
    assert code == 1
    assert json.loads(out)["n"] == 7


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "--file", "/nonexistent/x.g6", "--a", "1", "--b", "3")
    assert code == 2
