"""CLI subcommands, output schemas, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import fracdel.cli
import fracdel.theorems
from fracdel import (
    MATRIX_GUARD,
    ConvergenceError,
    Graph,
    complete,
    delete_edge,
    extremal,
    find_fractional_factor,
    parse_graph6,
    scan,
    spectral_summary,
    summarize,
    to_graph6,
)
from fracdel.cli import main
from helpers import cycle_graph, graph6_head, path_graph, star_graph


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


def test_construct_refuses_a_size_past_graph6_before_building_the_graph(capsys, monkeypatch):
    # K_n's row masks take ~n^2/8 bytes, ~8 GiB at n = 258048: the encoder's limit is
    # checked before either family is built, with the encoder's message
    def unbuilt(*args):
        raise AssertionError(f"a graph was built for {args}")

    monkeypatch.setattr(fracdel.cli, "complete", unbuilt)
    monkeypatch.setattr(fracdel.cli, "extremal", unbuilt)
    want = "error: n=258048 exceeds the supported graph6 maximum 258047\n"
    assert run(capsys, "construct", "--family", "complete", "--n", "258048") == (2, "", want)
    assert run(capsys, "construct", "--family", "extremal", "--n", "258048", "--a", "1") == (2, "", want)
    with pytest.raises(ValueError, match="exceeds the supported graph6 maximum 258047"):
        to_graph6(Graph(258048))  # the same message from the encoder; an edgeless graph is cheap


def test_construct_refuses_a_size_past_its_memory_budget_before_building_the_graph(capsys, monkeypatch):
    # building and encoding K_n peaks at ~0.34 n^2 bytes under tracemalloc and at up to ~0.38 n^2
    # of max RSS, ~23 GiB at n = 258047, a size graph6 can write: construct refuses any n whose
    # 0.4 n^2 bytes exceed its budget, before either family is built
    n = fracdel.cli.CONSTRUCT_MAX_N
    assert 0.4 * n * n <= fracdel.cli.CONSTRUCT_BUDGET_GIB * 2**30 < 0.4 * (n + 1) ** 2
    for build in (complete, lambda size: extremal(size, 5)):
        tracemalloc.start()
        try:
            to_graph6(build(2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * 2000**2, peak
    built = []

    def unbuilt(*args):
        built.append(args)
        return complete(3)

    monkeypatch.setattr(fracdel.cli, "complete", unbuilt)
    monkeypatch.setattr(fracdel.cli, "extremal", unbuilt)
    for family, size in (("complete", 258047), ("extremal", n + 1)):
        want = f"error: n={size} exceeds {n}, the largest n construct encodes within its 1 GiB memory budget\n"
        assert run(capsys, "construct", "--family", family, "--n", str(size), "--a", "1") == (2, "", want)
    assert built == []
    assert run(capsys, "construct", "--family", "complete", "--n", str(n)) == (0, "Bw\n", "")
    assert built == [(n,)]


@pytest.mark.parametrize("command", ["check", "factor"])
def test_check_and_factor_refuse_a_size_past_their_memory_budget_before_decoding(capsys, monkeypatch, command):
    # their max RSS on a cycle line is ~0.29 n^2 bytes, so they keep construct's cap; a 4-byte size field
    # with no payload one past it is refused from the size field, read from --graph6 or from a stream
    n = fracdel.cli.CONSTRUCT_MAX_N
    past = graph6_head(n + 1)
    want = f"error: n={n + 1} exceeds {n}, the largest n {command} decodes within its 1 GiB memory budget\n"
    assert run(capsys, command, "--graph6", past, "--a", "1", "--b", "3") == (2, "", want)
    monkeypatch.setattr("sys.stdin", io.StringIO(past + "\n"))
    assert run(capsys, command, "--a", "1", "--b", "3") == (2, "", want)
    # at the cap itself the line is decoded, and its missing payload is the error
    need = (n * (n - 1) // 2 + 5) // 6
    want = f"error: expected {need} payload bytes, found 0 (byte offset 4)\n"
    assert run(capsys, command, "--graph6", graph6_head(n), "--a", "1", "--b", "3") == (2, "", want)


@pytest.mark.parametrize("preset", [None, "2"])
def test_main_pins_blas_to_one_thread_unless_the_environment_says_otherwise(preset):
    # BLAS reads these as numpy loads, and a spectrum loads it; a value already set is kept
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}  # this process has them pinned
    if preset:
        env.update(dict.fromkeys(names, preset))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import os, sys; from fracdel.cli import main; code = main(['spectral', '--graph6', 'Bw']);"
        f" print(code, 'numpy' in sys.modules, *(os.environ.get(v) for v in {names!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.splitlines()[-1] == f"0 True {preset or 1} {preset or 1} {preset or 1}", proc.stderr


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
    assert data["tol"] == 1e-10


def test_spectral_prints_a_readable_residual_and_tol_as_given(capsys):
    rng = random.Random(20260816)  # the seeded G(32, 1/2) of the CI factor step
    g = Graph(32, [e for e in combinations(range(32), 2) if rng.random() < 0.5])
    summary = spectral_summary(g)
    code, out, _ = run(capsys, "spectral", "--graph6", to_graph6(g))
    data = json.loads(out)
    assert code == 0 and 0 < data["residual"] == float(f"{summary.residual:.2e}")
    assert (data["rho"], data["q"], data["tol"]) == (round(summary.rho, 12), round(summary.q, 12), 1e-10)
    assert out.endswith(', "tol": 1e-10}\n')


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
    assert (code, err) == (2, "error: n=25 exceeds the subset-enumeration limit 24; pass max_n to override\n")
    # a limit that was passed is named, not asked for
    code, _, err = run(capsys, "check", "--graph6", "F~~~w", "--a", "1", "--b", "3", "--max-n", "5")
    assert (code, err) == (2, "error: n=7 exceeds the subset-enumeration limit max_n=5\n")
    code, out, _ = run(
        capsys, "check", "--graph6", to_graph6(cycle_graph(25)), "--a", "1", "--b", "3", "--max-n", "25"
    )
    assert code == 0 and json.loads(out)["verdict"] is True
    # a vertex of degree <= a refutes at S = {} before the guard
    code, out, _ = run(capsys, "check", "--graph6", to_graph6(path_graph(25)), "--a", "1", "--b", "3")
    assert code == 1  # a path is not [1,3]-deleted: end edges strand a vertex
    assert json.loads(out)["verdict"] is False


def test_check_past_the_guard_answers_true_without_the_subset_scan(capsys):
    # a 2^40 scan is out of reach; the closed form b(delta - 1) >= a * Delta decides K_40 directly
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--graph6", to_graph6(complete(40)), "--a", "1", "--b", "3", "--max-n", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["verdict"] is True


# the parser is built once per process: a run of mixed subcommands, optional flags and
# exits must print what a fresh process prints for each
ALTERNATING = [
    ["check", "--graph6", "F~~{?", "--a", "1", "--b", "3"],
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


def test_python_dash_m_runs_the_cli(capsys):
    # `python -m fracdel` and `python -m fracdel.cli` are the console script: same stdout and exit code
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for graph, code in (("F~~~w", 0), ("F~~{?", 1)):  # deleted, refuted
        argv = ["check", "--graph6", graph, "--a", "1", "--b", "3"]
        want = run(capsys, *argv)[:2]
        assert want[0] == code and want[1]
        for module in ("fracdel", "fracdel.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (proc.returncode, proc.stdout) == want, (module, argv, proc.stderr)


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
    # extremal(80, 3)'s eigenvalue -1 of multiplicity 77 holds the off-diagonal norm above tol: its solves end on
    # the top pairs' Kato-Temple intervals
    code, out, _ = run(capsys, "sharpness", "--n", "80", "--a", "3", "--b", "3")
    assert code == 0 and json.loads(out)["passed"] is True


def test_sharpness_refuses_a_size_past_the_matrix_guard_before_building_the_graph(capsys, monkeypatch):
    # the spectra would refuse extremal(n, a) past spectral.MATRIX_GUARD, so it is never built
    def unbuilt(*args):
        raise AssertionError(f"a graph was built for {args}")

    monkeypatch.setattr(fracdel.theorems, "extremal", unbuilt)
    want = "error: n=300000 exceeds the 4096-vertex limit of the dense spectral matrices\n"
    assert run(capsys, "sharpness", "--n", "300000", "--a", "1", "--b", "3") == (2, "", want)
    with pytest.raises(ValueError, match="n=4097 exceeds the 4096-vertex limit"):
        fracdel.theorems.verify_sharpness(4097, 2, 3)


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
        ["spectral", "--graph6", "Bw"],
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


def test_solver_failure_exits_1(capsys, monkeypatch):
    # where the solver cannot certify K_7's spectra, spectral and theorem print nothing on stdout and exit 1
    # with the solver's message
    def fails(m):
        raise ConvergenceError("planted failure", 6.5)

    monkeypatch.setattr(fracdel.spectral, "_top_pairs", fails)
    for argv in (["spectral"], ["theorem", "--theorem", "1.4", "--a", "1", "--b", "3"]):
        got = run(capsys, *argv, "--graph6", "F~~~w")
        assert got == (1, "", "numerical failure: planted failure (residual 6.500e+00)\n"), argv


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


def test_scan_file_with_a_non_ascii_line_prints_an_na_row_and_goes_on(capsys, tmp_path):
    # one bad line never aborts a scan: its bytes reach the graph6 parser, whose error
    # names the first one, and the lines after it are scanned
    corpus = tmp_path / "corpus.g6"
    k7 = to_graph6(complete(7)).encode()
    corpus.write_bytes(k7 + b"\n" + "é".encode() + k7 + b"\n" + k7 + b"\n")  # é is the bytes 195 169
    code, out, err = run(capsys, "scan", "--file", str(corpus), "--theorem", "1.8", "--a", "1", "--b", "3")
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines()[1:-1]]
    assert rows[1] == ["2", "1.8"] + ["NA"] * 7
    assert [r[0] for r in rows] == ["1", "2", "3"] and rows[2][1:] == rows[0][1:] and rows[2][3] == "true"
    assert json.loads(out.splitlines()[-1])["errors"] == 1
    assert err == "line 2: size byte 195 out of range 63..126 (byte offset 0)\n"


@pytest.mark.parametrize(
    "env", [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}], ids=["strict-utf-8", "c-locale"]
)
def test_stdin_with_a_non_utf8_byte_is_an_na_row_naming_the_byte(env):
    # stdin's bytes are read as latin-1, as --file's are: byte 255 reaches the graph6 parser as
    # itself, whatever the locale or PYTHONIOENCODING, and the scan goes on after its line
    base = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LANG")}
    env = {**base, **env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    k7 = to_graph6(complete(7)).encode()
    proc = subprocess.run(
        [sys.executable, "-m", "fracdel", "scan", "--theorem", "1.8", "--a", "1", "--b", "3"],
        input=k7 + b"\n\xff" + k7 + b"\n" + k7 + b"\n", capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split("\t") for ln in proc.stdout.decode().splitlines()[1:-1]]
    assert [r[0] for r in rows] == ["1", "2", "3"] and rows[1] == ["2", "1.8"] + ["NA"] * 7
    assert json.loads(proc.stdout.decode().splitlines()[-1])["errors"] == 1
    assert proc.stderr.decode() == "line 2: size byte 255 out of range 63..126 (byte offset 0)\n"
    proc = subprocess.run(
        [sys.executable, "-m", "fracdel", "check", "--a", "1", "--b", "3"],
        input=b"\xff" + k7 + b"\n", capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == "error: size byte 255 out of range 63..126 (byte offset 0)\n"


# numpy computes only spectra and the 2^n kernel's chunks, so these commands must not load it
NUMPY_FREE = [
    ["--help"],
    ["check", "--graph6", "F~~~w", "--a", "1", "--b", "3"],  # deleted, by the double cover
    ["check", "--graph6", "F~~{?", "--a", "1", "--b", "3"],  # refuted at S = {} by delta <= a
    ["factor", "--graph6", "F~~~w", "--a", "1", "--b", "3"],
    ["construct", "--family", "extremal", "--n", "7", "--a", "1"],
]
NUMPY_USERS = [
    ["spectral", "--graph6", "F~~~w"],
    ["check", "--graph6", "F~zf?", "--a", "1", "--b", "1"],  # the refutation's witness comes from the 2^n kernel
]
_PROBE = (
    "import sys\n"
    "from fracdel.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print('numpy' in sys.modules, code, file=sys.stderr)\n"
)


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_package_does_not_load_numpy():
    proc = _fresh("import sys, fracdel; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize(
    "argv, loads", [pytest.param(a, a in NUMPY_USERS, id=" ".join(a)) for a in NUMPY_FREE + NUMPY_USERS]
)
def test_numpy_loads_only_for_a_spectrum_or_the_subset_kernel(capsys, argv, loads):
    proc = _fresh(_PROBE, *argv)
    loaded, code = proc.stderr.splitlines()[-1].split()
    assert loaded == str(loads)
    if argv != ["--help"]:  # and prints what it prints in process
        assert (int(code), proc.stdout) == run(capsys, *argv)[:2]


def test_the_package_exports_each_modules_all_once():
    # in a fresh interpreter, where no test has imported fracdel.cli: the four modules' names
    # and the modules themselves, and nothing else
    proc = _fresh("import json, fracdel; print(json.dumps([k for k in vars(fracdel) if not k.startswith('__')]))")
    from fracdel import graph, oracle, spectral, theorems

    listed = [name for mod in (graph, oracle, spectral, theorems) for name in mod.__all__]
    assert len(listed) == len(set(listed)) == 49
    assert sorted(json.loads(proc.stdout)) == sorted(listed + ["graph", "oracle", "spectral", "theorems"])
    assert fracdel.__version__ == "0.1.0"


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

    monkeypatch.setattr(fracdel.graph, "parse_graph6", never)  # the decoder the one reader calls
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


def test_closed_stdin_reads_as_empty(capsys, monkeypatch):
    # with fd 0 closed Python sets sys.stdin to None: check finds no graph, scan none to scan
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, "check", "--a", "1", "--b", "3") == (2, "", "error: no input graph: expected one graph6 line\n")
    header = "id\ttheorem\thypothesis_met\toracle\tconsistent\trho\tq\te\tdelta\n"
    summary = '{"graphs": 0, "hypothesis_met": 0, "oracle_true": 0, "counterexamples": 0, "errors": 0, "oracle_skipped": 0}\n'
    assert run(capsys, "scan", "--theorem", "1.8", "--a", "1", "--b", "3") == (0, header + summary, "")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as ei:
        main(["theorem", "--theorem", "9.9", "--a", "1", "--b", "3"])
    assert ei.value.code == 2


# main hands a named command's arguments to that command's parser alone, and anything
# it cannot finish to the full parser: on this table both ways must print the same bytes
CHECK = ["check", "--graph6", "F~~~w", "--a", "1", "--b", "3"]
VALID_CALLS = [
    ["construct", "--family", "extremal", "--n", "7", "--a", "1"],
    ["spectral", "--graph6", "F~~~w"],
    CHECK,
    ["factor", "--graph6", "F~~{?", "--a", "1", "--b", "3"],
    ["theorem", "--graph6", "F~~~w", "--theorem", "1.6", "--a", "1", "--b", "3"],
    ["sharpness", "--n", "9", "--a", "2", "--b", "3"],
    ["scan", "--graph6", "F~~{?", "--theorem", "1.4", "--a", "1", "--b", "3", "--format", "json"],
]
DISPATCH_TABLE = VALID_CALLS + [
    ["-h", "check"],
    ["check", "-h"],
    ["check", "--graph6", "F~~~w", "--b", "3"],
    ["check", "--graph6", "F~~~w", "--a", "x", "--b", "3"],
    ["check", "--graph6", "F~~~w", "--file", "x.g6", "--a", "1", "--b", "3"],
    CHECK + ["--tol", "1e-9"],
    ["check", "--grap", "F~~~w", "--a", "1", "--b", "3"],
    ["check", "--graph6", "F~~~w", "--a=1", "--b", "3"],
    ["--", *CHECK],
    CHECK + ["--"],
    [],
    ["deleted", "--graph6", "F~~~w"],
]


def _outcome(call):
    """Exit code, stdout and stderr of one call, whether it returns or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_parse(argv):
    return fracdel.cli._parsers()[0].parse_args(argv)


def _namespace(parse, argv):
    """The parsed arguments without ``command``, or None when parsing exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit:
            return None
    return {k: v for k, v in vars(args).items() if k != "command"}


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=lambda argv: " ".join(argv) or "empty")
def test_dispatch_matches_the_full_parser(monkeypatch, argv):
    assert _namespace(fracdel.cli._parse, argv) == _namespace(_full_parse, argv)
    direct = _outcome(lambda: main(list(argv)))
    monkeypatch.setattr(fracdel.cli, "_parse", _full_parse)
    assert direct == _outcome(lambda: main(list(argv)))
    if argv in VALID_CALLS:
        assert direct[0] in (0, 1) and direct[1]
    else:
        assert direct[0] in (0, 2) and direct[1] + direct[2]


@pytest.mark.parametrize("argv", VALID_CALLS, ids=lambda argv: argv[0])
def test_a_named_command_is_parsed_by_its_own_parser_alone(argv):
    # the full parser sets ``command``; the command's own parser does not
    assert "command" not in vars(fracdel.cli._parse(argv))


def test_the_bytes_pinned_by_ci(capsys, monkeypatch, tmp_path):
    # the workflow's pins, run in process: a change that moves any greedy pick, search or
    # flip of a build, of a G - e's repair of G's factor, or any witness of these
    # refutations, fails here as well as in CI
    r = random.Random(20260816)
    gnp32 = to_graph6(Graph(32, [e for e in combinations(range(32), 2) if r.random() < 0.5]))
    path = tmp_path / "gnp32.g6"
    path.write_text(gnp32 + "\n", encoding="ascii")
    code, out, _ = run(capsys, "factor", "--file", str(path), "--a", "1", "--b", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a55dbcd4495b1ab932b963c330e5353090783b8b2058d2b6d2a7a472873f7b4c"
    for (a, b), digest in (
        ((1, 3), "904c0702b8ce494351920233769cf8527aac51075922c29bb6c80c0743559fb0"),
        ((3, 3), "1d019293b829ce0dd40a522298b726a6331556e1adce407d53d63f788ec44e89"),
    ):
        g = parse_graph6(gnp32)  # a fresh graph, with no build kept, as in its own process
        lines = [json.dumps(find_fractional_factor(delete_edge(g, u, v), a, b).to_json()) for u, v in g.edges()]
        assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest, (a, b)
    for g6, b, witness in (
        ("F~~{?", 3, '{"S": [], "T": [6], "theta": 0, "epsilon": 1, "rule": "deleted"}'),
        ("F~zf?", 1, '{"S": [0, 1, 2], "T": [3, 4, 5, 6], "theta": -1, "epsilon": 0, "rule": "deleted"}'),
    ):
        want = f'{{"n": 7, "a": 1, "b": {b}, "verdict": false, "witness": {witness}}}\n'
        assert run(capsys, "check", "--graph6", g6, "--a", "1", "--b", str(b)) == (1, want, "")
    # at a < b past the closed form: a refutation, where a repair fails, and a deleted graph, where F0,
    # F1 and every repair succeed
    want = '{"n": 7, "a": 1, "b": 2, "verdict": false, "witness": {"S": [0, 6], "T": [1, 2, 3, 4, 5], "theta": 1, "epsilon": 2, "rule": "deleted"}}\n'
    assert run(capsys, "check", "--graph6", "FQaFw", "--a", "1", "--b", "2") == (1, want, "")
    want = '{"n": 6, "a": 1, "b": 2, "verdict": true, "witness": null}\n'
    assert run(capsys, "check", "--graph6", "EXjw", "--a", "1", "--b", "2") == (0, want, "")
    # K_3 at (1, 2), on the closed form's boundary, and C_5 at (1, 1), one short of it
    want = '{"n": 3, "a": 1, "b": 2, "verdict": true, "witness": null}\n'
    assert run(capsys, "check", "--graph6", "Bw", "--a", "1", "--b", "2") == (0, want, "")
    want = '{"n": 5, "a": 1, "b": 1, "verdict": false, "witness": {"S": [0, 2], "T": [1, 3, 4], "theta": 1, "epsilon": 2, "rule": "deleted"}}\n'
    assert run(capsys, "check", "--graph6", "Dhc", "--a", "1", "--b", "1") == (1, want, "")
    monkeypatch.setattr("sys.stdin", None)  # a closed stdin
    assert run(capsys, "check", "--a", "1", "--b", "3") == (2, "", "error: no input graph: expected one graph6 line\n")


def test_file_input(capsys, tmp_path):
    path = tmp_path / "one.g6"
    path.write_text("F~~{?\n", encoding="ascii")
    code, out, _ = run(capsys, "check", "--file", str(path), "--a", "1", "--b", "3")
    assert code == 1
    assert json.loads(out)["n"] == 7


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "check", "--file", "/nonexistent/x.g6", "--a", "1", "--b", "3")
    assert code == 2
