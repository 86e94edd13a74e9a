"""Sufficient-condition reports, sharpness replay, dense enumeration, scanning."""

import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

import fracdel.theorems
from fracdel import (
    MATRIX_GUARD,
    Graph,
    SharpnessError,
    adjacency_matrix,
    complete,
    delete_edge,
    disjoint_union,
    eval_theorem,
    extremal,
    extremal_spectra,
    graphs_with_min_edges,
    scan,
    spectral_summary,
    parse_graph6,
    summarize,
    to_graph6,
    verify_sharpness,
)
from helpers import count_solves, cycle_graph, gnp, graphs_with_min_edges_by_edge_list, path_graph


def test_report_on_complete_graph():
    for tid in ("1.4", "1.6", "1.8"):
        r = eval_theorem(complete(7), tid, 1, 3)
        assert r.applicable and r.hypothesis_met
        assert r.oracle_verdict is True and r.consistent
        assert r.n == 7 and r.a == 1 and r.b == 3
        assert r.margin == 1e-9


def test_report_on_extremal_graph():
    g = extremal(7, 1)
    r = eval_theorem(g, "1.4", 1, 3)
    assert r.applicable and not r.hypothesis_met  # equality, not strictly greater
    assert r.oracle_verdict is False and r.consistent
    assert r.witness is not None and r.witness.t == (6,)
    r = eval_theorem(g, "1.6", 1, 3)
    assert not r.hypothesis_met and r.consistent
    r = eval_theorem(g, "1.8", 1, 3)
    assert not r.hypothesis_met  # delta = 1 < a + 1
    assert r.hypothesis_values["delta"] == 1


def test_report_on_cycle():
    r = eval_theorem(cycle_graph(7), "1.4", 1, 3)
    assert r.applicable and not r.hypothesis_met and r.consistent


def test_report_near_complete():
    r = eval_theorem(delete_edge(complete(7), 0, 1), "1.8", 1, 3)
    assert r.hypothesis_met and r.oracle_verdict is True and r.consistent


def test_hypothesis_values_keys():
    common = ["e", "delta", "connected", "rho", "q"]
    r = eval_theorem(complete(7), "1.4", 1, 3)
    assert list(r.hypothesis_values) == common + ["rho_extremal"]
    r = eval_theorem(complete(7), "1.6", 1, 3)
    assert list(r.hypothesis_values) == common + ["q_threshold", "q_extremal"]
    r = eval_theorem(complete(7), "1.8", 1, 3)
    assert list(r.hypothesis_values) == common + ["min_degree_needed", "size_bound"]
    assert r.hypothesis_values["size_bound"] == 16.5


def test_applicability_gates():
    assert not eval_theorem(complete(6), "1.4", 1, 3).applicable  # n < 7
    assert not eval_theorem(complete(7), "1.4", 1, 2).applicable  # b < 3
    assert not eval_theorem(complete(9), "1.4", 8, 8).applicable  # n < a + 2
    assert eval_theorem(complete(9), "1.4", 8, 8).hypothesis_values["rho_extremal"] is None
    disconnected = disjoint_union(complete(4), complete(4))
    assert not eval_theorem(disconnected, "1.6", 1, 3).applicable
    assert eval_theorem(disconnected, "1.4", 1, 3).applicable
    assert eval_theorem(disconnected, "1.8", 1, 3).applicable


def test_oracle_skip_above_guard():
    r = eval_theorem(cycle_graph(25), "1.8", 1, 3)
    assert r.oracle_verdict == "skipped(size-guard)"
    assert r.consistent  # no claim without the oracle
    assert r.witness is None
    r = eval_theorem(cycle_graph(25), "1.8", 1, 3, max_n=9)
    assert r.oracle_verdict == "skipped(size-guard)"
    r = eval_theorem(path_graph(25), "1.8", 1, 3)  # delta <= a is refuted before the guard
    assert r.oracle_verdict is False and r.witness.s == ()


def test_eval_validation():
    with pytest.raises(ValueError):
        eval_theorem(complete(7), "2.1", 1, 3)
    with pytest.raises(ValueError):
        eval_theorem(complete(7), "1.4", 3, 1)


def test_report_json_shape_and_determinism():
    r1 = eval_theorem(complete(9), "1.6", 2, 3)
    r2 = eval_theorem(complete(9), "1.6", 2, 3)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    data = r1.to_json()
    assert list(data) == [
        "theorem", "n", "a", "b", "applicable", "hypothesis_met",
        "oracle", "consistent", "margin", "values", "witness",
    ]
    assert data["oracle"] is True and data["witness"] is None


# --- sharpness ----------------------------------------------------------------


def test_two_conditions_on_one_graph_share_one_pair_of_solves(monkeypatch):
    solves = count_solves(monkeypatch)
    g = parse_graph6(to_graph6(gnp(32, 0.5, random.Random(8))))
    reports = [eval_theorem(g, tid, 1, 3) for tid in ("1.4", "1.6")]
    assert solves == [32, 32]  # rho and q, once
    summary = spectral_summary(g)
    assert len(solves) == 2
    assert [r.hypothesis_values["rho"] for r in reports] == [summary.rho] * 2
    assert [r.hypothesis_values["q"] for r in reports] == [summary.q] * 2


def test_verify_sharpness_passes():
    rep = verify_sharpness(9, 2, 3)
    assert rep.witness.s == () and rep.witness.t == (8,)
    assert rep.witness.theta == 0 and rep.witness.epsilon == 1
    assert abs(rep.rho_gap) <= 1e-12 and abs(rep.q_gap) <= 1e-12
    data = rep.to_json()
    assert data["passed"] is True and data["witness"]["T"] == [8]


def test_verify_sharpness_validation():
    with pytest.raises(ValueError):
        verify_sharpness(6, 1, 3)  # n too small
    with pytest.raises(ValueError):
        verify_sharpness(9, 2, 2)  # b < 3


def test_verify_sharpness_takes_integer_counts_only():
    rep = verify_sharpness(np.int64(7), 1, 3)
    assert type(rep.n) is int and rep.to_json() == verify_sharpness(7, 1, 3).to_json()
    with pytest.raises(TypeError):
        verify_sharpness(7.0, 1, 3)


def test_verify_sharpness_detects_violation(monkeypatch):
    monkeypatch.setattr(fracdel.theorems, "is_fractional_ab_deleted", lambda *a, **k: (True, None))
    with pytest.raises(SharpnessError):
        verify_sharpness(9, 2, 3)


def test_verify_sharpness_detects_spectral_gap(monkeypatch):
    # the replay compares the matrix solve with the quotient closed form, so a
    # solve that drifts from it must be caught
    real = fracdel.theorems.spectral_summary

    def drifted(graph, *args, **kwargs):
        summary = real(graph, *args, **kwargs)
        return dataclasses.replace(summary, rho=summary.rho + 1e-6)

    monkeypatch.setattr(fracdel.theorems, "spectral_summary", drifted)
    with pytest.raises(SharpnessError, match="spectral radius"):
        verify_sharpness(9, 2, 3)


def test_verify_sharpness_runs_each_solver_once(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(fracdel.theorems, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("is_fractional_ab_deleted", "spectral_summary"):
        monkeypatch.setattr(fracdel.theorems, name, counted(name))
    verify_sharpness(9, 2, 3)
    assert sorted(calls) == ["is_fractional_ab_deleted", "spectral_summary"]


@pytest.mark.parametrize("n, a", [(7, 1), (9, 2), (12, 3), (20, 5), (31, 7), (45, 10), (60, 1), (60, 20), (60, 58)])
def test_extremal_spectra_match_the_matrix_solve(n, a):
    summary = spectral_summary(extremal(n, a))
    rho_star, q_star = extremal_spectra(n, a)
    assert abs(summary.rho - rho_star) <= 1e-12
    assert abs(summary.q - q_star) <= 1e-12


def test_extremal_spectra_solved_once_per_n_and_a():
    lines = [to_graph6(g) for g in itertools.islice(graphs_with_min_edges(7, 17), 10)]
    extremal_spectra.cache_clear()
    records = list(scan(lines, "1.6", 2, 3))
    assert extremal_spectra.cache_info().misses == 1
    want = extremal_spectra.__wrapped__(7, 2)
    assert [r.report.hypothesis_values["q_extremal"] for r in records] == [want[1]] * 10
    assert extremal_spectra(7, 2) == want


# --- dense enumeration -----------------------------------------------------------


def test_graphs_with_min_edges_counts():
    # complements with at most 3 missing pairs on 4 vertices: C(6,0)+C(6,1)+C(6,2)+C(6,3)
    graphs = list(graphs_with_min_edges(4, 3))
    assert len(graphs) == 1 + 6 + 15 + 20
    assert all(g.edge_count >= 3 for g in graphs)
    assert graphs[0] == complete(4)
    assert len(set(graphs)) == len(graphs)  # labeled graphs, no repeats
    assert list(graphs_with_min_edges(3, 4)) == []
    assert len(list(graphs_with_min_edges(3, 0))) == 8


def test_graphs_with_min_edges_takes_integer_counts_only():
    got = list(graphs_with_min_edges(np.int64(4), 6))
    assert got == list(graphs_with_min_edges(4, 6)) and all(type(g.n) is int for g in got)
    with pytest.raises(TypeError):
        list(graphs_with_min_edges(4.0, 6))
    with pytest.raises(ValueError):
        list(graphs_with_min_edges(np.int64(-1), 0))


def test_graphs_with_min_edges_matches_the_edge_list_reference():
    # the generator toggles pairs of K_n's row masks; it must yield the edge-list
    # version's graphs in the same order, with the same edge counts and no spectra kept
    cases = [(n, m) for n in range(7) for m in range(-1, n * (n - 1) // 2 + 2)] + [(7, 17)]
    for n, m in cases:
        got = list(graphs_with_min_edges(n, m))
        want = list(graphs_with_min_edges_by_edge_list(n, m))
        assert got == want, (n, m)
        assert [g.edge_count for g in got] == [g.edge_count for g in want]
        assert all(g._spectra is None for g in got)
    assert len(got) == 7547


# --- scanning ----------------------------------------------------------------------


def test_scan_stream_and_summary():
    lines = [to_graph6(complete(7)), to_graph6(extremal(7, 1)), "", "NOT#VALID", to_graph6(complete(8))]
    records = list(scan(lines, "1.8", 1, 3))
    assert [r.index for r in records] == [1, 2, 4, 5]  # blank line skipped, numbering kept
    assert records[0].report.hypothesis_met and records[0].report.oracle_verdict is True
    assert not records[1].report.hypothesis_met
    assert records[2].error is not None and records[2].report is None
    assert not any(r.is_counterexample for r in records)
    counts = summarize(records)
    assert counts == {
        "graphs": 3,
        "hypothesis_met": 2,
        "oracle_true": 2,  # the extremal graph is refuted by the oracle
        "counterexamples": 0,
        "errors": 1,
        "oracle_skipped": 0,
    }
    err_json = records[2].to_json()
    assert err_json["id"] == 4 and "error" in err_json


def _graph6_head(n: int) -> str:
    return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))


def test_scan_refuses_a_line_past_the_matrix_guard_before_decoding_it(monkeypatch):
    n = MATRIX_GUARD + 1
    edgeless = _graph6_head(n) + "?" * ((n * (n - 1) // 2 + 5) // 6)  # a valid line, about 1.4 MB
    truncated = _graph6_head(n) + "??"  # its payload is far too short
    small = to_graph6(complete(7))
    decoded = []
    real = fracdel.theorems.parse_graph6

    def parse(line):
        decoded.append(line)
        return real(line)

    monkeypatch.setattr(fracdel.theorems, "parse_graph6", parse)
    records = list(scan([small, edgeless, truncated, small], "1.8", 1, 3))
    assert decoded == [small, small]
    with pytest.raises(ValueError) as ceiling:
        adjacency_matrix(Graph(n))
    assert [r.error for r in records] == [None, str(ceiling.value), str(ceiling.value), None]
    assert parse_graph6(edgeless).n == n  # the line itself decodes


def test_scan_records_are_deterministic():
    lines = [to_graph6(gnp(7, 0.5, random.Random(3))) for _ in range(5)]
    first = [json.dumps(r.to_json()) for r in scan(lines, "1.4", 1, 3)]
    second = [json.dumps(r.to_json()) for r in scan(lines, "1.4", 1, 3)]
    assert first == second


def test_scan_counterexample_counting(monkeypatch):
    # force the oracle to deny everything so the plumbing path is exercised
    monkeypatch.setattr(fracdel.theorems, "is_fractional_ab_deleted", lambda *a, **k: (False, None))
    records = list(scan([to_graph6(complete(7))], "1.8", 1, 3))
    assert records[0].is_counterexample
    assert summarize(records)["counterexamples"] == 1


def test_scan_validation():
    with pytest.raises(ValueError):
        list(scan([], "9.9", 1, 3))
