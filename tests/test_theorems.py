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
    SpectralSummary,
    adjacency_matrix,
    complete,
    delete_edge,
    disjoint_union,
    eval_theorem,
    extremal,
    extremal_spectra,
    graphs_with_min_edges,
    is_fractional_ab_deleted,
    scan,
    spectral_summary,
    parse_graph6,
    summarize,
    to_graph6,
    verify_sharpness,
)
from helpers import count_solves, cycle_graph, gnp, graph6_head, graphs_with_min_edges_by_edge_list, path_graph


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


def test_16_threshold_term_binds_above_q_star_at_a_1():
    # at (7, 1) the term 2n - 4 + (a + 1)/(n - 1) = 10.333 lies above q* = 10.217, so a graph whose
    # q falls between them does not meet 1.6; a term of a/(n - 1) = 10.167 would call it met
    r = eval_theorem(parse_graph6("F~N}g"), "1.6", 1, 3)
    values = r.hypothesis_values
    assert values["q_extremal"] < values["q"] < values["q_threshold"] == 10 + 2 / 6
    assert r.applicable and not r.hypothesis_met and r.consistent


def test_16_is_strict_at_q_star_where_the_threshold_lies_below_it():
    # at (7, 3) the term 2n - 4 + (a + 1)/(n - 1) = 10.667 lies below q* = 10.772, so only the strict q > q*
    # keeps the extremal graph, which is not deleted, from meeting 1.6
    r = eval_theorem(extremal(7, 3), "1.6", 3, 3)
    values = r.hypothesis_values
    assert values["q_threshold"] < values["q_extremal"] and abs(values["q"] - values["q_extremal"]) <= 1e-12
    assert r.applicable and not r.hypothesis_met and r.oracle_verdict is False and r.consistent


def test_16_is_strict_at_its_threshold(monkeypatch):
    # q(G) is an algebraic integer, so no graph here meets the term 10 + 2/6 of (7, 1) exactly: plant q on it.
    # At the term 1.6 is not met, and just past the margin it is
    threshold = 2 * 7 - 4 + (1 + 1) / (7 - 1)
    for q, met in ((threshold, False), (threshold + 2e-9, True)):
        summary = SpectralSummary(rho=6.0, q=q, residual=0.0)
        monkeypatch.setattr(fracdel.theorems, "spectral_summary", lambda _, s=summary: s)
        r = eval_theorem(complete(7), "1.6", 1, 3)
        assert r.hypothesis_values["q_threshold"] == threshold > r.hypothesis_values["q_extremal"]
        assert r.hypothesis_met is met


def test_report_on_cycle():
    r = eval_theorem(cycle_graph(7), "1.4", 1, 3)
    assert r.applicable and not r.hypothesis_met and r.consistent


def test_report_near_complete():
    r = eval_theorem(delete_edge(complete(7), 0, 1), "1.8", 1, 3)
    assert r.hypothesis_met and r.oracle_verdict is True and r.consistent


def test_theorem_18_on_the_dense_7_vertex_graphs_at_its_bound():
    # 1.8 asks delta >= a + 1 and 2e >= (n-1)(n-2) + a + 2. At n = 7 and even a the bound
    # is reached exactly, by e = 17 at a = 2 and e = 18 at a = 4, so a bound one higher
    # fails every one of these graphs; at odd a, 2e is even and the bound odd, and no graph
    # tells the two apart. The graphs with delta = a on the bound must fail it
    dense = [g for g in graphs_with_min_edges(7, 17) if g.edge_count <= 18]
    rng = random.Random(1808)
    checked = {True: 0, False: 0}
    for a, b, e, above, at_a in ((2, 3, 17, 5880, 105), (4, 4, 18, 105, 1085)):
        on_bound = [g for g in dense if g.edge_count == e and g.min_degree() >= a]
        met = [g for g in on_bound if g.min_degree() >= a + 1]
        unmet = [g for g in on_bound if g.min_degree() == a]
        assert (len(met), len(unmet)) == (above, at_a)
        for g in rng.sample(met, min(len(met), 300)) + rng.sample(unmet, min(len(unmet), 100)):
            want = g.min_degree() >= a + 1 and 2 * g.edge_count >= 6 * 5 + a + 2
            assert eval_theorem(g, "1.8", a, b).hypothesis_met is want, (to_graph6(g), a, b)
            checked[want] += 1
    assert checked == {True: 405, False: 200}


def test_the_16_edge_layer_at_n_7_holds_only_the_extremal_copies_refuted():
    # extremal(7, 1) has 16 edges, one fewer than the dense-7 corpus of acceptance criterion 3,
    # so this layer is checked on its own: its only graphs that are not [1, 3]-deleted are
    # the 42 labelled copies of extremal(7, 1), which tie rho* and q* and meet no hypothesis
    layer = [g for g in graphs_with_min_edges(7, 16) if g.edge_count == 16]
    assert len(layer) == 20349  # C(21, 5) removed pairs
    ext = extremal(7, 1)
    copies = {to_graph6(Graph(7, [(p[u], p[v]) for u, v in ext.edges()])) for p in itertools.permutations(range(7))}
    assert len(copies) == 42  # 7 choices of the degree-1 vertex times 6 of its neighbour
    refuted = {}
    for g in layer:
        verdict, witness = is_fractional_ab_deleted(g, 1, 3)
        if not verdict:
            refuted[to_graph6(g)] = g, witness
    assert set(refuted) == copies
    for g, w in refuted.values():
        low = [v for v in range(7) if g.degree(v) == 1]
        assert (w.s, w.t, w.theta, w.epsilon) == ((), tuple(low), 0, 1)
    # reference spectra from LAPACK, all 20 349 graphs in one batched solve
    rows = np.array([[g.adjacency_mask(v) for v in range(7)] for g in layer])
    adj = ((rows[:, :, None] >> np.arange(7)) & 1).astype(float)
    signless = adj + np.eye(7) * adj.sum(axis=2)[:, :, None]
    rho, q = np.linalg.eigvalsh(adj)[:, -1], np.linalg.eigvalsh(signless)[:, -1]
    rho_star, q_star = extremal_spectra(7, 1)
    for values, star in ((rho, rho_star), (q, q_star)):
        assert {to_graph6(layer[i]) for i in np.flatnonzero(np.abs(values - star) <= 1e-9)} == copies
    assert not np.any(rho - rho_star > 1e-9)  # 1.4 is met nowhere
    assert not np.any((q - (2 * 7 - 4 + 2 / 6) > 1e-9) & (q - q_star > 1e-9))  # nor 1.6
    assert all(2 * g.edge_count < 6 * 5 + 1 + 2 for g in layer)  # 1.8's size bound fails the whole layer
    for g, _ in refuted.values():
        for tid in ("1.4", "1.6", "1.8"):
            r = eval_theorem(g, tid, 1, 3)
            assert not r.hypothesis_met and r.oracle_verdict is False and r.consistent, (to_graph6(g), tid)


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


# from (50, 5) on: the eigenvalue -1 of multiplicity n - 3 keeps the off-diagonal norm above tol for 5 to 8 sweeps
# after the top pair is certified, so these solves end on its Kato-Temple interval
@pytest.mark.parametrize(
    "n, a",
    [(7, 1), (9, 2), (12, 3), (20, 5), (31, 7), (45, 10), (60, 1), (60, 20), (60, 58)]
    + [(50, 5), (60, 2), (70, 3), (80, 3), (100, 2)],
)
def test_extremal_spectra_match_the_matrix_solve(n, a):
    summary = spectral_summary(extremal(n, a))
    rho_star, q_star = extremal_spectra(n, a)
    assert abs(summary.rho - rho_star) <= 1e-12
    assert abs(summary.q - q_star) <= 1e-12


@pytest.mark.parametrize(
    "n, a, error, message",
    [
        (7, 0, ValueError, "a must be >= 1"),
        (7, -1, ValueError, "a must be >= 1"),
        (3, 5, ValueError, "need n >= a\\+2"),
        (7.5, 1, TypeError, "cannot be interpreted as an integer"),
        (7.0, 1, TypeError, "cannot be interpreted as an integer"),
        (7, 1.0, TypeError, "cannot be interpreted as an integer"),
    ],
)
def test_extremal_spectra_refuses_what_extremal_refuses(n, a, error, message):
    # with (7, 1) cached, 7.0 and 1.0 are still refused: the cache tells a float from an int
    rho_star, _ = extremal_spectra(7, 1)
    for build in (extremal, extremal_spectra):
        with pytest.raises(error, match=message):
            build(n, a)
    assert extremal_spectra(np.int64(7), np.int64(1))[0] == rho_star


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
    assert list(graphs_with_min_edges(4, np.int64(6))) == got
    for min_edges in (6.0, 100.5):  # past C(7, 2) too: the type is checked before the count
        with pytest.raises(TypeError):
            list(graphs_with_min_edges(7, min_edges))


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


def test_scan_refuses_a_line_past_the_matrix_guard_before_decoding_it(monkeypatch):
    n = MATRIX_GUARD + 1
    edgeless = graph6_head(n) + "?" * ((n * (n - 1) // 2 + 5) // 6)  # a valid line, about 1.4 MB
    truncated = graph6_head(n) + "??"  # its payload is far too short
    small = to_graph6(complete(7))
    decoded = []
    real = fracdel.graph.parse_graph6

    def parse(line):
        decoded.append(line)
        return real(line)

    monkeypatch.setattr(fracdel.graph, "parse_graph6", parse)  # the decoder the one reader calls
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
