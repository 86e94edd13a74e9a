"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Run with -s to see the ACCEPTANCE lines:

    pytest tests/test_acceptance.py -v -s

Expected values marked [DERIVED] were frozen from independent oracles
(brute-force searches, closed-form spectra, counting identities); none were
taken from the implementation under test.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from fracdel import (
    complete,
    delete_edge,
    eval_theorem,
    extremal,
    feng_yu_bound,
    find_fractional_factor,
    graphs_with_min_edges,
    has_fractional_gf_factor,
    hsf_bound,
    is_connected,
    is_fractional_ab_deleted,
    parse_graph6,
    spectral_summary,
    to_graph6,
    verify_sharpness,
)
from helpers import (
    gnp,
    has_gf_factor_lovasz,
    has_perfect_matching,
    is_fractional_ab_deleted_by_edges,
    is_fractional_ab_deleted_by_subsets,
)

CORPUS_SEED = 20260816
CORPUS_SIZE = 2000
NS = (5, 6, 7, 8, 9)
PS = (0.3, 0.5, 0.8)
AB_PAIRS = ((1, 3), (2, 3), (3, 3), (2, 4))
SPECTRAL_ATOL = 1e-8
MARGIN = 1e-9


@contextmanager
def criterion(number: int, label: str, details: dict | None = None):
    """Print exactly one ACCEPTANCE line per criterion, pass or fail."""
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {label}")
        raise
    extra = ""
    if details:
        extra = " [" + "; ".join(f"{k}={v}" for k, v in details.items()) + "]"
    print(f"\nACCEPTANCE {number} PASS: {label}{extra}")


@pytest.fixture(scope="module")
def corpus():
    """2000 seeded random graphs covering n in 5..9 and p in {.3,.5,.8}."""
    rng = random.Random(CORPUS_SEED)
    return [gnp(NS[i % len(NS)], PS[(i // len(NS)) % len(PS)], rng) for i in range(CORPUS_SIZE)]


def _flow_certified(graph, a, b):
    """Definitional route with explicit certificates: every single-edge
    deletion must leave a verifiable fractional [a, b]-factor."""
    for u, v in graph.edges():
        reduced = delete_edge(graph, u, v)
        assignment = find_fractional_factor(reduced, a, b)
        if assignment is None:
            return False
        assert assignment.satisfies(reduced, a, b), f"invalid certificate for edge ({u},{v})"
    return True


@pytest.fixture(scope="module")
def route_results(corpus):
    """Verdicts from all four decision routes for every (graph, a, b): the public
    decider (double-cover repair, subset scan for refutations), the subset
    criterion alone, the per-edge definition and per-edge certificates."""
    start = time.perf_counter()
    verdicts = {}
    for i, graph in enumerate(corpus):
        for a, b in AB_PAIRS:
            public_route = is_fractional_ab_deleted(graph, a, b)[0]
            subset_route = is_fractional_ab_deleted_by_subsets(graph, a, b)[0]
            edge_route = is_fractional_ab_deleted_by_edges(graph, a, b)
            flow_route = _flow_certified(graph, a, b)
            verdicts[i, (a, b)] = (public_route, subset_route, edge_route, flow_route)
    return {"verdicts": verdicts, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def corpus_spectra(corpus):
    """(rho, q, connected, degree-based rho bound, size-based q bound)."""
    rows = []
    for graph in corpus:
        summary = spectral_summary(graph)
        connected = is_connected(graph)
        rows.append(
            (
                summary.rho,
                summary.q,
                connected,
                hsf_bound(graph),
                feng_yu_bound(graph) if connected else None,
            )
        )
    return rows


@pytest.fixture(scope="module")
def dense7():
    """All labeled 7-vertex graphs with at least 17 edges (shared by 3 and 6)."""
    return list(graphs_with_min_edges(7, 17))


def test_criterion_1_three_routes_agree(corpus, route_results):
    details = {}
    with criterion(1, "the public decider and three independent routes agree on the random corpus", details):
        verdicts = route_results["verdicts"]
        assert len(verdicts) == CORPUS_SIZE * len(AB_PAIRS)
        mismatches = [key for key, votes in verdicts.items() if len(set(votes)) != 1]
        assert mismatches == [], f"route disagreement at {mismatches[:5]}"
        assert route_results["elapsed"] < 60.0
        details["instances"] = len(verdicts)
        details["true_verdicts"] = sum(v[0] for v in verdicts.values())
        details["elapsed"] = f"{route_results['elapsed']:.1f}s"


def test_criterion_2_sharpness_replay():
    details = {}
    with criterion(2, "tight-example replay passes on the full parameter grid", details):
        combos = 0
        for n in range(7, 13):
            for a in (1, 2, 3):
                for b in (3, 4):
                    report = verify_sharpness(n, a, b)
                    assert report.witness.s == ()
                    assert report.witness.t == (n - 1,)
                    assert report.witness.theta == 0
                    assert report.witness.epsilon == 1
                    assert abs(report.rho_gap) <= MARGIN
                    assert abs(report.q_gap) <= MARGIN
                    combos += 1
        assert combos == 36
        details["combos"] = combos


def test_criterion_3_exhaustive_dense_seven_vertex_check(dense7):
    details = {}
    with criterion(3, "no counterexample among all dense 7-vertex graphs (a=1, b=3)", details):
        start = time.perf_counter()
        # [DERIVED] complements with at most 4 of the 21 vertex pairs:
        # C(21,0)+C(21,1)+C(21,2)+C(21,3)+C(21,4) = 7547.
        assert len(dense7) == 7547
        kept = [g for g in dense7 if g.min_degree() >= 2]
        # The min-degree filter is vacuous here: the complement has at most
        # 4 edges, so every degree is at least 6 - 4 = 2. Kept as specified.
        assert len(kept) == 7547
        assert all(2 * g.edge_count >= (7 - 1) * (7 - 2) + 1 + 2 for g in kept)
        failures = [g for g in kept if is_fractional_ab_deleted(g, 1, 3)[0] is not True]
        assert failures == []
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        details["graphs"] = len(kept)
        details["elapsed"] = f"{elapsed:.1f}s"


def test_criterion_4_spectral_accuracy_and_bounds(corpus_spectra):
    details = {}
    with criterion(4, "spectra exact on complete graphs; both bounds dominate the corpus", details):
        for n in range(2, 51):
            kn = complete(n)
            summary = spectral_summary(kn)
            # [DERIVED] closed forms: rho(K_n) = n-1, q(K_n) = 2n-2, and both
            # bounds collapse to those exact values on complete graphs.
            assert abs(summary.rho - (n - 1)) <= SPECTRAL_ATOL
            assert abs(summary.q - (2 * n - 2)) <= SPECTRAL_ATOL
            assert abs(hsf_bound(kn) - summary.rho) <= SPECTRAL_ATOL
            assert abs(feng_yu_bound(kn) - summary.q) <= SPECTRAL_ATOL
        checked_fy = 0
        for rho, q, connected, rho_bound, q_bound in corpus_spectra:
            assert rho_bound - rho >= -SPECTRAL_ATOL
            if connected:
                assert q_bound - q >= -SPECTRAL_ATOL
                checked_fy += 1
        details["complete_graphs"] = "n=2..50"
        details["corpus_graphs"] = len(corpus_spectra)
        details["connected_for_q_bound"] = checked_fy


@lru_cache(maxsize=None)
def _tight_spectra(n, a):
    summary = spectral_summary(extremal(n, a))
    return summary.rho, summary.q


def test_criterion_5_spectral_theorems_end_to_end(corpus, corpus_spectra, route_results):
    details = {}
    with criterion(5, "spectral hypotheses imply the property and the size bound on the corpus", details):
        counts = {"1.4": 0, "1.6": 0}
        for i, graph in enumerate(corpus):
            rho, q, connected, _, _ = corpus_spectra[i]
            n = graph.n
            for a, b in AB_PAIRS:
                if not (b >= max(a, 3) and n >= max(a + 2, 7)):
                    continue
                rho_star, q_star = _tight_spectra(n, a)
                met_rho = rho - rho_star > MARGIN
                threshold = 2 * n - 4 + (a + 1) / (n - 1)
                met_q = connected and q - threshold > MARGIN and q - q_star > MARGIN
                if not (met_rho or met_q):
                    continue
                oracle = route_results["verdicts"][i, (a, b)][0]
                size_ok = 2 * graph.edge_count >= (n - 1) * (n - 2) + a + 2
                if met_rho:
                    counts["1.4"] += 1
                    assert oracle is True, f"graph {i} meets the rho hypothesis but lacks the property"
                    assert size_ok, f"graph {i} meets the rho hypothesis but not the size bound"
                if met_q:
                    counts["1.6"] += 1
                    assert oracle is True, f"graph {i} meets the q hypothesis but lacks the property"
                    assert size_ok, f"graph {i} meets the q hypothesis but not the size bound"
        assert counts["1.4"] > 0 and counts["1.6"] > 0, "restriction is vacuous; corpus too sparse"
        # Spot-check that the mirrored hypothesis logic matches the library's
        # own evaluation on a sample of graphs.
        for i in range(0, CORPUS_SIZE, 197):
            graph = corpus[i]
            for theorem_id in ("1.4", "1.6"):
                report = eval_theorem(graph, theorem_id, 1, 3)
                rho, q, connected, _, _ = corpus_spectra[i]
                n = graph.n
                if n < 7:
                    assert not report.applicable
                    continue
                rho_star, q_star = _tight_spectra(n, 1)
                if theorem_id == "1.4":
                    expected = rho - rho_star > MARGIN
                else:
                    expected = connected and q - (2 * n - 4 + 2 / (n - 1)) > MARGIN and q - q_star > MARGIN
                    if not connected:
                        assert not report.applicable
                assert report.hypothesis_met == expected
                assert (report.oracle_verdict is True) == route_results["verdicts"][i, (1, 3)][0]
        details["rho_hypothesis_met"] = counts["1.4"]
        details["q_hypothesis_met"] = counts["1.6"]


def test_criterion_6_graph6_round_trip(dense7):
    details = {}
    with criterion(6, "graph6 encode/decode is byte-exact on dense and random corpora", details):
        for graph in dense7:
            text = to_graph6(graph)
            back = parse_graph6(text)
            assert back == graph and to_graph6(back) == text
        rng = random.Random(CORPUS_SEED + 6)
        for _ in range(1000):
            n = rng.randint(1, 62)
            graph = gnp(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng)
            text = to_graph6(graph)
            back = parse_graph6(text)
            assert back == graph and to_graph6(back) == text
        details["dense_graphs"] = len(dense7)
        details["random_graphs"] = 1000


def test_criterion_7_integer_factor_cross_check():
    details = {}
    with criterion(7, "integer 1-factor test matches brute force and implies the fractional one", details):
        rng = random.Random(CORPUS_SEED + 7)
        with_factor = 0
        for _ in range(500):
            n = rng.randint(2, 8)
            graph = gnp(n, rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), rng)
            has_integer = has_gf_factor_lovasz(graph, 1, 1)
            assert has_integer == has_perfect_matching(graph)
            if has_integer:
                with_factor += 1
                assert has_fractional_gf_factor(graph, 1, 1)[0] is True
        assert 0 < with_factor < 500, "sample exercised only one outcome"
        details["graphs"] = 500
        details["with_perfect_matching"] = with_factor
