"""Factor oracles: criterion route, definitional route, flow certificates, integer factors."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from fracdel import (
    Graph,
    SizeGuardError,
    complete,
    cut_count,
    deficiency_witness,
    degree_sum_minus,
    delete_edge,
    delete_vertices,
    disjoint_union,
    epsilon,
    extremal,
    factor_deficiency_witness,
    find_fractional_factor,
    has_fractional_gf_factor,
    is_fractional_ab_deleted,
    join,
    parse_graph6,
    theta,
    to_graph6,
)
from fracdel import oracle
from fracdel.graph import _bits
from fracdel.oracle import DeficiencyWitness, FractionalAssignment, _augment, _greedy_start
from helpers import (
    cycle_graph,
    epsilon_by_loops,
    find_fractional_factor_by_flow,
    gnp,
    has_gf_factor_lovasz,
    has_perfect_matching,
    is_fractional_ab_deleted_by_edges,
    is_fractional_ab_deleted_by_subsets,
    low_degree_set,
    path_graph,
    reference_double_cover_factor,
    satisfies_by_halves,
    star_graph,
    theta_by_loops,
)


# --- theta / epsilon ---------------------------------------------------------


def test_theta_worked_example():
    assert theta(complete(5), [0], [1], 3, 3) == 3


def test_theta_validation():
    g = complete(4)
    with pytest.raises(ValueError):
        theta(g, [0], [1], 3, 2)  # a > b
    with pytest.raises(ValueError):
        theta(g, [0], [1], 0, 2)
    with pytest.raises(ValueError):
        theta(g, [0], [0], 1, 2)  # overlap


@pytest.mark.parametrize(
    "call",
    [
        lambda g, s, t: epsilon(g, s, t),
        lambda g, s, t: theta(g, s, t, 1, 3),
        lambda g, s, t: deficiency_witness(g, s + t, 1, 3),
        lambda g, s, t: factor_deficiency_witness(g, s + t, 1, 2),
    ],
    ids=["epsilon", "theta", "deficiency_witness", "factor_deficiency_witness"],
)
def test_vertex_sets_take_integers_only(call):
    # a float vertex raises instead of truncating to its neighbour; numpy integers are integers
    g = complete(4)
    for s, t in (([0.5], [1]), ([0], [1.9]), ([np.float64(2.0)], [1])):
        with pytest.raises(TypeError):
            call(g, s, t)
    assert call(g, [np.int64(0)], [np.uint8(1)]) == call(g, [0], [1])


SET_CALLS = {
    "delete_vertices": lambda g, s, t: delete_vertices(g, s + t),
    "cut_count": cut_count,
    "degree_sum_minus": degree_sum_minus,
    "epsilon": epsilon,
    "theta": lambda g, s, t: theta(g, s, t, 1, 3),
    "deficiency_witness": lambda g, s, t: deficiency_witness(g, s + t, 1, 3),
    "factor_deficiency_witness": lambda g, s, t: factor_deficiency_witness(g, s + t, [1, 0, 2, 1, 0, 1, 2, 1], 2),
}


@pytest.mark.parametrize("name", SET_CALLS)
def test_one_error_rule_for_vertex_sets(name):
    # every function that takes S or T names the first out-of-range vertex in input
    # order, and reads a set as a set: order and repeats change nothing
    call = SET_CALLS[name]
    g = gnp(8, 0.5, random.Random(11))
    n = g.n
    with pytest.raises(ValueError, match=f"^vertex {n + 5} in S out of range for n={n}$"):
        call(g, [0, n + 5, n + 1], [])
    if name not in ("delete_vertices", "deficiency_witness", "factor_deficiency_witness"):
        with pytest.raises(ValueError, match=f"^vertex {n + 5} in T out of range for n={n}$"):
            call(g, [0], [n + 5, n + 1])
    assert call(g, [6, 0, 6, 2], [5, 3, 5]) == call(g, [0, 2, 6], [3, 5])


def test_epsilon_cases():
    g = path_graph(4)
    assert epsilon(g, [], [1, 2]) == 2  # edge inside T
    assert epsilon(g, [], [0]) == 1  # neighbor outside S and T
    assert epsilon(g, [1], [0]) == 0  # isolated after removing S
    assert epsilon(g, [], []) == 0
    assert epsilon(extremal(7, 1), [], [6]) == 1
    with pytest.raises(ValueError):
        epsilon(g, [1], [1, 2])


def test_epsilon_at_most_two_and_t_size():
    rng = random.Random(71)
    for _ in range(60):
        g = gnp(rng.randint(1, 9), rng.random(), rng)
        verts = list(range(g.n))
        rng.shuffle(verts)
        k = rng.randint(0, g.n)
        m = rng.randint(0, g.n - k)
        s, t = verts[:k], verts[k : k + m]
        assert epsilon(g, s, t) <= min(2, len(t))


# --- derived witnesses -------------------------------------------------------


def test_deficiency_witness_extremal():
    w = deficiency_witness(extremal(7, 1), [], 1, 3)
    assert w.s == () and w.t == (6,)
    assert w.theta == 0 and w.epsilon == 1
    assert w.rule == "deleted" and not w.satisfied
    assert w.to_json() == {"S": [], "T": [6], "theta": 0, "epsilon": 1, "rule": "deleted"}


def test_deficiency_witness_satisfied_case():
    w = deficiency_witness(complete(7), [], 1, 3)
    assert w.t == () and w.theta == 0 and w.epsilon == 0 and w.satisfied


def test_witnesses_recompute_from_scratch():
    # the four criterion functions against explicit loops over has_edge and degree, on
    # random S given unsorted and with repeats; per-vertex bounds for the factor rule
    rng = random.Random(73)
    outcomes = set()
    for n in range(1, 13):
        for _ in range(25):
            g = gnp(n, rng.choice([0.2, 0.5, 0.8]), rng)
            s = [rng.randrange(n) for _ in range(rng.randint(0, n))]
            s_sorted = tuple(sorted(set(s)))
            a = rng.randint(1, 3)
            b = a + rng.randint(0, 2)
            t = low_degree_set(g, s, [a + 1] * n)
            th, ep = theta_by_loops(g, s, t, [b] * n, [a] * n), epsilon_by_loops(g, s, t)
            assert deficiency_witness(g, s, a, b) == DeficiencyWitness(s_sorted, t, th, ep, "deleted", th >= ep)
            outcomes.add(("deleted", th >= ep))
            # theta and epsilon on an explicit T: the derived one, and a random one off S, repeats included
            rest = [v for v in range(n) if v not in s_sorted]
            for t in (t, rng.sample(rest, rng.randint(0, len(rest))) * 2):
                assert theta(g, s, t, a, b) == theta_by_loops(g, s, t, [b] * n, [a] * n)
                assert epsilon(g, s, t) == epsilon_by_loops(g, s, t)
            gv = [rng.randint(0, 3) for _ in range(n)]
            fv = [x + rng.randint(0, 2) for x in gv]
            t = low_degree_set(g, s, gv)
            th = theta_by_loops(g, s, t, fv, gv)
            assert factor_deficiency_witness(g, s, gv, fv) == DeficiencyWitness(s_sorted, t, th, 0, "factor", th >= 0)
            outcomes.add(("factor", th >= 0))
    assert len(outcomes) == 4


def test_fractional_factor_small_cases():
    assert has_fractional_gf_factor(cycle_graph(5), 1, 1)[0]
    ok, w = has_fractional_gf_factor(star_graph(3), 1, 1)
    assert not ok
    assert w.rule == "factor" and w.epsilon == 0
    assert w.s == (0,) and w.t == (1, 2, 3) and w.theta == -2
    ok, _ = has_fractional_gf_factor(complete(4), 2, 3)
    assert ok


def test_fractional_factor_per_vertex_bounds():
    g = cycle_graph(6)
    assert has_fractional_gf_factor(g, g.degrees(), g.degrees())[0]
    assert has_fractional_gf_factor(g, 0, 0)[0]
    assert has_fractional_gf_factor(g, [0, 1, 0, 2, 0, 1], 2)[0]
    ok, w = has_fractional_gf_factor(Graph(2), 1, 1)
    assert not ok and w.s == ()


def test_bounds_validation():
    g = complete(3)
    with pytest.raises(ValueError):
        has_fractional_gf_factor(g, 2, 1)
    with pytest.raises(ValueError):
        has_fractional_gf_factor(g, -1, 1)
    with pytest.raises(ValueError):
        has_fractional_gf_factor(g, [1, 1], 1)
    with pytest.raises(ValueError):
        has_fractional_gf_factor(Graph(0), 1, 1)


@pytest.mark.parametrize(
    "lo, hi",
    [([1.5] * 5, 3), ([0.9] * 5, [3] * 5), (1.5, 3), (1, 3.0), ([1] * 4 + [1.0], 3), (np.float64(1.0), 3)],
)
def test_bounds_take_integers_only(lo, hi):
    # a float bound raises instead of truncating to the g = 1 or g = 0 question
    g = complete(5)
    for call in (find_fractional_factor, has_fractional_gf_factor, lambda g, lo, hi: factor_deficiency_witness(g, [], lo, hi)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(g, lo, hi)


def test_a_and_b_take_numpy_integers():
    # the bounds path already took numpy integers; a and b take them too, and the reports stay plain ints
    for graph in (complete(5), extremal(7, 1)):
        want = is_fractional_ab_deleted(graph, 1, 3)
        got = is_fractional_ab_deleted(graph, np.int64(1), np.int32(3))
        assert got == want
        if got[1] is not None:
            assert json.dumps(got[1].to_json()) == json.dumps(want[1].to_json())
    assert theta(complete(5), [0], [1], np.int64(3), np.int64(3)) == 3
    witness = deficiency_witness(extremal(7, 1), [], np.int8(1), np.int16(3))
    assert type(witness.theta) is int and witness == deficiency_witness(extremal(7, 1), [], 1, 3)
    for a, b in ((1.0, 3), (1, 3.0), ("1", 3), (None, 3), (np.float64(1.0), 3)):
        with pytest.raises(ValueError, match="a and b must be integers"):
            is_fractional_ab_deleted(complete(5), a, b)


# --- deleted criterion ---------------------------------------------------------


def test_deleted_pinned_examples():
    assert is_fractional_ab_deleted(cycle_graph(4), 1, 1) == (True, None)
    assert is_fractional_ab_deleted(complete(5), 3, 3) == (True, None)
    ok, w = is_fractional_ab_deleted(extremal(7, 1), 1, 3)
    assert not ok
    assert (w.s, w.t, w.theta, w.epsilon) == ((), (6,), 0, 1)


def test_deleted_edgeless_is_vacuously_true():
    assert is_fractional_ab_deleted(Graph(4), 1, 3) == (True, None)
    assert is_fractional_ab_deleted(Graph(1), 2, 3) == (True, None)
    assert is_fractional_ab_deleted_by_edges(Graph(4), 1, 3)


def test_deleted_routes_agree_randomized():
    rng = random.Random(79)
    for _ in range(150):
        g = gnp(rng.randint(1, 8), rng.choice([0.25, 0.5, 0.85]), rng)
        a = rng.randint(1, 3)
        b = a + rng.randint(0, 2)
        v1, _ = is_fractional_ab_deleted(g, a, b)
        v2 = is_fractional_ab_deleted_by_edges(g, a, b)
        assert v1 == v2, (g, a, b)


def test_deleted_monotone_in_b():
    rng = random.Random(83)
    for _ in range(60):
        g = gnp(rng.randint(2, 8), 0.5, rng)
        a = rng.randint(1, 3)
        b = a + rng.randint(0, 1)
        if is_fractional_ab_deleted(g, a, b)[0]:
            assert is_fractional_ab_deleted(g, a, b + 1)[0]


def test_deleted_extension_property():
    # a deleted graph with at least one edge has a full fractional factor
    rng = random.Random(89)
    for _ in range(60):
        g = gnp(rng.randint(2, 8), 0.6, rng)
        a = rng.randint(1, 3)
        b = max(a, rng.randint(1, 4))
        if g.edge_count >= 1 and is_fractional_ab_deleted(g, a, b)[0]:
            assert has_fractional_gf_factor(g, a, b)[0]


def test_reported_witness_is_first_in_size_lex_order():
    rng = random.Random(97)
    checked = 0
    for _ in range(120):
        g = gnp(rng.randint(1, 7), rng.choice([0.2, 0.4]), rng)
        if g.edge_count == 0:
            continue
        a = rng.randint(1, 3)
        b = a + rng.randint(0, 1)
        ok, w = is_fractional_ab_deleted(g, a, b)
        if ok:
            continue
        checked += 1
        expected = None
        for k in range(g.n + 1):
            for s in combinations(range(g.n), k):
                cand = deficiency_witness(g, s, a, b)
                if not cand.satisfied:
                    expected = cand
                    break
            if expected is not None:
                break
        assert w == expected
    assert checked > 10


# Witness ordering on planted graphs. Each plants hub vertices (the expected S)
# that share pendant vertices, over a random core, so that every S earlier in
# (size, lex) order passes. Of these, all but the n = 14 ones have S past the
# first 2^15 subset masks. Some also fail at a numerically smaller mask that
# comes later in (size, lex) order: {5, 6} and {4, 7} in another mask chunk,
# {1, 2} in the same one. Expected witnesses were computed by enumerating S as
# sorted tuples in (size, lex) order. Both tables hold the complete split graphs
# K_s ∨ (s+1)K_1, s = 3..7, where |S| = s = (n - 1)/2: the first violating S
# is the hub, which leaves s + 1 isolated vertices.
SPLIT = [
    (to_graph6(join(complete(s), Graph(s + 1))), 1, 1,
     {"S": list(range(s)), "T": list(range(s, 2 * s + 1)), "theta": -1, "epsilon": 0})
    for s in range(3, 8)
]
ORDERING_DELETED = [
    ("MB_ICH_P_Kk?`?oc?", 1, 1, {"S": [0, 5], "T": [4, 7, 12], "theta": -1, "epsilon": 0}),
    ("PGWXYxYZzuO?T{^ql|RZvbzs", 1, 1, {"S": [16], "T": [0, 11], "theta": 1, "epsilon": 2}),
    ("Q^b^p{GAF}^HA?nrYonUQVrMA}?", 1, 1, {"S": [4, 17], "T": [8, 9, 12], "theta": -1, "epsilon": 0}),
    ("Q[F??NqwGKIe@_[lA?FdIIGWO?G", 1, 1, {"S": [3, 16], "T": [4, 14, 17], "theta": -1, "epsilon": 0}),
    ("SJtvw@s?@|^dlhpHVtaicnjjubW??_y_[", 1, 1, {"S": [15, 19], "T": [7, 9, 18], "theta": -1, "epsilon": 0}),
] + SPLIT + [
    # several violators of the least size, the lex-first not the numerically largest: Dhs has
    # three, and the largest is (2, 4); Dbg has five, and the largest is (3, 4)
    ("Dhs", 1, 1, {"S": [1, 3], "T": [0, 2, 4], "theta": 1, "epsilon": 2}),
    ("Dbg", 1, 1, {"S": [0, 2], "T": [1, 3, 4], "theta": 1, "epsilon": 2}),
]
ORDERING_FACTOR = [
    ("MDo[Hx_tR?K?`?`??", 1, 1, {"S": [0, 5], "T": [6, 12, 13], "theta": -1, "epsilon": 0}),
    ("PNJ\\^UwXw?J{}c??R{tVUn|G", 1, 1, {"S": [15], "T": [10, 13], "theta": -1, "epsilon": 0}),
    ("Q~zg???mFoLBnF|Evby?N~{Ts\\w", 1, 2, {"S": [16], "T": [6, 7, 8], "theta": -1, "epsilon": 0}),
    ("StsxjyzF]ft~G?G?Vq`??vKH{{g`UnNwO", 1, 1, {"S": [2, 18], "T": [12, 13, 15], "theta": -1, "epsilon": 0}),
    ("Sm?IChZOEvG?ugu?zL]pTuioH??Q?@c}O", 1, 1, {"S": [1, 19], "T": [2, 9, 11], "theta": -1, "epsilon": 0}),
] + SPLIT


@pytest.mark.parametrize("g6, a, b, expected", ORDERING_DELETED)
def test_deleted_witness_order_on_planted_graphs(g6, a, b, expected):
    ok, w = is_fractional_ab_deleted(parse_graph6(g6), a, b)
    assert not ok and w.to_json() == {**expected, "rule": "deleted"}


@pytest.mark.parametrize("g6, lo, hi, expected", ORDERING_FACTOR)
def test_factor_witness_order_on_planted_graphs(g6, lo, hi, expected):
    ok, w = has_fractional_gf_factor(parse_graph6(g6), lo, hi)
    assert not ok and w.to_json() == {**expected, "rule": "factor"}


def test_deleted_verdict_and_witness_match_the_subset_criterion():
    # the public decider answers true by repairing double-cover factors and runs the
    # subset scan only for a refutation's witness; both must equal the scan alone
    rng = random.Random(5501)
    graphs = [(parse_graph6(g6), a, b) for g6, a, b, _ in ORDERING_DELETED]  # planted |S| >= 1
    for n in range(10, 21):
        graphs.append((gnp(n, 0.3, rng), 3, 3))  # a vertex of degree <= 3: refuted at S = {}
        graphs.append((gnp(n, rng.choice([0.85, 0.95]), rng), 1, 3))
        graphs.append((gnp(n, rng.uniform(0.4, 0.9), rng), rng.randint(1, 3), rng.randint(3, 5)))
    graphs.append((complete(20), 3, 3))
    kinds = set()
    for g, a, b in graphs:
        got = is_fractional_ab_deleted(g, a, b)
        assert got == is_fractional_ab_deleted_by_subsets(g, a, b), (g, a, b)
        kinds.add("true" if got[0] else "empty S" if got[1].s == () else "S nonempty")
    assert kinds == {"true", "empty S", "S nonempty"}


def test_deleted_raises_when_the_subset_scan_finds_no_violation(monkeypatch):
    # refuted at S = {16}, so the S = {} shortcut does not answer and the scan must
    g = parse_graph6("PGWXYxYZzuO?T{^ql|RZvbzs")
    monkeypatch.setattr(oracle, "_subset_decide", lambda *args: (True, None))
    with pytest.raises(RuntimeError, match="no subset S violates"):
        is_fractional_ab_deleted(g, 1, 1)


def test_deleted_raises_when_the_second_factor_is_missing(monkeypatch):
    # F1 lives on the same double cover as F0, so a failed build is a bug, never a verdict.
    # F1 is built on every graph with an F0 that the closed form leaves undecided, at a = b and at a < b
    steered = []  # the greedy starts taken off F0's support
    greedy_start, double_cover_factor = oracle._greedy_start, oracle._double_cover_factor

    def recording(adj, gv, fv, avoid=None):
        start = greedy_start(adj, gv, fv, avoid)
        if avoid:
            steered.append(start)
        return start

    def failing(adj, gv, fv, start):
        return None if any(start is s for s in steered) else double_cover_factor(adj, gv, fv, start)

    monkeypatch.setattr(oracle, "_greedy_start", recording)
    monkeypatch.setattr(oracle, "_double_cover_factor", failing)
    for g, a, b in [(complete(8), 3, 3), (parse_graph6("EXjw"), 1, 2)]:
        with pytest.raises(RuntimeError, match="build of F1 found none"):
            is_fractional_ab_deleted(g, a, b)


# deleted graphs at a < b that the closed form leaves to F0, F1 and repairs; on each, F0 and F1
# share between 1 and 12 edges, so each needs a repair
PAST_CLOSED_FORM = [("EXjw", 1, 2), ("HqcPcIS", 1, 3), ("Fl{Ww", 2, 4), ("Fj~VG", 3, 4), ("HpYvpKT", 2, 3), ("HnpJHVT", 3, 5)]


def closed_form_holds(g, a, b):
    # b(delta - 1) >= a * Delta: weight min(1, b / Delta) on every edge puts each G - e in [a, b]
    degrees = g.degrees()
    return b * (min(degrees) - 1) >= a * max(degrees)


def test_every_repair_ends_in_a_factor_of_the_reduced_double_cover(monkeypatch):
    # a true verdict rests on one double-cover factor per G - e, unless the closed form
    # b(delta - 1) >= a * Delta decides it and nothing is raised. Otherwise, at a < b as at a = b,
    # it is F0 for the edges outside its support, F1 for those outside F1's, and a repaired copy
    # of F0 or of F1 for each edge both use
    states = []  # (adjacency, g, out, into, found) of every raise, which works on out and into in place
    double_cover_factor = oracle._double_cover_factor

    def recording(adj, gv, fv, start):
        found = double_cover_factor(adj, gv, fv, start)
        states.append((adj, gv[0], start[0], start[1], found is not None))
        return found

    monkeypatch.setattr(oracle, "_double_cover_factor", recording)
    rng = random.Random(5504)
    cases = [
        (complete(n) if p is None else gnp(n, p, rng), a, b)
        for n, p, a, b in [
            (9, None, 1, 3), (12, None, 2, 5), (10, 0.8, 1, 3), (14, 0.85, 2, 4), (16, 0.9, 1, 4),
            (16, 0.5, 3, 3), (18, 0.5, 3, 3), (20, 0.5, 4, 4), (18, 0.7, 5, 5),  # a = b: F1 meets F0 more
            (12, 0.6, 1, 2), (16, 0.5, 1, 3), (14, 0.7, 2, 3), (20, 0.5, 2, 4),  # a < b, past the closed form
        ]
    ] + [(parse_graph6(g6), a, b) for g6, a, b in PAST_CLOSED_FORM] + [(complete(3), 1, 2)]  # K_3: b(delta - 1) = a * Delta
    repairs = below_b = closed = 0
    for g, a, b in cases:
        n = g.n
        states.clear()
        assert is_fractional_ab_deleted(g, a, b) == (True, None), (g, a, b)
        if closed_form_holds(g, a, b):
            assert states == [], (g, a, b)  # decided with nothing raised
            closed += 1
            continue
        full = [g.adjacency_mask(v) for v in range(n)]
        factors, repaired = [], set()
        for adj, low, out, into, found in states:
            removed = {(u, v) for u in range(n) for v in range(n) if (full[u] ^ adj[u]) >> v & 1}
            assert found and low == a
            assert all(adj[x] & ~full[x] == 0 for x in range(n))
            assert len(removed) in (0, 2) and {(v, u) for u, v in removed} == removed  # G or G - e
            for x in range(n):
                assert out[x] & ~adj[x] == 0
                assert into[x] == sum(1 << y for y in range(n) if out[y] >> x & 1)
                assert a <= out[x].bit_count() <= b and a <= into[x].bit_count() <= b, (g, a, b, removed)
            if removed:
                repaired.add(min(removed))
            else:
                factors.append(out)
        assert len(factors) == 2 and len(repaired) == len(states) - 2  # F0, F1, one state per repair
        # every edge outside supp(F0) or supp(F1) is covered by that factor; exactly the
        # edges in both supports are repaired
        both = {(u, v) for u, v in g.edges() if all(out[u] >> v & 1 or out[v] >> u & 1 for out in factors)}
        assert repaired == both, (g, a, b)
        if a < b:
            assert len(both) <= 12, (g, a, b, len(both))  # at a < b the two supports share few edges
            below_b += 1
        repairs += len(repaired)
    assert closed == 5 and below_b == 11 and repairs > 20


def test_every_raise_is_at_a_and_a_failed_one_refutes(monkeypatch):
    # at a < b, past the closed form, the verdict comes from F0, F1 and repairs as at a = b: every
    # raise is at g = a, and a raise that fails, F0's build or a repair, proves that some G - e has
    # no fractional [a, b]-factor, so the verdict is False exactly when a raise failed
    raises = []  # (the set of g's values, whether a factor was found) of every raise
    double_cover_factor = oracle._double_cover_factor

    def recording(adj, gv, fv, start):
        found = double_cover_factor(adj, gv, fv, start)
        raises.append((set(gv), found is not None))
        return found

    def decide(g, a, b):
        raises.clear()
        verdict, witness = is_fractional_ab_deleted(g, a, b)
        assert all(low == {a} for low, _ in raises), (g, a, b, raises)  # never at g = a + 1
        assert verdict == all(found for _, found in raises), (g, a, b, raises)
        return verdict, witness

    monkeypatch.setattr(oracle, "_double_cover_factor", recording)
    rng = random.Random(5510)
    kinds = []
    for _ in range(450):
        g = gnp(rng.randint(6, 14), rng.choice([0.5, 0.6, 0.7]), rng)
        a = rng.randint(1, 3)
        b = a + rng.randint(1, 2)
        if not g.edge_count or g.min_degree() <= a:
            continue  # refuted at S = {} before any raise
        verdict = decide(g, a, b)[0]
        if closed_form_holds(g, a, b):
            assert verdict and raises == [], (g, a, b)  # decided with nothing raised
            kinds.append("closed form")
        else:
            assert len(raises) >= 2, (g, a, b)  # F0 and F1 at least
            kinds.append("deleted" if verdict else "refuted")
        assert verdict == all(find_fractional_factor(delete_edge(g, u, v), a, b) for u, v in g.edges()), (g, a, b)
    # these draws: 216 deleted graphs past the closed form and 63 closed-form verdicts; no
    # refutation passes the degree test
    assert kinds.count("deleted") > 200 and kinds.count("closed form") > 50, kinds
    # such refutations are rare; each of these two has an [a, b]-factor, so F0 is built, and a
    # later raise fails
    for g6, a, b, expected in [
        ("FQaFw", 1, 2, {"S": [0, 6], "T": [1, 2, 3, 4, 5], "theta": 1, "epsilon": 2}),
        (r"Gm\NiS", 2, 3, {"S": [1, 4, 6], "T": [0, 2, 3, 5, 7], "theta": 1, "epsilon": 2}),
    ]:
        g = parse_graph6(g6)
        assert g.min_degree() > a and not closed_form_holds(g, a, b) and find_fractional_factor(g, a, b) is not None
        ok, w = decide(g, a, b)
        assert not ok and w.to_json() == {**expected, "rule": "deleted"}
        assert raises[0][1] and not raises[-1][1], raises


def test_closed_form_decides_near_regular_graphs_with_nothing_raised(monkeypatch):
    # past the degree test delta > a, so where b(delta - 1) >= a * Delta the weight
    # c = min(1, b / Delta) on every edge of any G - e gives each vertex a sum in
    # [c(delta - 1), c * Delta], inside [a, b]: G is deleted, with nothing raised or scanned.
    # At a = b it never holds, since it would need delta - 1 >= Delta
    def nothing(*args):
        raise AssertionError("a factor was raised or a subset scanned")

    def decided_in_closed_form(g, a, b):
        with monkeypatch.context() as patched:
            patched.setattr(oracle, "_double_cover_factor", nothing)
            patched.setattr(oracle, "_subset_decide", nothing)
            return is_fractional_ab_deleted(g, a, b)

    rng = random.Random(5512)
    fired = 0
    for _ in range(300):
        g = gnp(rng.randint(3, 12), rng.choice([0.6, 0.8, 0.95]), rng)
        a = rng.randint(1, 3)
        b = a + rng.randint(0, 3)
        if not g.edge_count or g.min_degree() <= a or not closed_form_holds(g, a, b):
            continue
        fired += 1
        assert a < b
        c = min(Fraction(1), Fraction(b, max(g.degrees())))
        for u, v in g.edges():
            g_e = delete_edge(g, u, v)
            assert all(a <= c * d <= b for d in g_e.degrees()), (g, a, b, u, v)
            assert find_fractional_factor(g_e, a, b) is not None, (g, a, b, u, v)
        assert decided_in_closed_form(g, a, b) == (True, None), (g, a, b)
    assert fired > 80, fired  # these draws: 92, and 51 at a = b pass the degree test
    # the boundary: K_3 at (1, 2) has b(delta - 1) = a * Delta, and each G - e is a path in [1, 2]
    k3 = complete(3)
    assert all(find_fractional_factor(delete_edge(k3, u, v), 1, 2) for u, v in k3.edges())
    assert decided_in_closed_form(k3, 1, 2) == (True, None)
    # the near miss: C_5 at (1, 1) has b(delta - 1) = a * Delta - 1, and each C_5 - e is P_5,
    # which has no fractional perfect matching
    c5 = cycle_graph(5)
    assert not closed_form_holds(c5, 1, 1)
    assert not any(find_fractional_factor(delete_edge(c5, u, v), 1, 1) for u, v in c5.edges())
    ok, w = is_fractional_ab_deleted(c5, 1, 1)
    assert not ok and w.to_json() == {"S": [0, 2], "T": [1, 3, 4], "theta": 1, "epsilon": 2, "rule": "deleted"}


def test_true_verdicts_take_few_alternating_searches(monkeypatch):
    # F1 is steered off F0's support, so on K_n only the few edges both factors use
    # are repaired; a repair for every edge of F0 costs over 50 searches on each.
    # K_17 at (2, 3) takes none: the closed form b(delta - 1) >= a * Delta decides it
    calls = []
    augment = oracle._augment

    def counting(*args):
        calls.append(args[5])  # the root
        return augment(*args)

    monkeypatch.setattr(oracle, "_augment", counting)
    for n, a, b, most in [(18, 3, 3, 16), (17, 2, 3, 0)]:
        calls.clear()
        assert is_fractional_ab_deleted(complete(n), a, b) == (True, None)
        assert len(calls) <= most, (n, a, b, len(calls))
    # at a = b the supports overlap on random graphs and repairs dominate: each one
    # starts from the factor holding fewer of the edge's arcs, and a vertex of degree
    # <= a refutes before any factor is built. These twelve draws take 205 searches
    # (9 deleted); repairing from F0 alone takes 244 on the deleted ones, and building
    # factors for the refuted ones another 46
    rng = random.Random(5508)
    graphs = [gnp(16, 0.5, rng) for _ in range(12)]
    calls.clear()
    verdicts = [is_fractional_ab_deleted(g, 3, 3)[0] for g in graphs]
    assert verdicts.count(True) == 9 and len(calls) <= 220, len(calls)


def test_min_degree_at_most_a_refutes_before_any_factor_is_built(monkeypatch):
    # S = {} violates whenever some vertex has degree <= a, and it is first in (size,
    # lex) order, so neither a factor nor the subset scan is needed for the witness
    def no_factor(*args, **kwargs):
        raise AssertionError("a double-cover factor was built")

    monkeypatch.setattr(oracle, "_double_cover_factor", no_factor)
    monkeypatch.setattr(oracle, "_subset_decide", no_factor)
    rng = random.Random(5509)
    refuted = 0
    for _ in range(300):
        g = gnp(rng.randint(1, 16), rng.choice([0.1, 0.3, 0.5, 0.8]), rng)
        a = rng.randint(1, 4)
        b = a + rng.randint(0, 2)
        if g.edge_count and g.min_degree() <= a:
            refuted += 1
            assert is_fractional_ab_deleted(g, a, b) == (False, deficiency_witness(g, (), a, b)), (g, a, b)
    assert refuted > 150
    assert is_fractional_ab_deleted(Graph(5), 2, 3) == (True, None)
    # when every T-vertex is isolated, epsilon is 0 and theta = -a|T| < 0
    ok, w = is_fractional_ab_deleted(disjoint_union(complete(4), Graph(1)), 1, 1)
    assert not ok and (w.s, w.t, w.theta, w.epsilon) == ((), (4,), -1, 0)


def test_deleted_raises_when_the_empty_set_witness_holds(monkeypatch):
    satisfied = oracle.DeficiencyWitness((), (), 0, 0, rule="deleted", satisfied=True)
    monkeypatch.setattr(oracle, "_witness", lambda *args: satisfied)
    with pytest.raises(RuntimeError, match="S = {} satisfies"):
        is_fractional_ab_deleted(path_graph(4), 1, 3)


def test_deleted_agrees_with_per_edge_certificates_where_the_factors_overlap(monkeypatch):
    # at a = b the second factor cannot always avoid the first one's support, so
    # repairs run; each verdict must match a certificate search on every G - e
    builds = []  # per double-cover build: (whether it was F1, whether it found a factor, whether it met supp(F0))
    greedy = {}  # id of each greedy start -> (that start, its avoid masks); a raise from any other start is a repair
    greedy_start, double_cover_factor = oracle._greedy_start, oracle._double_cover_factor

    def steered(adj, gv, fv, avoid=None):
        start = greedy_start(adj, gv, fv, avoid)
        greedy[id(start)] = start, avoid
        return start

    def recording(adj, gv, fv, start):
        found = double_cover_factor(adj, gv, fv, start)
        if id(start) in greedy:
            avoid = greedy[id(start)][1]
            meets = avoid is not None and found is not None and any(a & (o | i) for a, o, i in zip(avoid, *found))
            builds.append((avoid is not None, found is not None, meets))
        return found

    monkeypatch.setattr(oracle, "_greedy_start", steered)
    monkeypatch.setattr(oracle, "_double_cover_factor", recording)
    rng = random.Random(5507)
    cases = []
    for n in range(12, 21):
        for _ in range(4):
            a = rng.randint(1, 4)
            cases.append((gnp(n, rng.uniform(0.35, 0.8), rng), a))
    # a vertex of degree <= a refutes before any factor is built, and these draws with
    # min degree > a are all deleted, so both refutations past the degree test are
    # planted: min degree 2 > a = 1 on each, a repair fails on the first, K_{2,5} has no F0
    cases += [(parse_graph6("PGWXYxYZzuO?T{^ql|RZvbzs"), 1), (join(Graph(2), Graph(5)), 1)]
    kinds = []
    for g, a in cases:
        builds.clear()
        got = is_fractional_ab_deleted(g, a, a)[0]
        overlap = any(meets for _, _, meets in builds)
        kinds.append(
            "true after repairs" if got and overlap
            else "failed repair" if not got and overlap
            else "no F0" if not got and builds == [(False, False, False)]
            else "other"
        )
        per_edge = all(find_fractional_factor(delete_edge(g, u, v), a, a) is not None for u, v in g.edges())
        assert got == per_edge, (g, a)
    assert kinds.count("true after repairs") >= 20 and "failed repair" in kinds and "no F0" in kinds, kinds


# --- flow certificates ---------------------------------------------------------


def test_flow_certificate_matches_subset_test():
    rng = random.Random(101)
    for _ in range(120):
        g = gnp(rng.randint(1, 8), rng.choice([0.3, 0.6, 0.9]), rng)
        if rng.random() < 0.5:
            gl = rng.randint(0, 2)
            fu = gl + rng.randint(0, 2)
        else:
            gl = [rng.randint(0, 2) for _ in range(g.n)]
            fu = [x + rng.randint(0, 2) for x in gl]
        expected = has_fractional_gf_factor(g, gl, fu)[0]
        assignment = find_fractional_factor(g, gl, fu)
        assert (assignment is not None) == expected
        if assignment is not None:
            assert assignment.satisfies(g, gl, fu)
            assert all(h in (0, 1, 2) for h in assignment.halves.values())


def _random_bounds(g, rng):
    """Constant or per-vertex (g, f), with g = 0 and f > deg(v) both common."""
    if rng.random() < 0.5:
        lo = rng.randint(0, 3)
        return lo, lo + rng.randint(0, 3)
    lo = [rng.randint(0, 3) for _ in range(g.n)]
    hi = [x + rng.randint(0, 2) if rng.random() < 0.7 else max(x, g.degree(v) + 1) for v, x in enumerate(lo)]
    return lo, hi


def test_flow_certificate_agrees_with_the_lower_bound_network():
    rng = random.Random(4401)
    infeasible = 0
    seen = set()
    for _ in range(3000):
        n = rng.choice([1, 2, 3, 5, 8, 12, 16, 24, 32, 40]) if rng.random() < 0.3 else rng.randint(1, 12)
        g = gnp(n, rng.choice([0.0, 0.15, 0.3, 0.5, 0.8, 1.0]), rng)
        gl, fu = _random_bounds(g, rng)
        got = find_fractional_factor(g, gl, fu)
        ref = find_fractional_factor_by_flow(g, gl, fu)
        assert (got is None) == (ref is None), (g, gl, fu)
        if got is None:
            infeasible += 1
        else:
            assert got.satisfies(g, gl, fu)
            assert ref.satisfies(g, gl, fu)
        gv = [gl] * n if isinstance(gl, int) else gl
        fv = [fu] * n if isinstance(fu, int) else fu
        seen |= {
            "n=1" if n == 1 else "edgeless" if g.edge_count == 0 else "n>32" if n > 32 else "n<=32",
            "per-vertex" if isinstance(gl, list) else "constant",
        }
        seen |= {"g=0"} if 0 in gv else set()
        seen |= {"f>deg"} if any(fv[v] > g.degree(v) for v in range(n)) else set()
    assert seen == {"n=1", "edgeless", "n>32", "n<=32", "per-vertex", "constant", "g=0", "f>deg"}
    assert 300 < infeasible < 2700


def test_certificate_weights_are_read_off_the_factor_masks(monkeypatch):
    built = []
    real = oracle._double_cover_factor

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(oracle, "_double_cover_factor", recorded)
    rng = random.Random(4411)
    cases = []
    for _ in range(600):
        g = gnp(rng.randint(1, 24), rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]), rng)
        cases.append((g, *_random_bounds(g, rng)))
    for _ in range(3):
        g = gnp(32, 0.5, rng)
        cases += [(delete_edge(g, u, v), 1, 3) for u, v in g.edges()]
    found = 0
    weights = set()
    for g, lo, hi in cases:
        built.clear()
        fa = find_fractional_factor(g, lo, hi)
        assert len(built) == 1 and (fa is None) == (built[0] is None)
        if fa is None:
            continue
        out, _ = built[0]
        assert list(fa.halves.items()) == [((u, v), (out[u] >> v & 1) + (out[v] >> u & 1)) for u, v in g.edges()]
        assert fa.satisfies(g, lo, hi)
        found += 1
        weights |= set(fa.halves.values())
    assert found > 900 and weights == {0, 1, 2}


def _pair_table(fa):
    """fa's numerators keyed (min, max): 0 on every edge of its rows, plus one for every arc of
    out, whether or not the arc lies on an edge."""
    table = {(u, v): 0 for u, row in enumerate(fa.rows) for v in _bits(row) if u < v}
    for u, arcs in enumerate(fa.out):
        for v in _bits(arcs):
            key = (min(u, v), max(u, v))
            table[key] = table.get(key, 0) + 1
    return table


def test_satisfies_agrees_with_the_weight_table_reference():
    rng = random.Random(4421)
    certs = []
    while len(certs) < 600:
        g = gnp(rng.randint(1, 16), rng.choice([0.2, 0.5, 0.8, 1.0]), rng)
        lo, hi = _random_bounds(g, rng)
        fa = find_fractional_factor(g, lo, hi)
        if fa is not None:
            certs.append((g, lo, hi, fa))
    verdicts, flips = set(), set()
    for k, (g, lo, hi, fa) in enumerate(certs):
        assert _pair_table(fa) == fa.halves
        assert fa.satisfies(g, lo, hi) and satisfies_by_halves(fa.halves, g, lo, hi)
        lo2 = [rng.randint(0, 3) for _ in range(g.n)]
        hi2 = [x + rng.randint(0, 3) for x in lo2]
        verdicts.add(fa.satisfies(g, lo2, hi2))
        assert fa.satisfies(g, lo2, hi2) == satisfies_by_halves(fa.halves, g, lo2, hi2)
        if g.n > 1:
            u, v = rng.sample(range(g.n), 2)
            wrong = Graph(g.n, set(g.edges()) ^ {(min(u, v), max(u, v))})  # one pair toggled
            assert not fa.satisfies(wrong, lo, hi) and not satisfies_by_halves(fa.halves, wrong, lo, hi)
        if k % 10:
            continue
        for u in range(g.n):
            for v in range(g.n):  # every bit, on an edge, off one, and u -> u'
                out = list(fa.out)
                out[u] ^= 1 << v
                flipped = FractionalAssignment(fa.rows, tuple(out))
                got = flipped.satisfies(g, lo, hi)
                assert got == satisfies_by_halves(_pair_table(flipped), g, lo, hi), (g, lo, hi, u, v)
                flips.add((bool(g.adjacency_mask(u) >> v & 1), got))
    assert verdicts == {True, False}
    assert flips == {(True, True), (True, False), (False, False)}


def test_per_edge_certificates_of_a_large_graph_are_small():
    g = gnp(32, 0.5, random.Random(29))
    assert g.edge_count == 252
    tracemalloc.start()
    try:
        certs = [find_fractional_factor(delete_edge(g, u, v), 1, 3) for u, v in g.edges()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c is not None for c in certs)
    # a weight table of ~250 tuple-keyed entries per certificate would take several MiB here
    assert peak < 512 * 1024, peak


def certificate_agrees_with_a_graph_without_parent(h, a, b):
    # h's certificate is a factor of h, and there is one exactly when a graph with h's
    # edges and no parent finds one
    got = find_fractional_factor(h, a, b)
    alone = find_fractional_factor(Graph._from_rows(h.n, h._rows), a, b)
    assert (got is None) == (alone is None), (h, a, b)
    assert got is None or got.satisfies(h, a, b), (h, a, b)
    return got


def test_per_edge_certificates_are_repairs_of_the_factor_of_g():
    # a G - e made by delete_edge takes G's factor as it is when that uses neither of e's
    # arcs, a repair of it when it uses one, and nothing when G has no factor. Its certificate
    # must be a factor of G - e, found exactly when a graph with no parent finds one, under
    # bounds that change between calls on one G, with and without G's own certificate built
    # first, on graphs with no factor, down chains of two deletions, and once G is gone
    rng = random.Random(5521)
    kinds = dict.fromkeys(("kept", "repaired", "repair failed", "none in G"), 0)
    chains = 0
    for n in (7, 12, 16, 32):
        for p in (0.3, 0.5, 0.8):
            g = gnp(n, p, rng)
            lo = [rng.randint(0, 3) for _ in range(n)]
            bounds = [(1, 3), (2, 3), (3, 3), (0, 2), (lo, [x + rng.randint(0, 2) for x in lo])]
            for own_first in (False, True):
                for a, b in bounds:
                    if own_first:
                        find_fractional_factor(g, a, b)
                    for k, (u, v) in enumerate(g.edges()):
                        h = delete_edge(g, u, v)
                        got = certificate_agrees_with_a_graph_without_parent(h, a, b)
                        bounds_of_g, factor = g._build
                        assert bounds_of_g == h._build[0] == oracle._bounds_vectors(g, a, b)
                        if factor is None:
                            kind = "none in G"
                        elif factor[0][u] >> v & 1 or factor[0][v] >> u & 1:
                            kind = "repaired" if got is not None else "repair failed"
                        else:
                            kind = "kept"
                        kinds[kind] += 1
                        assert (h._build[1] is factor) == (kind in ("kept", "none in G")), (g, a, b, u, v)
                        if k % 7 or h.edge_count == 0:
                            continue
                        x, y = next(h.edges())
                        for parent in (h, delete_edge(g, u, v)):  # with and without its own factor
                            certificate_agrees_with_a_graph_without_parent(delete_edge(parent, x, y), a, b)
                            chains += 1
    orphan = delete_edge(Graph._from_rows(g.n, g._rows), u, v)
    assert orphan._origin[0]() is None
    certificate_agrees_with_a_graph_without_parent(orphan, 1, 3)
    assert chains > 3000, chains
    assert kinds["kept"] > 9000 and kinds["repaired"] > 1000, kinds
    assert kinds["repair failed"] > 50 and kinds["none in G"] > 200, kinds


def test_a_chain_of_deletions_deeper_than_the_recursion_limit():
    # every graph of the chain is kept alive, so the last one walks up 1 100 parents to K_60,
    # past Python's default limit of 1 000 frames, and repairs its way back down
    g = complete(60)
    chain = [g]
    for u, v in random.Random(5537).sample(list(g.edges()), 1100):
        chain.append(delete_edge(chain[-1], u, v))
    assert certificate_agrees_with_a_graph_without_parent(chain[-1], 1, 3) is not None
    assert all(h._build is not None for h in chain)


def record_greedy_starts(monkeypatch) -> list:
    """The avoid masks of every greedy start from now on, None for a start without them."""
    avoids = []
    greedy_start = oracle._greedy_start

    def recorded(adj, gv, fv, avoid=None):
        avoids.append(avoid)
        return greedy_start(adj, gv, fv, avoid)

    monkeypatch.setattr(oracle, "_greedy_start", recorded)
    return avoids


def test_g_and_every_g_minus_e_share_one_greedy_pass(monkeypatch):
    # the G(32, 1/2) of the CI factor step: G's certificate takes the only greedy pass, and
    # each of its 251 G - e takes or repairs G's factor
    calls = record_greedy_starts(monkeypatch)
    r = random.Random(20260816)
    g = Graph(32, [e for e in combinations(range(32), 2) if r.random() < 0.5])
    for a, b in ((1, 3), (3, 3)):
        calls.clear()
        assert all(find_fractional_factor(delete_edge(g, u, v), a, b) is not None for u, v in g.edges())
        assert g.edge_count == 251 and len(calls) == 1, (a, b, len(calls))


def test_the_decider_and_the_certificate_share_one_greedy_pass(monkeypatch):
    # the decider's F0 is G's certificate factor: deciding G and then certifying it, at the
    # same bounds on one Graph, raises G's factor from one greedy start; only F1's start,
    # taken off F0's support, is the decider's own
    avoids = record_greedy_starts(monkeypatch)
    for g, a, b in [(complete(14), 3, 3), (parse_graph6("EXjw"), 1, 2)]:
        avoids.clear()
        assert not closed_form_holds(g, a, b)
        assert is_fractional_ab_deleted(g, a, b) == (True, None)
        fa = find_fractional_factor(g, a, b)
        assert fa is not None and fa.satisfies(g, a, b)
        assert [avoid is None for avoid in avoids] == [True, False], (g, a, b)


def test_a_g_minus_e_decides_from_a_repair_of_its_parents_factor(monkeypatch):
    # a G - e made by delete_edge, with G's factor memoised, takes F0 from that factor, kept or
    # repaired, so the decider's one greedy start is F1's; the verdict is the one a graph with
    # G - e's edges and no parent gets
    avoids = record_greedy_starts(monkeypatch)
    g = complete(14)
    assert find_fractional_factor(g, 3, 3) is not None
    for u, v in list(g.edges())[::7]:
        h = delete_edge(g, u, v)
        assert not closed_form_holds(h, 3, 3)
        avoids.clear()
        got = is_fractional_ab_deleted(h, 3, 3)
        assert len(avoids) == 1 and avoids[0] is not None, (u, v, avoids)
        assert got == is_fractional_ab_deleted(Graph._from_rows(h.n, h._rows), 3, 3), (u, v)


def test_g_minus_e_searches_only_to_repair_an_arc_of_its_edge(monkeypatch):
    # the same G(32, 1/2): a G - e whose edge carries no arc of G's factor takes that factor
    # with no search. At (1, 3) that is 234 of the 251 G - e, and G plus all of them take 62
    # searches; at (3, 3) 199 take it, and the searches number 102. Raising every G - e from
    # its own greedy start took 504 and 1 498 searches
    calls = []
    augment = oracle._augment

    def counted(*args):
        calls.append(args[5])  # the root
        return augment(*args)

    monkeypatch.setattr(oracle, "_augment", counted)
    r = random.Random(20260816)
    g = Graph(32, [e for e in combinations(range(32), 2) if r.random() < 0.5])
    for (a, b), searches, kept in (((1, 3), 62, 234), ((3, 3), 102, 199)):
        calls.clear()
        assert find_fractional_factor(g, a, b) is not None
        hs = [delete_edge(g, u, v) for u, v in g.edges()]
        assert all(find_fractional_factor(h, a, b).satisfies(h, a, b) for h in hs)
        assert len(calls) == searches, (a, b, len(calls))
        assert sum(h._build[1] is g._build[1] for h in hs) == kept


def test_flow_certificate_repairs_a_greedy_deficit_with_a_long_path():
    # the path 3-0-2-1 with g = f = 1: greedy gives left 0 its lowest neighbour 2',
    # which leaves left 1 (whose only neighbour is 2') with nothing
    g = Graph(4, [(0, 2), (0, 3), (1, 2)])
    adj = [g.adjacency_mask(v) for v in range(4)]
    out, into, short, below = _greedy_start(adj, [1] * 4, [1] * 4)
    assert out[1] == 0
    # left 3's only neighbour 0' went to left 2, so 1 and 3 are short on the left,
    # and 1' and 3', which no left vertex took, on the right
    assert set(_bits(short)) == {1, 3} and set(_bits(below)) == {1, 3}
    assert all((out[u].bit_count() < 1) == (short >> u & 1) for u in range(4))
    assert all((into[v].bit_count() < 1) == (below >> v & 1) for v in range(4))
    # the path 1-2' 2'-0 0-3' is flipped: 1 takes 2', 0 gives up 2' and takes 3'
    assert (out, into) == ([1 << 2, 0, 1 << 0, 0], [1 << 2, 0, 1 << 0, 0])
    assert _augment(adj, [1] * 4, [1] * 4, out, into, 1) is True
    assert (out, into) == ([1 << 3, 1 << 2, 1 << 0, 0], [1 << 2, 0, 1 << 1, 1 << 0])
    fa = find_fractional_factor(g, 1, 1)
    assert fa is not None and fa.satisfies(g, 1, 1)
    assert fa.halves == {(0, 2): 0, (0, 3): 2, (1, 2): 2}


def test_double_cover_factor_matches_the_build_that_visits_every_root(monkeypatch):
    # the greedy start's deficit masks only skip roots that are already at g, so every
    # search, on the same state and in the same order, and every factor stay as they
    # were when each side's raise visited all n vertices
    searches = []
    augment = oracle._augment

    def recording(adj, gv, fv, own, other, root):
        before = tuple(own), tuple(other)
        found = augment(adj, gv, fv, own, other, root)
        searches.append((root, before, tuple(own), tuple(other), found))  # the state each search met, and its flip
        return found

    monkeypatch.setattr(oracle, "_augment", recording)
    rng = random.Random(5513)
    cases = searched = refuted = with_avoid = 0
    for n in (7, 12, 16, 18, 32):
        for p in (0.2, 0.35, 0.5, 0.8):
            for _ in range(3):
                g = gnp(n, p, rng)
                adj = list(g._rows)
                lo = [rng.randint(0, 3) for _ in range(n)]
                for a, b in ((1, 3), (2, 3), (3, 3), (0, 2), (lo, [x + rng.randint(0, 2) for x in lo])):
                    gv, fv = oracle._bounds_vectors(g, a, b)
                    first = reference_double_cover_factor(adj, gv, fv)
                    avoids = [None, [r & rng.getrandbits(n) for r in adj]]
                    if first is not None:
                        avoids.append([o | i for o, i in zip(*first)])
                    for avoid in avoids:
                        searches.clear()
                        want = reference_double_cover_factor(adj, gv, fv, avoid)
                        want_searches = searches.copy()
                        searches.clear()
                        got = oracle._double_cover_factor(adj, gv, fv, _greedy_start(adj, gv, fv, avoid))
                        assert got == want and searches == want_searches, (g, a, b, avoid)
                        cases += 1
                        searched += bool(searches)
                        refuted += got is None
                        with_avoid += avoid is not None
    assert cases == 825 and searched > 500 and refuted > 100 and with_avoid > 500, (cases, searched, refuted, with_avoid)


def test_bounds_vectors_plain_ints_and_their_lookalikes():
    g = cycle_graph(5)
    # the constant fast path keeps the per-vertex check's message, at vertex 0
    for lo, hi in ((3, 2), (-1, 1)):
        with pytest.raises(ValueError) as info:
            find_fractional_factor(g, lo, hi)
        assert str(info.value) == f"need 0 <= g(v) <= f(v) at vertex 0, got {lo}, {hi}"
    with pytest.raises(ValueError, match=r"at vertex 2, got 2, 1"):
        find_fractional_factor(g, [1, 1, 2, 1, 1], 1)
    # bool and numpy integers take the general path and must give the same certificate
    want = find_fractional_factor(g, 1, 2)
    assert want is not None
    for lo, hi in ((True, 2), (np.int64(1), np.int64(2)), (1, np.int64(2)), ([1] * 5, (2,) * 5)):
        assert find_fractional_factor(g, lo, hi) == want, (lo, hi)
        assert want.satisfies(g, lo, hi)
    assert find_fractional_factor(g, False, True) == find_fractional_factor(g, 0, 1)


def test_flow_certificate_hall_exit():
    # K_{1,3} with g = f = 1: from left 2 the search reaches X = {1, 2} on the left
    # and Y = {0} on the right, and g(X) = 2 > f(Y) + e(X, outside Y) = 1 + 0
    g = star_graph(3)
    adj = [g.adjacency_mask(v) for v in range(4)]
    out, into, short, below = _greedy_start(adj, [1] * 4, [1] * 4)
    assert (out[2], out[3]) == (0, 0)
    assert set(_bits(short)) == {2, 3} and set(_bits(below)) == {2, 3}  # right 0' took left 1, 1' took left 0
    state = out.copy(), into.copy()
    assert _augment(adj, [1] * 4, [1] * 4, out, into, 2) is False
    assert (out, into) == state  # a failed search flips nothing
    x, y = {1, 2}, {0}
    assert len(x) > len(y) + sum(1 for u in x for v in g.neighbors(u) if v not in y)
    assert find_fractional_factor(g, 1, 1) is None
    assert find_fractional_factor_by_flow(g, 1, 1) is None


def test_assignment_accessors():
    g = cycle_graph(4)
    fa = find_fractional_factor(g, 1, 1)
    assert fa is not None
    assert set(fa.halves) == set(g.edges())
    for v in range(4):
        assert fa.vertex_numerator(v) == 2
    u, w = next(iter(g.edges()))
    assert fa.weight(u, w) == fa.weight(w, u) == Fraction(fa.halves[(u, w)], 2)
    data = fa.to_json()
    assert data["denominator"] == 2
    assert sorted(tuple(e[:2]) for e in data["weights"]) == sorted(g.edges())
    assert not fa.satisfies(g, 2, 2)
    assert not fa.satisfies(delete_edge(g, u, w), 1, 1)
    for x, y in ((0, 2), (1, 3), (0, 0), (0, 4), (-1, 0)):
        with pytest.raises(KeyError):
            fa.weight(x, y)
    for v in (-1, -4, 4):  # no shift by a negative count, no wrap-around from the end
        with pytest.raises(IndexError):
            fa.vertex_numerator(v)
    # the two orientations of C_4: the same weights from different arcs, so not equal
    forward = FractionalAssignment(g._rows, tuple(1 << (v + 1) % 4 for v in range(4)))
    backward = FractionalAssignment(g._rows, tuple(1 << (v - 1) % 4 for v in range(4)))
    assert forward.halves == backward.halves == dict.fromkeys(g.edges(), 1)
    assert forward != backward and forward == FractionalAssignment(g._rows, forward.out)
    assert forward.satisfies(g, 1, 1) and backward.satisfies(g, 1, 1)
    # numpy integers name the same vertices, past 63 too
    big = find_fractional_factor(complete(70), 1, 3)
    assert big.weight(np.int64(0), np.int64(65)) == big.weight(0, 65) == Fraction(big.halves[(0, 65)], 2)
    assert big.vertex_numerator(np.int64(65)) == big.vertex_numerator(65)
    with pytest.raises(IndexError):
        big.vertex_numerator(np.int64(70))
    with pytest.raises(TypeError):  # a float is not a vertex, and is not truncated to one
        big.weight(0.5, 1)


def test_flow_certificate_infeasible():
    assert find_fractional_factor(star_graph(3), 1, 1) is None
    assert find_fractional_factor(Graph(3), 1, 1) is None
    fa = find_fractional_factor(Graph(3), 0, 0)
    assert fa is not None and fa.halves == {}


# --- integer factors ------------------------------------------------------------


def test_lovasz_small_cases():
    assert has_gf_factor_lovasz(complete(2), 1, 1)
    assert not has_gf_factor_lovasz(cycle_graph(5), 1, 1)
    assert has_gf_factor_lovasz(cycle_graph(5), 1, 2)
    assert has_gf_factor_lovasz(cycle_graph(6), 1, 1)
    assert not has_gf_factor_lovasz(star_graph(3), 1, 1)
    assert has_gf_factor_lovasz(Graph(3), 0, 0)


def test_lovasz_matches_brute_force_matching():
    rng = random.Random(103)
    for _ in range(150):
        g = gnp(rng.randint(2, 7), rng.choice([0.3, 0.6]), rng)
        assert has_gf_factor_lovasz(g, 1, 1) == has_perfect_matching(g)


def test_lovasz_implies_fractional():
    rng = random.Random(107)
    for _ in range(80):
        g = gnp(rng.randint(2, 8), 0.5, rng)
        gl = rng.randint(0, 2)
        fu = gl + rng.randint(0, 1)
        if has_gf_factor_lovasz(g, gl, fu):
            assert has_fractional_gf_factor(g, gl, fu)[0]


def test_lovasz_disconnected():
    two_triangles = disjoint_union(complete(3), complete(3))
    assert has_gf_factor_lovasz(two_triangles, 2, 2)
    # the odd component cannot be perfectly matched even though the even one can
    assert not has_gf_factor_lovasz(disjoint_union(complete(3), complete(2)), 1, 1)


# --- size guards ------------------------------------------------------------------


def test_subset_guard():
    g = path_graph(25)
    # delta <= a is refuted at S = {} before the guard, at any n
    assert is_fractional_ab_deleted(g, 1, 3) == (False, deficiency_witness(g, (), 1, 3))
    with pytest.raises(SizeGuardError):
        is_fractional_ab_deleted(cycle_graph(25), 1, 3)  # delta > a: the guard still applies
    with pytest.raises(SizeGuardError):
        has_fractional_gf_factor(g, 1, 3)
    with pytest.raises(SizeGuardError):
        is_fractional_ab_deleted_by_edges(g, 1, 3)
    # tighter override refuses smaller graphs; looser one admits them
    with pytest.raises(SizeGuardError):
        is_fractional_ab_deleted(cycle_graph(10), 1, 3, max_n=9)
    assert is_fractional_ab_deleted(cycle_graph(10), 1, 3, max_n=10) == (True, None)
    assert is_fractional_ab_deleted(path_graph(10), 1, 3, max_n=9)[0] is False
    # no override lifts the 2^n routes past the 63-bit subset masks
    with pytest.raises(SizeGuardError):
        is_fractional_ab_deleted(complete(64), 1, 3, max_n=64)


def test_pair_guard():
    g = path_graph(13)
    with pytest.raises(SizeGuardError):
        has_gf_factor_lovasz(g, 1, 1)
    with pytest.raises(SizeGuardError):
        has_gf_factor_lovasz(path_graph(8), 1, 1, max_n=7)
    # flow route has no guard
    assert find_fractional_factor(path_graph(30), 0, 1) is not None
