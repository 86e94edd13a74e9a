"""Graph type, constructors, and set-based counting operations."""

import copy
import pickle
import random
from itertools import combinations

import numpy as np
import pytest

from fracdel import (
    Graph,
    complete,
    components,
    cut_count,
    degree_sum_minus,
    delete_edge,
    delete_vertices,
    disjoint_union,
    extremal,
    find_fractional_factor,
    is_connected,
    join,
)
from helpers import cycle_graph, gnp, path_graph, star_graph


def test_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.n == 4
    assert g.edge_count == 4
    assert g.degrees() == (2, 2, 2, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(0) == [1, 3]
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert g.min_degree() == 2


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_empty_and_trivial_graphs():
    g0 = Graph(0)
    assert g0.n == 0 and g0.edge_count == 0 and g0.degrees() == ()
    with pytest.raises(ValueError):
        g0.min_degree()
    g1 = Graph(1)
    assert g1.degrees() == (0,) and g1.min_degree() == 0


def test_equality_and_hash():
    g = Graph(3, [(0, 1)])
    h = Graph(3, [(1, 0)])
    assert g == h and hash(g) == hash(h)
    assert g != Graph(3, [(0, 2)])
    assert g != Graph(4, [(0, 1)])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_complete(n):
    g = complete(n)
    assert g.n == n
    assert g.edge_count == n * (n - 1) // 2
    assert all(d == n - 1 for d in g.degrees())


def test_disjoint_union():
    g = disjoint_union(complete(3), path_graph(3))
    assert g.n == 6 and g.edge_count == 5
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)
    assert disjoint_union(Graph(0), complete(4)) == complete(4)
    assert disjoint_union(complete(4), Graph(0)) == complete(4)


def test_join():
    assert join(complete(2), complete(3)) == complete(5)
    g = join(Graph(1), Graph(4))  # star
    assert g.degrees() == (4, 1, 1, 1, 1)
    rng = random.Random(11)
    for _ in range(20):
        g1 = gnp(rng.randint(0, 5), 0.5, rng)
        g2 = gnp(rng.randint(1, 5), 0.5, rng)
        j = join(g1, g2)
        assert j.edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


@pytest.mark.parametrize("n,a", [(7, 1), (8, 2), (9, 3), (10, 1), (5, 3), (6, 4)])
def test_extremal_shape(n, a):
    g = extremal(n, a)
    assert g.n == n
    assert g.edge_count == (n - 1) * (n - 2) // 2 + a
    assert g.min_degree() == a
    assert g.degree(n - 1) == a
    assert set(g.neighbors(n - 1)) == set(range(a))
    # vertices 0..n-2 induce a complete graph
    sub, _ = delete_vertices(g, [n - 1])
    assert sub == complete(n - 1)
    if n >= a + 3:
        assert sum(1 for d in g.degrees() if d == a) == 1
    assert is_connected(g)


def test_extremal_degenerate_has_two_low_vertices():
    g = extremal(5, 3)
    assert sorted(g.degrees(), reverse=True) == [4, 4, 4, 3, 3]


def test_extremal_validation():
    with pytest.raises(ValueError):
        extremal(4, 3)
    with pytest.raises(ValueError):
        extremal(7, 0)


def test_delete_edge():
    g = complete(4)
    h = delete_edge(g, 0, 1)
    assert h.edge_count == 5 and not h.has_edge(0, 1)
    assert g.edge_count == 6  # original untouched
    with pytest.raises(ValueError):
        delete_edge(h, 0, 1)
    # numpy integers name the same edge, past 63 vertices too, and leave plain int rows
    for n in (6, 70):
        big = complete(n)
        h = delete_edge(big, np.int64(0), np.int64(n - 1))
        assert h == delete_edge(big, 0, n - 1) and all(type(r) is int for r in h._rows)
        assert big.has_edge(np.int64(0), np.int64(n - 1)) and not h.has_edge(np.int64(0), np.int64(n - 1))
        assert big.has_edge(np.int64(n - 1), np.int64(1)) and h.has_edge(np.int64(1), np.int64(n - 2))
        with pytest.raises(TypeError):  # a float is not a vertex, and is not truncated to one
            big.has_edge(1.5, 2)
        assert h.edge_count == big.edge_count - 1 and find_fractional_factor(h, 1, 3) is not None
    # nor does delete_edge or Graph() truncate one: int() would delete (0, 1) and make the edge (0, 1)
    with pytest.raises(TypeError):
        delete_edge(complete(4), 0.9, 1.2)
    with pytest.raises(TypeError):
        Graph(3, [(0.7, 1)])
    assert Graph(3, [(np.int64(0), np.int64(1))]) == Graph(3, [(0, 1)])
    # the edge is read off the row masks: a vertex outside 0..n-1, negative too, names no edge
    for u, v in ((0, 4), (-1, 0), (3, -4)):
        with pytest.raises(ValueError, match="not in graph"):
            delete_edge(g, u, v)


def test_delete_edge_remembers_its_parent_outside_its_value():
    g = gnp(12, 0.5, random.Random(7))
    u, v = next(g.edges())
    h = delete_edge(g, u, v)
    same = Graph(12, set(g.edges()) - {(u, v)})
    find_fractional_factor(h, 1, 2)  # fills h's build memo
    assert h._origin[0]() is g and h._build is not None
    assert same._origin is None and same._build is None
    assert h == same and hash(h) == hash(same) and h.edge_count == same.edge_count == g.edge_count - 1
    # a copy or a pickle is the graph alone, without the memos or the parent
    for twin in (copy.copy(h), pickle.loads(pickle.dumps(h))):
        assert twin == h and (twin._origin, twin._build, twin._spectra) == (None, None, None)


def test_delete_vertices():
    g = cycle_graph(5)
    h, relabel = delete_vertices(g, [2])
    assert h.n == 4 and relabel == {0: 0, 1: 1, 3: 2, 4: 3}
    assert set(h.edges()) == {(0, 1), (2, 3), (0, 3)}
    h2, _ = delete_vertices(g, [2])
    assert h == h2
    # order-insensitive
    a1, m1 = delete_vertices(g, [4, 0])
    a2, m2 = delete_vertices(g, [0, 4])
    assert a1 == a2 and m1 == m2
    everything, m = delete_vertices(g, range(5))
    assert everything.n == 0 and m == {}


def test_delete_vertices_random_consistency():
    rng = random.Random(23)
    for _ in range(30):
        g = gnp(rng.randint(1, 9), 0.5, rng)
        s = [v for v in range(g.n) if rng.random() < 0.3]
        h, relabel = delete_vertices(g, s)
        assert h.n == g.n - len(set(s))
        for u, v in combinations(sorted(relabel), 2):
            assert g.has_edge(u, v) == h.has_edge(relabel[u], relabel[v])


def test_cut_count():
    g = extremal(7, 1)
    assert cut_count(g, [6], range(6)) == 1
    assert cut_count(g, range(6), [6]) == 1  # symmetric
    assert cut_count(g, [], [0, 1]) == 0
    with pytest.raises(ValueError):
        cut_count(g, [0, 1], [1, 2])


def test_degree_sum_minus():
    g = extremal(7, 1)
    assert degree_sum_minus(g, [], [6]) == 1
    assert degree_sum_minus(g, [0], [6]) == 0
    with pytest.raises(ValueError):
        degree_sum_minus(g, [3], [3])


@pytest.mark.parametrize(
    "call",
    [
        lambda g, s, t: delete_vertices(g, s + t),
        lambda g, s, t: cut_count(g, s, t),
        lambda g, s, t: degree_sum_minus(g, s, t),
    ],
    ids=["delete_vertices", "cut_count", "degree_sum_minus"],
)
def test_vertex_sets_take_integers_only(call):
    # a float vertex raises instead of truncating to its neighbour; numpy integers are integers
    g = complete(4)
    for s, t in (([0.5], [1]), ([0], [1.9]), ([np.float64(2.0)], [1])):
        with pytest.raises(TypeError):
            call(g, s, t)
    assert call(g, [np.int64(0)], [np.uint8(1)]) == call(g, [0], [1])


def test_degree_sum_minus_identity():
    # d_{G-S}(T) = sum of degrees over T minus the (S, T) cut
    rng = random.Random(37)
    for _ in range(50):
        g = gnp(rng.randint(2, 10), rng.choice([0.3, 0.6, 0.9]), rng)
        verts = list(range(g.n))
        rng.shuffle(verts)
        k = rng.randint(0, g.n)
        s, t = verts[:k], verts[k:]
        direct = degree_sum_minus(g, s, t)
        assert direct == sum(g.degree(v) for v in t) - cut_count(g, s, t)
        # and equals a recount inside the deleted graph
        h, relabel = delete_vertices(g, s)
        assert direct == sum(h.degree(relabel[v]) for v in t)


def test_handshake_on_random_graphs():
    rng = random.Random(41)
    for _ in range(40):
        g = gnp(rng.randint(0, 12), rng.random(), rng)
        assert sum(g.degrees()) == 2 * g.edge_count


def test_edges_in_lexicographic_order():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(0, 70)
        g = gnp(n, rng.choice([0.1, 0.5, 0.9]), rng)
        assert list(g.edges()) == [(u, v) for u, v in combinations(range(n), 2) if g.has_edge(u, v)]


def test_components():
    g = disjoint_union(complete(3), disjoint_union(Graph(1), cycle_graph(4)))
    assert components(g) == [(0, 1, 2), (3,), (4, 5, 6, 7)]
    assert not is_connected(g)
    assert is_connected(cycle_graph(6))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))
    assert components(star_graph(3)) == [(0, 1, 2, 3)]
