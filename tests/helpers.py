"""Shared test helpers: seeded random graphs, brute-force oracles, a solve counter and a LAPACK solver.

The cross-check oracles here (the per-edge definition of "deleted", the
subset criterion alone, T, theta and epsilon as explicit loops over
``has_edge`` and ``degree``, the lower-bound flow network for fractional factors
solved by networkx's max-flow, the weight-table check of a certificate, the
double-cover build that visits every vertex as a root, the 3^n integer
(g, f)-factor test and the edge-list enumeration of dense graphs) are the
references the tests compare the library's routes against; the library
itself does not use them, except that it reports a refutation's witness
through the same subset scan. ``eigh_top_pairs`` meets the contract of the
package's solver seam by LAPACK, so the contract tests hold it to the same
assertions.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

import fracdel.spectral
from fracdel import ConvergenceError, Graph, SizeGuardError, delete_edge, has_fractional_gf_factor, is_connected, oracle
from fracdel.graph import _bits
from fracdel.oracle import (
    FractionalAssignment,
    _bounds_vectors,
    _check_subset_guard,
    _require_vertices,
    _subset_decide,
    _validate_ab,
)

PAIR_GUARD = 12  # 3^n (S, T) pair enumeration refused above this without an override


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def count_solves(monkeypatch) -> list[int]:
    """The order of every matrix the solver seam ``_top_pairs`` is handed from now on, one entry a stacked matrix."""
    solves = []
    real = fracdel.spectral._top_pairs

    def counted(m):
        solves.extend([m.shape[-1]] * len(m))
        return real(m)

    monkeypatch.setattr(fracdel.spectral, "_top_pairs", counted)
    return solves


def planted(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues, in a random orthonormal basis drawn from rng."""
    basis, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    m = basis @ np.diag(eigenvalues) @ basis.T
    return (m + m.T) / 2


def eigh_top_pairs(m: np.ndarray) -> list[tuple[float, float]]:
    """``fracdel.spectral._top_pairs``'s contract met by LAPACK: (top eigenvalue, error bound) per matrix of m.

    The value is theta = x'Mx / x'x for eigh's top vector x, and never exceeds
    the top eigenvalue. eigh's eigenvalues are taken to be within
    err = n 2^-52 |M|_F of M's, so alpha = lambda_2 + err bounds all but the top
    one. Where theta > alpha the bound is the Kato-Temple width
    |r|^2 / (x'x (theta - alpha)), r = Mx - theta x; at a repeated top it is
    the larger of |r| / |x| and lambda_1 + err - theta. A bound above
    ``DEFAULT_TOL``, read at call time, or non-finite input raises ConvergenceError.
    """
    if not np.isfinite(m).all():
        raise ConvergenceError("non-finite input", math.nan)
    values, vectors = np.linalg.eigh(m)
    pairs = []
    for mj, lam, x in zip(m, values, vectors[..., -1]):
        mx = mj @ x
        xx = float(x @ x)
        theta = float(x @ mx) / xx
        r = mx - theta * x
        rr = float(r @ r)
        err = len(mj) * 2.0**-52 * float(np.linalg.norm(mj))
        alpha = float(lam[-2]) + err if len(mj) > 1 else -math.inf
        if theta > alpha:
            bound = rr / (xx * (theta - alpha))
        else:
            bound = max(math.sqrt(rr / xx), float(lam[-1]) + err - theta)
        if not bound <= fracdel.spectral.DEFAULT_TOL:
            raise ConvergenceError("eigh's top pair is not certified within tol", bound)
        pairs.append((theta, bound))
    return pairs


def graphs_with_min_edges_by_edge_list(n: int, min_edges: int) -> Iterator[Graph]:
    """``theorems.graphs_with_min_edges`` written through the edge-list constructor: the order reference."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    pairs = list(combinations(range(n), 2))
    total = len(pairs)
    if min_edges > total:
        return
    for k in range(total - min_edges + 1):
        for missing in combinations(range(total), k):
            missing_set = set(missing)
            yield Graph(n, (pairs[i] for i in range(total) if i not in missing_set))


def random_connected(n: int, p: float, rng: random.Random) -> Graph:
    while True:
        g = gnp(n, p, rng)
        if is_connected(g) and g.n > 0:
            return g


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def graph6_head(n: int) -> str:
    """The 4-byte graph6 size field of n, with no payload."""
    return "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def has_perfect_matching(g: Graph) -> bool:
    """Brute-force matcher over vertex bitmasks, memoized."""
    if g.n % 2:
        return False
    memo: dict[int, bool] = {}

    def solve(mask: int) -> bool:
        if mask == 0:
            return True
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        ok = False
        nbrs = g.adjacency_mask(v) & rest
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            if solve(rest ^ (1 << u)):
                ok = True
                break
        memo[mask] = ok
        return ok

    return solve(g.full_mask())


def is_fractional_ab_deleted_by_edges(graph: Graph, a: int, b: int, max_n: int | None = None) -> bool:
    """The definition, verbatim: test G - e for every edge e. Vacuously true when edgeless."""
    _validate_ab(a, b)
    _require_vertices(graph)
    _check_subset_guard(graph.n, max_n)
    for u, v in graph.edges():
        ok, _ = has_fractional_gf_factor(delete_edge(graph, u, v), a, b, max_n=max_n)
        if not ok:
            return False
    return True


def is_fractional_ab_deleted_by_subsets(graph: Graph, a: int, b: int, max_n: int | None = None):
    """The subset criterion alone, over all 2^n masks, with no double-cover shortcut.
    Vacuously true when edgeless."""
    _validate_ab(a, b)
    _require_vertices(graph)
    _check_subset_guard(graph.n, max_n)
    if graph.edge_count == 0:
        return True, None
    n = graph.n
    return _subset_decide(graph, (b,) * n, (a,) * n, "deleted")


def degree_minus(graph: Graph, v: int, s) -> int:
    """d_{G-S}(v), counted with ``has_edge``."""
    return graph.degree(v) - sum(graph.has_edge(v, u) for u in set(s))


def low_degree_set(graph: Graph, s, below: Sequence[int]) -> tuple[int, ...]:
    """Reference for the derived T: the vertices v outside S with d_{G-S}(v) < below[v], in increasing order."""
    s = set(s)
    return tuple(v for v in range(graph.n) if v not in s and degree_minus(graph, v, s) < below[v])


def theta_by_loops(graph: Graph, s, t, f: Sequence[int], g: Sequence[int]) -> int:
    """Reference for theta: f(S) + d_{G-S}(T) - g(T), with per-vertex f and g."""
    s, t = set(s), set(t)
    return sum(f[v] for v in s) + sum(degree_minus(graph, v, s) for v in t) - sum(g[v] for v in t)


def epsilon_by_loops(graph: Graph, s, t) -> int:
    """Reference for epsilon: 2 if an edge joins two T-vertices, else 1 if one joins T to
    a vertex outside S u T, else 0."""
    s, t = set(s), set(t)
    if any(graph.has_edge(u, v) for u in t for v in t if u < v):
        return 2
    rest = [w for w in range(graph.n) if w not in s and w not in t]
    return 1 if any(graph.has_edge(v, w) for v in t for w in rest) else 0


def find_fractional_factor_by_flow(graph: Graph, g, f) -> FractionalAssignment | None:
    """Reference for ``find_fractional_factor``: a flow with lower bounds on the double cover, on networkx.

    Each edge uv becomes two unit arcs u -> v' and v -> u', and each vertex
    must pull between g(v) and f(v) on both sides. Integer flows there are
    exactly twice a half-integral factor, and the flow is feasible exactly
    when a fractional (g, f)-factor exists. The lower bounds are sent up
    front: an uncapacitated sink -> source arc closes the circulation, and
    the flow is feasible when networkx's ``maximum_flow`` from a super source
    to a super sink saturates every arc that carries them.
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    n = graph.n
    edges = list(graph.edges())
    source, sink, super_source, super_sink = 0, 1, 2, 3
    left = lambda v: 4 + v
    right = lambda v: 4 + n + v
    arcs = []  # (tail, head, lower, upper)
    for v in range(n):
        arcs.append((source, left(v), gv[v], fv[v]))
        arcs.append((right(v), sink, gv[v], fv[v]))
    for u, v in edges:
        arcs.append((left(u), right(v), 0, 1))
        arcs.append((left(v), right(u), 0, 1))
    net = nx.DiGraph()
    net.add_nodes_from(range(4 + 2 * n))
    net.add_edge(sink, source)  # no capacity attribute: networkx takes it as unbounded
    excess = [0] * (4 + 2 * n)
    for u, v, lower, upper in arcs:
        net.add_edge(u, v, capacity=upper - lower)
        excess[v] += lower
        excess[u] -= lower
    for z, x in enumerate(excess):
        if x > 0:
            net.add_edge(super_source, z, capacity=x)
        elif x < 0:
            net.add_edge(z, super_sink, capacity=-x)
    value, flow = nx.maximum_flow(net, super_source, super_sink)
    if value != sum(x for x in excess if x > 0):
        return None
    out = [0] * n
    for u, v in edges:
        out[u] |= flow[left(u)][right(v)] << v  # the arc u -> v' carries flow
        out[v] |= flow[left(v)][right(u)] << u
    return FractionalAssignment(graph._rows, tuple(out))


def reference_double_cover_factor(adj, gv, fv, avoid=None) -> tuple[list[int], list[int]] | None:
    """Reference for ``oracle._double_cover_factor`` raising ``oracle._greedy_start(adj, gv, fv, avoid)``,
    with no deficit masks passed forward.

    The greedy start rebuilds its masks from the bounds and counts each right
    copy's degree with a popcount, and each side's raise visits every vertex
    in increasing order, checking its degree by popcount. Each search and
    its flip goes through ``oracle._augment``, so a test can record them.
    """
    n = len(adj)
    out, into = [0] * n, [0] * n
    below = sum(1 << v for v in range(n) if gv[v] > 0)
    room = sum(1 << v for v in range(n) if fv[v] > 0)
    for u in range(n):
        rest = adj[u]
        free = rest & ~avoid[u] if avoid else rest
        for _ in range(gv[u]):
            pick = free & below or free & room or rest & below or rest & room
            if not pick:
                break
            low = pick & -pick
            v = low.bit_length() - 1
            out[u] |= low
            free &= ~low
            rest ^= low
            into[v] |= 1 << u
            d = into[v].bit_count()
            if d == gv[v]:
                below ^= low
            if d == fv[v]:
                room ^= low
    for own, other in ((out, into), (into, out)):
        for root in range(n):
            while own[root].bit_count() < gv[root]:
                if not oracle._augment(adj, gv, fv, own, other, root):
                    return None
    return out, into


def satisfies_by_halves(halves: dict[tuple[int, int], int], graph: Graph, g, f) -> bool:
    """Reference for ``FractionalAssignment.satisfies``, on a weight table keyed by vertex pairs:
    the keys are exactly E(G), every numerator is in {0, 1, 2}, and each vertex's
    numerator sum lies in [2g(v), 2f(v)]."""
    gv, fv = _bounds_vectors(graph, g, f)
    if set(halves) != set(graph.edges()):
        return False
    if any(h not in (0, 1, 2) for h in halves.values()):
        return False
    num = [0] * graph.n
    for (x, y), h in halves.items():
        num[x] += h
        num[y] += h
    return all(2 * gv[v] <= num[v] <= 2 * fv[v] for v in range(graph.n))


# --- integer (g, f)-factors --------------------------------------------------


def _mask_sums(vals: Sequence[int]) -> list[int]:
    out = [0] * (1 << len(vals))
    for mask in range(1, 1 << len(vals)):
        low = mask & -mask
        out[mask] = out[mask ^ low] + vals[low.bit_length() - 1]
    return out


def has_gf_factor_lovasz(graph: Graph, g, f, max_n: int | None = None) -> bool:
    """Exact test for an integer (g, f)-factor via the full deficiency form.

    For every disjoint pair (S, T) checks
    f(S) + d_{G-S}(T) - g(T) - q(S, T) >= 0, where q counts components C of
    G - (S u T) with g = f on all of C and f(V(C)) + e(C, T) odd. That is a
    3^n pair scan, so the guard is tighter than for the fractional tests.
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    limit = PAIR_GUARD if max_n is None else max_n
    if graph.n > limit:
        raise SizeGuardError(f"n={graph.n} exceeds the pair-enumeration limit {limit}; pass max_n to override")
    n = graph.n
    rows = [graph.adjacency_mask(v) for v in range(n)]
    full = graph.full_mask()
    gsum = _mask_sums(gv)
    fsum = _mask_sums(fv)
    tight = [gv[v] == fv[v] for v in range(n)]

    comp_cache: dict[int, list[tuple[int, int, bool]]] = {}

    def comp_info(avail: int) -> list[tuple[int, int, bool]]:
        cached = comp_cache.get(avail)
        if cached is not None:
            return cached
        info = []
        rem = avail
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                grow = 0
                for w in _bits(frontier):
                    grow |= rows[w]
                frontier = grow & avail & ~comp
                comp |= frontier
            rem &= ~comp
            info.append((comp, fsum[comp], all(tight[w] for w in _bits(comp))))
        comp_cache[avail] = info
        return info

    for smask in range(1 << n):
        f_s = fsum[smask]
        rem_deg = [(rows[v] & ~smask).bit_count() for v in range(n)]
        compl = full & ~smask
        tmask = compl
        while True:
            d_t = sum(rem_deg[v] for v in _bits(tmask))
            g_t = gsum[tmask]
            q = 0
            for comp, f_c, uniform in comp_info(compl & ~tmask):
                if uniform and (f_c + sum((rows[w] & tmask).bit_count() for w in _bits(comp))) & 1:
                    q += 1
            if f_s + d_t - g_t - q < 0:
                return False
            if tmask == 0:
                break
            tmask = (tmask - 1) & compl
    return True
