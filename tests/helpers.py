"""Shared test helpers: seeded random graphs, brute-force oracles and a solve counter.

The cross-check oracles here (the per-edge definition of "deleted", the
subset criterion alone, the lower-bound flow network for fractional factors
and the 3^n integer (g, f)-factor test) are the references the tests compare
the library's routes against; the library itself does not use them, except
that it reports a refutation's witness through the same subset scan.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

import fracdel.spectral
from fracdel import Graph, SizeGuardError, delete_edge, has_fractional_gf_factor, is_connected
from fracdel.graph import _bits
from fracdel.maxflow import feasible_flow
from fracdel.oracle import (
    FractionalAssignment,
    _bounds_vectors,
    _check_subset_guard,
    _require_vertices,
    _subset_deleted,
    _validate_ab,
)

PAIR_GUARD = 12  # 3^n (S, T) pair enumeration refused above this without an override


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def count_solves(monkeypatch) -> list[int]:
    """The order of every matrix ``spectral_summary`` hands the eigensolver from now on, one entry a solve."""
    solves = []
    real = fracdel.spectral.eigen_max_symmetric

    def counted(m, *args, **kwargs):
        solves.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(fracdel.spectral, "eigen_max_symmetric", counted)
    return solves


def random_connected(n: int, p: float, rng: random.Random) -> Graph:
    while True:
        g = gnp(n, p, rng)
        if is_connected(g) and g.n > 0:
            return g


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
    return _subset_deleted(graph, a, b)


def find_fractional_factor_by_flow(graph: Graph, g, f) -> FractionalAssignment | None:
    """Reference for ``find_fractional_factor``: a flow with lower bounds on the double cover.

    Each edge uv becomes two unit arcs u -> v' and v -> u', and each vertex
    must pull between g(v) and f(v) on both sides. Integer flows there are
    exactly twice a half-integral factor, and the flow is feasible exactly
    when a fractional (g, f)-factor exists.
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    n = graph.n
    edges = list(graph.edges())
    source, sink = 0, 1
    left = lambda v: 2 + v
    right = lambda v: 2 + n + v
    arcs = []
    for v in range(n):
        arcs.append((source, left(v), gv[v], fv[v]))
        arcs.append((right(v), sink, gv[v], fv[v]))
    edge_base = len(arcs)
    for u, v in edges:
        arcs.append((left(u), right(v), 0, 1))
        arcs.append((left(v), right(u), 0, 1))
    flows = feasible_flow(2 + 2 * n, arcs, source, sink)
    if flows is None:
        return None
    halves = {
        (u, v): flows[edge_base + 2 * k] + flows[edge_base + 2 * k + 1]
        for k, (u, v) in enumerate(edges)
    }
    return FractionalAssignment(halves)


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
