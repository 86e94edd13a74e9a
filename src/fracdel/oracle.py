"""Exact deciders for fractional degree-constrained factors and their edge-deleted variants.

A fractional (g, f)-factor of G assigns each edge a weight in [0, 1] so that
every vertex v sees a weighted degree between g(v) and f(v). G is fractional
[a, b]-deleted when G - e has a fractional [a, b]-factor (constant g = a,
f = b) for every single edge e.

Two routes underlie everything here:

* a deficiency criterion over vertex subsets S with a derived low-degree set
  T, scanned over all 2^n masks and refuted by an explicit (S, T) witness
  (``has_fractional_gf_factor``, and ``_subset_deleted`` for "deleted");
* a constructive certificate, a (g, f)-factor of the bipartite double cover
  found by greedy matching and alternating paths on the adjacency bitmasks,
  giving half-integral edge weights that can be rechecked in exact
  arithmetic, or None with a Hall-type proof behind it
  (``find_fractional_factor``). The certificate, a ``FractionalAssignment``,
  is that factor's arc masks: a weight is read from two bits, and the exact
  check is a mask comparison and popcounts, with no per-edge table.

``is_fractional_ab_deleted`` uses both. A vertex of degree <= a refutes G
at S = {} before anything is built. Otherwise a true verdict comes from the
double cover in polynomial time. One factor F0 of G is built; an edge
outside its support leaves F0 a factor of G - e. A second factor F1 is built
with its greedy start steered off F0's support, and covers the edges outside
its own support the same way. Each edge that both F0 and F1 use is dropped
from a fresh copy of whichever of them holds fewer of its two arcs, which
alternating paths then repair; every repair succeeds exactly when G is
deleted. Only a refutation past that runs the 2^n scan, to report the first
violating S in (size, lex) order, and the scan must find one.

The test suite compares these against the definition itself (the
subset-based ``has_fractional_gf_factor`` on G - e for every edge), the
subset criterion alone, per-edge certificates, the integer (g, f)-factor test
and, for the certificate route, a lower-bound flow network solved by
networkx's max-flow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, _bits, degree_sum_minus

__all__ = [
    "SUBSET_GUARD",
    "SizeGuardError",
    "DeficiencyWitness",
    "FractionalAssignment",
    "epsilon",
    "theta",
    "deficiency_witness",
    "factor_deficiency_witness",
    "has_fractional_gf_factor",
    "is_fractional_ab_deleted",
    "find_fractional_factor",
]

SUBSET_GUARD = 24  # 2^n subset enumerations refused above this without an override


class SizeGuardError(RuntimeError):
    """Input too large for an exponential enumeration; pass max_n to override."""


@dataclass(frozen=True)
class DeficiencyWitness:
    """A subset pair (S, T) certifying failure, or recording the checked values.

    T is always derived from S by the rule named in ``rule``: for "deleted",
    T = {v not in S : d_{G-S}(v) <= a} and theta = b|S| + d_{G-S}(T) - a|T|
    must reach epsilon(S, T); for "factor", T = {v not in S : d_{G-S}(v) < g(v)}
    and theta = f(S) + d_{G-S}(T) - g(T) must reach epsilon = 0.
    """

    s: tuple[int, ...]
    t: tuple[int, ...]
    theta: int
    epsilon: int
    rule: str
    satisfied: bool

    def to_json(self) -> dict:
        return {
            "S": list(self.s),
            "T": list(self.t),
            "theta": self.theta,
            "epsilon": self.epsilon,
            "rule": self.rule,
        }


@dataclass(frozen=True, slots=True)
class FractionalAssignment:
    """Half-integral edge weights, held as a factor F of the bipartite double cover.

    ``rows`` are the graph's adjacency masks and ``out`` the left-side arc
    masks of F: bit v of ``out[u]`` is the arc u -> v'. The weight of an
    edge uv is h(uv) / 2 with h(uv) = [u -> v' in F] + [v -> u' in F], a
    numerator in {0, 1, 2}, so all arithmetic on weights stays exact.
    Equality compares (rows, out).
    """

    rows: tuple[int, ...]
    out: tuple[int, ...]

    @property
    def halves(self) -> dict[tuple[int, int], int]:
        """h(uv) for every edge (u, v) with u < v, in lexicographic order; built on each access."""
        out = self.out
        halves = {}
        for u, row in enumerate(self.rows):
            out_u = out[u]
            row &= -2 << u  # neighbours above u, in increasing order
            while row:
                low = row & -row
                v = low.bit_length() - 1
                halves[u, v] = (out_u >> v & 1) + (out[v] >> u & 1)
                row ^= low
        return halves

    def weight(self, u: int, v: int) -> Fraction:
        """h(uv) / 2; KeyError when uv is not an edge."""
        u, v = operator.index(u), operator.index(v)  # a numpy integer past 63 would overflow the shift
        n = len(self.rows)
        if not (0 <= u < n and 0 <= v < n and self.rows[u] >> v & 1):
            raise KeyError((u, v) if u < v else (v, u))
        return Fraction((self.out[u] >> v & 1) + (self.out[v] >> u & 1), 2)

    def vertex_numerator(self, v: int) -> int:
        """Twice the weighted degree of v: its arcs v -> x' plus the arcs x -> v'; IndexError off 0..n-1."""
        v, n = operator.index(v), len(self.out)  # a numpy integer past 63 would overflow the shift
        if not (0 <= v < n):
            raise IndexError(f"vertex {v} out of range for n={n}")
        return self.out[v].bit_count() + sum(o >> v & 1 for o in self.out)

    def satisfies(self, graph: Graph, g, f) -> bool:
        """Exact check: support is E(G), every arc lies on an edge, and every weighted degree lies in [g, f]."""
        gv, fv = _bounds_vectors(graph, g, f)
        rows, out = self.rows, self.out
        if rows != graph._rows or len(out) != len(rows):
            return False
        if any(o & ~r for o, r in zip(out, rows)):
            return False
        num = [o.bit_count() for o in out]
        for o in out:
            for v in _bits(o):
                num[v] += 1
        return all(2 * gv[v] <= num[v] <= 2 * fv[v] for v in range(graph.n))

    def to_json(self) -> dict:
        return {
            "denominator": 2,
            "weights": [[u, v, h] for (u, v), h in self.halves.items()],
        }


def _validate_ab(a: int, b: int) -> tuple[int, int]:
    """a and b as Python ints (numpy's integers too); ValueError unless integers with 1 <= a <= b."""
    try:
        a, b = operator.index(a), operator.index(b)
    except TypeError:
        raise ValueError(f"a and b must be integers, got {a!r}, {b!r}") from None
    if not (1 <= a <= b):
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    return a, b


def _require_vertices(graph: Graph) -> None:
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")


def _vertex_tuple(graph: Graph, vs: Iterable[int], name: str) -> tuple[int, ...]:
    out = sorted({operator.index(v) for v in vs})  # a float raises instead of truncating
    for v in out:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} in {name} out of range for n={graph.n}")
    return tuple(out)


def _bounds_vectors(graph: Graph, g, f) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalize g and f (int constants or per-vertex sequences) to tuples."""
    if type(g) is int and type(f) is int and (0 <= g <= f or not graph.n):
        return _constant(g, graph.n), _constant(f, graph.n)  # the common case; a bad pair falls through to the error below

    def vec(x, name: str) -> tuple[int, ...]:
        if not isinstance(x, Iterable):
            return (operator.index(x),) * graph.n  # a float raises instead of truncating
        xs = tuple(operator.index(v) for v in x)
        if len(xs) != graph.n:
            raise ValueError(f"{name} has length {len(xs)}, expected {graph.n}")
        return xs

    gv, fv = vec(g, "g"), vec(f, "f")
    for v in range(graph.n):
        if not 0 <= gv[v] <= fv[v]:
            raise ValueError(f"need 0 <= g(v) <= f(v) at vertex {v}, got {gv[v]}, {fv[v]}")
    return gv, fv


@lru_cache(maxsize=64)
def _constant(x: int, n: int) -> tuple[int, ...]:
    # one shared tuple per constant bound, so a graph's greedy-start memo does not hold its own copy
    return (x,) * n


def _check_subset_guard(n: int, max_n: int | None) -> None:
    limit = SUBSET_GUARD if max_n is None else max_n
    if n > limit:
        raise SizeGuardError(f"n={n} exceeds the subset-enumeration limit {limit}; pass max_n to override")
    if n > _MASK_BITS:
        raise SizeGuardError(f"n={n} exceeds the {_MASK_BITS}-vertex limit of the subset masks")


# --- subset kernel -----------------------------------------------------------
#
# S runs over 0 .. 2^n - 1 as uint64 masks, _CHUNK at a time. Per chunk, each
# vertex's remaining degree is popcount(adj[v] & ~S), T is built as a mask, and
# theta = f(S) + d_{G-S}(T) - g(T) is exact integer arithmetic. epsilon is
# needed only where theta < 2: it is 2 if some adj[v] & T is nonempty for v in
# T, else 1 if d_{G-S}(T) > 0 (every T-edge then leaves S u T), else 0.
#
# The reported S is the first violation in (size, lex) order: among masks of
# one popcount, the lex-first tuple is the mask whose lowest differing bit is
# set. Numeric order is not that order, so after a violation of size k, later
# chunks are still scanned at masks of popcount <= k; k = 0 stops the scan.

_CHUNK = 1 << 15
_MASK_BITS = 63  # chunk starts must fit in a uint64 below 2^63


def _subset_sums(masks: np.ndarray, vals: Sequence[int]) -> np.ndarray:
    """sum(vals[v] for v in S) for every mask S, one popcount per distinct value."""
    total = np.zeros(len(masks), dtype=np.int64)
    for w in set(vals) - {0}:
        of_w = np.uint64(sum(1 << v for v, x in enumerate(vals) if x == w))
        total += w * np.bitwise_count(masks & of_w).astype(np.int64)
    return total


def _chunk_violations(adj, full, s, below, f, g, with_epsilon) -> np.ndarray:
    """The masks in s whose (S, T) pair violates the criterion."""
    not_s = ~s & full
    t = np.zeros(len(s), dtype=np.uint64)
    d_t = np.zeros(len(s), dtype=np.uint16)  # at most 63 vertices of remaining degree <= 62
    for v, row in enumerate(adj):
        d = np.bitwise_count(row & not_s)
        in_t = (d < below[v]) & ((not_s & np.uint64(1 << v)) != 0)
        t |= in_t.astype(np.uint64) << np.uint64(v)
        d_t += d * in_t
    value = _subset_sums(s, f) + d_t - _subset_sums(t, g)
    if not with_epsilon:
        return s[value < 0]
    near = value < 2
    s, t, value = s[near], t[near], value[near]
    eps = (d_t[near] > 0).astype(np.int64)
    for v, row in enumerate(adj):
        eps[((t & np.uint64(1 << v)) != 0) & ((row & t) != 0)] = 2
    return s[value < eps]


def _subset_decide(graph: Graph, below, f, g, with_epsilon: bool, witness):
    """(True, None), or (False, witness(S)) for the first S in (size, lex) order with
    f(S) + d_{G-S}(T) - g(T) < epsilon(S, T), where T = {v not in S : d_{G-S}(v) < below[v]}.

    epsilon is 0 unless with_epsilon. A witness that passes when recomputed is a kernel bug.
    """
    n = graph.n
    adj = [np.uint64(graph.adjacency_mask(v)) for v in range(n)]
    full = np.uint64(graph.full_mask())
    best = (n + 1, ())  # (|S|, S) of the first violation so far; n + 1 while there is none
    for start in range(0, 1 << n, _CHUNK):
        if start.bit_count() > best[0]:
            continue  # every mask in this chunk has start's bits
        s = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.uint64)
        s = s[np.bitwise_count(s) <= best[0]]
        bad = _chunk_violations(adj, full, s, below, f, g, with_epsilon)
        if len(bad):
            sizes = np.bitwise_count(bad)
            # among one popcount, the lowest differing bit set: max of the bit-reversed masks
            mask = max(bad[sizes == sizes.min()].tolist(), key=lambda m: f"{m:064b}"[::-1])
            best = min(best, (mask.bit_count(), tuple(v for v in range(n) if mask >> v & 1)))
            if best[0] == 0:
                break
    if best[0] > n:
        return True, None
    found = witness(best[1])
    if found.satisfied:
        raise RuntimeError(f"subset kernel reported S={list(found.s)}, which satisfies the {found.rule} criterion")
    return False, found


# --- criterion pieces -------------------------------------------------------


def epsilon(graph: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """2 if T is not independent; else 1 if some T-vertex has a neighbor
    outside S u T; else 0. S and T must be disjoint."""
    st = _vertex_tuple(graph, s, "S")
    tt = _vertex_tuple(graph, t, "T")
    smask = sum(1 << v for v in st)
    tmask = sum(1 << v for v in tt)
    if smask & tmask:
        raise ValueError("S and T must be disjoint")
    if any(graph.adjacency_mask(v) & tmask for v in tt):
        return 2
    rest = graph.full_mask() & ~(smask | tmask)
    if any(graph.adjacency_mask(v) & rest for v in tt):
        return 1
    return 0


def theta(graph: Graph, s: Iterable[int], t: Iterable[int], a: int, b: int) -> int:
    """b|S| + d_{G-S}(T) - a|T| for explicit disjoint S, T."""
    a, b = _validate_ab(a, b)
    st = _vertex_tuple(graph, s, "S")
    tt = _vertex_tuple(graph, t, "T")
    return b * len(st) + degree_sum_minus(graph, st, tt) - a * len(tt)


def _derived_t(graph: Graph, smask: int, below: Sequence[int]) -> tuple[int, ...]:
    return tuple(
        v for v in range(graph.n)
        if not smask >> v & 1 and (graph.adjacency_mask(v) & ~smask).bit_count() < below[v]
    )


def deficiency_witness(graph: Graph, s: Iterable[int], a: int, b: int) -> DeficiencyWitness:
    """Evaluate the deleted-criterion inequality at S with its derived T."""
    a, b = _validate_ab(a, b)
    _require_vertices(graph)
    st = _vertex_tuple(graph, s, "S")
    smask = sum(1 << v for v in st)
    tt = _derived_t(graph, smask, [a + 1] * graph.n)
    th = theta(graph, st, tt, a, b)
    ep = epsilon(graph, st, tt)
    return DeficiencyWitness(st, tt, th, ep, rule="deleted", satisfied=th >= ep)


def factor_deficiency_witness(graph: Graph, s: Iterable[int], g, f) -> DeficiencyWitness:
    """Evaluate the fractional (g, f)-factor inequality at S with its derived T."""
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    st = _vertex_tuple(graph, s, "S")
    smask = sum(1 << v for v in st)
    tt = _derived_t(graph, smask, gv)
    value = sum(fv[v] for v in st) + degree_sum_minus(graph, st, tt) - sum(gv[v] for v in tt)
    return DeficiencyWitness(st, tt, value, 0, rule="factor", satisfied=value >= 0)


# --- deciders ----------------------------------------------------------------


def has_fractional_gf_factor(graph: Graph, g, f, max_n: int | None = None):
    """Exact test for a fractional (g, f)-factor.

    Scans every S (T derived as the strict low-degree set) and checks
    f(S) + d_{G-S}(T) - g(T) >= 0. Returns (True, None) or (False, witness)
    where the witness carries the first violating S in (size, lex) order.
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    _check_subset_guard(graph.n, max_n)
    return _subset_decide(graph, gv, fv, gv, False, lambda s: factor_deficiency_witness(graph, s, gv, fv))


def is_fractional_ab_deleted(graph: Graph, a: int, b: int, max_n: int | None = None):
    """Exact test that G - e has a fractional [a, b]-factor for every edge e.

    An edgeless graph is vacuously deleted (there is no edge to remove) and
    returns (True, None). A false verdict is reported as (False, witness)
    with the first S in (size, lex) order that violates the subset
    criterion: for every S, with the derived T = {v not in S :
    d_{G-S}(v) <= a}, theta(S, T) must reach epsilon(S, T). When the minimum
    degree is <= a, S = {} violates it (T is nonempty and theta(S, T) is
    <= 0, or < 0 when every T-vertex is isolated) and is reported before
    the size guard and before any factor is built, at any n. Otherwise a
    true verdict is decided in polynomial time on the double cover: an
    [a, b]-factor F0, then a second one F1 built off F0's support; an edge
    outside either support needs nothing more, and each edge in both is
    dropped from a copy of F0 or F1 that is then repaired. A refutation
    found there needs the 2^n scan for its witness. The size guard applies
    to both of these verdicts, and to an edgeless graph.
    """
    a, b = _validate_ab(a, b)
    _require_vertices(graph)
    if graph.edge_count and graph.min_degree() <= a:
        at_empty = deficiency_witness(graph, (), a, b)
        if at_empty.satisfied:
            raise RuntimeError(f"minimum degree {graph.min_degree()} <= a = {a}, but S = {{}} satisfies the criterion")
        return False, at_empty
    _check_subset_guard(graph.n, max_n)
    if graph.edge_count == 0:
        return True, None
    if _deleted_by_repair(graph, a, b):
        return True, None
    verdict, witness = _subset_deleted(graph, a, b)
    if verdict:
        raise RuntimeError("the double cover refutes the graph, but no subset S violates the criterion")
    return False, witness


def _subset_deleted(graph: Graph, a: int, b: int):
    """The subset criterion alone, on a graph with at least one edge: (True, None),
    or (False, witness) for the first violating S in (size, lex) order."""
    n = graph.n
    return _subset_decide(graph, (a + 1,) * n, (b,) * n, (a,) * n, True, lambda s: deficiency_witness(graph, s, a, b))


# --- double-cover b-matching ---------------------------------------------------
#
# F is a set of arcs x -> y' of the bipartite double cover (x on the left, y'
# on the right, one arc each way per edge). It is held as two lists of masks:
# own[x] has bit y for every arc x -> y', other[y] has bit x for the same arc,
# so one routine serves both sides by swapping the two lists. Every degree
# stays <= f. A vertex of the side being raised that is below g roots one
# alternating search: it leaves a vertex of its own side by an edge not in F
# and comes back by an edge in F, and it stops where the path can be flipped
# without breaking a bound (an other-side vertex below f, or an own-side
# vertex above g). Flipping raises the root by one and moves no other degree
# of its side below g, so the first side stays raised while the second is.
#
# Only vertices below g are visited as roots. The greedy start reports them:
# the left vertices it could not fill, and its final mask of right copies
# still below g. A flip on the left side leaves every inner right copy's
# degree as it was and raises the right copy it ends at, so no right degree
# falls while the left side is raised, and the right vertices below g
# afterwards are among those the greedy start left below g. A repair drops
# the arcs u -> v' and v -> u' from a factor, so only u and v can be below g,
# on either side.


def _greedy_start(
    adj: Sequence[int], gv: Sequence[int], fv: Sequence[int], avoid: Sequence[int] | None = None
) -> tuple[list[int], list[int], int, int]:
    """Give each left vertex up to g lowest-numbered neighbours whose right copy has room,
    taking right copies still below g first, and neighbours in avoid[u], if given, last.

    Returns (out, into, short, below): the arc masks, the mask of left vertices
    left below g, and the mask of right copies left below g.
    """
    n = len(adj)
    out, into, deg = [0] * n, [0] * n, [0] * n
    full = (1 << n) - 1
    below = full if all(gv) else sum(1 << v for v in range(n) if gv[v] > 0)
    room = full if all(fv) else sum(1 << v for v in range(n) if fv[v] > 0)
    short = 0
    for u in range(n):
        rest = adj[u]
        free = rest & ~avoid[u] if avoid else rest
        u_bit, taken = 1 << u, 0
        for _ in range(gv[u]):
            pick = free & below or free & room or rest & below or rest & room
            if not pick:
                short |= u_bit
                break
            low = pick & -pick
            v = low.bit_length() - 1
            taken |= low
            free &= ~low
            rest ^= low
            into[v] |= u_bit
            d = deg[v] + 1
            deg[v] = d
            if d == gv[v]:
                below ^= low
            if d == fv[v]:
                room ^= low
        out[u] = taken
    return out, into, short, below


def _alternating_path(adj, gv, fv, own, other, root: int, came_by_free: dict | None = None) -> list[int] | None:
    """A shortest flippable path [root, y1, x1, y2, ...] from an own-side root, or None.

    Steps x -> y use edges not in F, steps y -> x edges in F. The path ends at
    an other-side y with deg < f(y) or at an own-side x with deg > g(x). None
    means no such path exists: the own-side vertices reached, X, and the
    other-side ones, Y, then have g(X) > f(Y) + e(X, outside Y), which no
    factor can meet.

    ``came_by_free``, if given, is an empty dict that the search fills with
    every free step it takes, as other-side y -> own-side x. adj is read only
    in the offers adj[x] & ~own[x] & ~seen_other, and each offer's steps are
    taken in increasing order. A bit of adj[x] that the search never stepped
    along was in no offer, or lay above the step at which the search
    returned, so the search takes the same steps with that bit cleared.
    """
    if came_by_free is None:
        came_by_free = {}  # other-side y -> the own-side x whose edge to y is not in F
    came_by_f = {}  # own-side x -> the other-side y whose edge to x is in F
    seen_own, seen_other = 1 << root, 0
    queue = [root]
    for x in queue:
        step = adj[x] & ~own[x] & ~seen_other
        seen_other |= step
        while step:
            y_bit = step & -step
            step ^= y_bit
            y = y_bit.bit_length() - 1
            came_by_free[y] = x
            if other[y].bit_count() < fv[y]:
                return _unwind([y], came_by_free, came_by_f, root)
            back = other[y] & ~seen_own
            seen_own |= back
            while back:
                x2_bit = back & -back
                back ^= x2_bit
                x2 = x2_bit.bit_length() - 1
                came_by_f[x2] = y
                if own[x2].bit_count() > gv[x2]:
                    return _unwind([x2, y], came_by_free, came_by_f, root)
                queue.append(x2)
    return None


def _unwind(tail: list[int], came_by_free: dict, came_by_f: dict, root: int) -> list[int]:
    """The path from root to tail[0], following the search's parent links back from tail[-1]."""
    path = tail
    while True:
        x = came_by_free[path[-1]]
        path.append(x)
        if x == root:
            return path[::-1]
        path.append(came_by_f[x])


def _flip(path: list[int], own: list[int], other: list[int]) -> None:
    """Toggle F along an alternating path that starts on the own side."""
    for i in range(len(path) - 1):
        x, y = (path[i], path[i + 1]) if i % 2 == 0 else (path[i + 1], path[i])
        own[x] ^= 1 << y
        other[y] ^= 1 << x


def _raise_to_g(adj, gv, fv, own: list[int], other: list[int], roots: int, stepped: dict | None = None) -> bool:
    """Raise the own-side vertices in roots to g, in increasing order, by flipping alternating
    paths; False if one cannot be. Every own-side vertex outside roots must already be at g or above.

    ``stepped``, if given, gathers every search's free steps, as own-side x -> mask of the y stepped to."""
    for root in _bits(roots):
        while own[root].bit_count() < gv[root]:
            came = None if stepped is None else {}
            path = _alternating_path(adj, gv, fv, own, other, root, came)
            if came:
                for y, x in came.items():
                    stepped[x] = stepped.get(x, 0) | 1 << y
            if path is None:
                return False
            _flip(path, own, other)
    return True


def _double_cover_factor(adj, gv, fv, avoid=None, start=None, stepped=None) -> tuple[list[int], list[int]] | None:
    """A (g, f)-factor of the double cover as (out, into) masks, or None if there is none.

    ``start``, if given, is the greedy start (out, into, short, below) of adj at
    these bounds, with no avoid; the raises work on copies of its masks.
    ``stepped``, if given, gathers the free steps of both sides' searches (see ``_raise_to_g``).
    """
    if start is None:
        out, into, short, below = _greedy_start(adj, gv, fv, avoid)
    else:
        out, into, short, below = start
        out, into = list(out), list(into)
    if _raise_to_g(adj, gv, fv, out, into, short, stepped) and _raise_to_g(adj, gv, fv, into, out, below, stepped):
        return out, into
    return None


def _deleted_by_repair(graph: Graph, a: int, b: int) -> bool:
    """Whether G - e has a fractional [a, b]-factor for every edge e, on a graph with an edge.

    One [a, b]-factor F0 of the double cover is built; if there is none, no
    G - e has one either. An edge uv outside F0's support (neither u -> v'
    nor v -> u' in F0) leaves F0 a factor of G - uv. A second factor F1 of
    the same double cover is built with a greedy start that takes arcs off
    F0's support first, and covers in the same way every edge outside its
    own support; it exists because F0 does. Only the edges both supports
    share are left: for each, a fresh copy of whichever of F0 and F1 holds
    fewer of the edge's two arcs (F0 on a tie) loses them, which lowers two
    degrees by one per arc dropped and keeps every degree <= b, and is
    raised again on the left side and then the right. Raising is exact from
    any such start, so a failed search means G - uv has no factor.
    """
    n = graph.n
    gv, fv = (a,) * n, (b,) * n
    adj = list(graph._rows)
    found = _double_cover_factor(adj, gv, fv)
    if found is None:
        return False
    out0, into0 = found
    support0 = [out0[u] | into0[u] for u in range(n)]
    found = _double_cover_factor(adj, gv, fv, avoid=support0)
    if found is None:
        raise RuntimeError("the double cover has the [a, b]-factor F0, but the build of F1 found none")
    out1, into1 = found
    for u in range(n):
        both = support0[u] & (out1[u] | into1[u])
        for v in _bits(both >> (u + 1) << (u + 1)):  # edges uv with v > u that F0 and F1 both use
            fewer_in_f1 = (out1[u] >> v & 1) + (out1[v] >> u & 1) < (out0[u] >> v & 1) + (out0[v] >> u & 1)
            out, into = (out1, into1) if fewer_in_f1 else (out0, into0)
            adj_e, out, into = adj.copy(), out.copy(), into.copy()
            for x, y in ((u, v), (v, u)):
                adj_e[x] ^= 1 << y
                out[x] &= ~(1 << y)
                into[y] &= ~(1 << x)
            ends = 1 << u | 1 << v  # the only vertices, on either side, that lost an arc
            if not (_raise_to_g(adj_e, gv, fv, out, into, ends) and _raise_to_g(adj_e, gv, fv, into, out, ends)):
                return False
    return True


def _fresh_build(graph: Graph, gv, fv, start=None) -> tuple:
    """Build graph's double-cover factor at (gv, fv) from start, or from its own greedy start,
    and memoise it on graph as ((gv, fv), start, out, stepped).

    ``out`` is the factor's left-side arc masks as a tuple, or None when there is
    no factor; ``stepped`` holds the free steps of the build's searches.
    """
    if start is None:
        out, into, short, below = _greedy_start(graph._rows, gv, fv)
        start = tuple(out), tuple(into), short, below
    stepped = {}
    found = _double_cover_factor(graph._rows, gv, fv, start=start, stepped=stepped)
    graph._build = kept = (gv, fv), start, None if found is None else tuple(found[0]), stepped
    return kept


def _build_of(graph: Graph, gv, fv) -> tuple:
    """graph's build at (gv, fv), memoised as ``_fresh_build`` does: graph's own memo when
    that is for these bounds, else as much of its parent's as is exact, else a new build.

    A graph made by ``delete_edge(P, u, v)``, with P still alive, reads P's build
    (built and memoised on P first, from P's own greedy start, if P has none
    for these bounds; only the direct parent is consulted). When P's greedy
    start picked neither u -> v' nor v -> u', it is P - uv's start too: each
    greedy pick is the lowest bit of the first nonempty of four masks, and v
    (or u) is never that bit, so dropping it changes no pick, degree or
    deficit mask. When, besides, no search of P stepped along uv, every search
    on P - uv takes P's steps (see ``_alternating_path``) and makes P's
    flip, so P - uv takes P's whole memo, factor (or None) and steps too, and
    builds nothing; a chain of deletions passes it on. Otherwise P - uv
    raises its own rows, from P's start where that is exact. So every G - e
    taken from one G shares one greedy pass, and most share G's raises too.
    """
    kept = graph._build
    if kept is not None and kept[0] == (gv, fv):
        return kept
    parent = graph._origin[0]() if graph._origin else None
    if parent is None:
        return _fresh_build(graph, gv, fv)
    _, u, v = graph._origin
    kept = parent._build
    if kept is None or kept[0] != (gv, fv):
        kept = _fresh_build(parent, gv, fv)
    _, start, _, stepped = kept
    if start[0][u] >> v & 1 or start[0][v] >> u & 1:
        return _fresh_build(graph, gv, fv)
    if stepped.get(u, 0) >> v & 1 or stepped.get(v, 0) >> u & 1:
        return _fresh_build(graph, gv, fv, start)
    graph._build = kept
    return kept


def find_fractional_factor(graph: Graph, g, f) -> FractionalAssignment | None:
    """Constructive route: a half-integral fractional (g, f)-factor, or None.

    Solves a bipartite (g, f)-factor F on the double cover of G (each edge
    uv becomes the arcs u -> v' and v -> u'), greedy first, then alternating
    paths for the left side and afterwards the right side. A fractional
    (g, f)-factor exists exactly when F does, and h(uv) = ([u -> v' in F] +
    [v -> u' in F]) / 2 is one; a failed search is a Hall-type proof that
    none exists, so this agrees with ``has_fractional_gf_factor`` on every
    input. The certificate holds F itself, as G's row masks and F's
    left-side arc masks, so building it costs no pass over the edges. It is
    the certificate a build from scratch returns, bit for bit. G keeps its
    last build and the bounds it was for, so a second call at those bounds
    builds nothing. A G made by ``delete_edge`` takes its parent's greedy
    start, or the parent's whole build, factor and all, while that is exact
    (see ``_build_of``).
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    out = _build_of(graph, gv, fv)[2]
    return None if out is None else FractionalAssignment(graph._rows, out)
