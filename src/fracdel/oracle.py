"""Exact deciders for fractional degree-constrained factors and their edge-deleted variants.

A fractional (g, f)-factor of G assigns each edge a weight in [0, 1] so that
every vertex v sees a weighted degree between g(v) and f(v). G is fractional
[a, b]-deleted when G - e has a fractional [a, b]-factor (constant g = a,
f = b) for every single edge e.

Two routes underlie everything here:

* a deficiency criterion over vertex subsets S with a derived low-degree set
  T, scanned over all 2^n masks and refuted by an explicit (S, T) witness
  (``has_fractional_gf_factor``, and ``_subset_decide`` under "deleted");
* a constructive certificate, a (g, f)-factor of the bipartite double cover
  found by greedy matching and alternating paths on the adjacency bitmasks,
  giving half-integral edge weights that can be rechecked in exact
  arithmetic, or None with a Hall-type proof behind it
  (``find_fractional_factor``). The certificate, a ``FractionalAssignment``,
  is that factor's arc masks: a weight is read from two bits, and the exact
  check is a mask comparison and popcounts, with no per-edge table.

Every double-cover factor, the certificate's and each one below, is raised by
one routine, ``_double_cover_factor``, from an explicit start: the arc masks
and, on each side, the vertices that may be below g, which alone root searches.
Each search is one call of ``_augment``, which finds a shortest alternating
path and flips it in place while it follows its parent links back to the root.
One repair, ``_repaired``, turns a factor of G into one of G - uv: it drops
the arcs u -> v' and v -> u' from a copy and raises it again from u and v.
A G - uv made by ``delete_edge`` gets its certificate that way from its
parent's factor, and the repairs below are the same call.

``is_fractional_ab_deleted`` decides in this order: the degree test, the
size guard, a closed form, F0, F1 and repairs, then the 2^n witness scan. A
vertex of degree <= a refutes G at S = {} before anything is built. Past the
guard, b(delta - 1) >= a * Delta decides G with no search. Otherwise F0,
G's certificate factor from ``_factor_of``, a second factor F1 built off
F0's support, and one repair for each edge both use give every G - e a
factor, and every failed raise, F0's or a repair, refutes G. Only a
refutation runs the 2^n scan, to report the first violating S in (size, lex)
order, and the scan must find one.

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
from typing import TYPE_CHECKING, Iterable, Sequence

from .graph import Graph, _bits, _disjoint_masks, _edges, _vertex_mask

if TYPE_CHECKING:  # numpy is imported where it computes, so importing this module does not load it
    import numpy as np

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
        return {(u, v): (out[u] >> v & 1) + (out[v] >> u & 1) for u, v in _edges(self.rows)}

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
    if max_n is None and n > SUBSET_GUARD:
        raise SizeGuardError(f"n={n} exceeds the subset-enumeration limit {SUBSET_GUARD}; pass max_n to override")
    if max_n is not None and n > max_n:
        raise SizeGuardError(f"n={n} exceeds the subset-enumeration limit max_n={max_n}")
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
    import numpy as np
    total = np.zeros(len(masks), dtype=np.int64)
    for w in set(vals) - {0}:
        of_w = np.uint64(sum(1 << v for v, x in enumerate(vals) if x == w))
        total += w * np.bitwise_count(masks & of_w).astype(np.int64)
    return total


def _chunk_violations(adj, full, s, f, g, rule: str) -> np.ndarray:
    """The masks in s whose (S, T) pair violates the criterion of rule."""
    import numpy as np
    deleted = rule == "deleted"
    not_s = ~s & full
    t = np.zeros(len(s), dtype=np.uint64)
    d_t = np.zeros(len(s), dtype=np.uint16)  # at most 63 vertices of remaining degree <= 62
    for v, row in enumerate(adj):
        d = np.bitwise_count(row & not_s)
        in_t = (d < g[v] + deleted) & ((not_s & np.uint64(1 << v)) != 0)
        t |= in_t.astype(np.uint64) << np.uint64(v)
        d_t += d * in_t
    value = _subset_sums(s, f) + d_t - _subset_sums(t, g)
    if not deleted:
        return s[value < 0]
    near = value < 2
    s, t, value = s[near], t[near], value[near]
    eps = (d_t[near] > 0).astype(np.int64)
    for v, row in enumerate(adj):
        eps[((t & np.uint64(1 << v)) != 0) & ((row & t) != 0)] = 2
    return s[value < eps]


def _subset_decide(graph: Graph, f, g, rule: str):
    """(True, None), or (False, witness) for the first S in (size, lex) order that
    violates the criterion of rule (see ``_witness``).

    The witness is ``_witness`` at that S; one that passes there is a kernel bug.
    """
    import numpy as np
    n = graph.n
    adj = [np.uint64(graph.adjacency_mask(v)) for v in range(n)]
    full = np.uint64(graph.full_mask())
    best = (n + 1, ())  # (|S|, S) of the first violation so far; n + 1 while there is none
    for start in range(0, 1 << n, _CHUNK):
        if start.bit_count() > best[0]:
            continue  # every mask in this chunk has start's bits
        s = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.uint64)
        s = s[np.bitwise_count(s) <= best[0]]
        bad = _chunk_violations(adj, full, s, f, g, rule)
        if len(bad):
            sizes = np.bitwise_count(bad)
            first = min(tuple(_bits(m)) for m in bad[sizes == sizes.min()].tolist())  # lex-first of the smallest
            best = min(best, (len(first), first))
            if best[0] == 0:
                break
    if best[0] > n:
        return True, None
    found = _witness(graph, sum(1 << v for v in best[1]), f, g, rule)
    if found.satisfied:
        raise RuntimeError(f"subset kernel reported S={list(found.s)}, which satisfies the {found.rule} criterion")
    return False, found


# --- criterion pieces -------------------------------------------------------


def _witness(graph: Graph, smask: int, f, g, rule: str) -> DeficiencyWitness:
    """The criterion of rule at the vertex mask S, as the subset kernel states it: T = {v not
    in S : d_{G-S}(v) < g(v)}, or <= g(v) under "deleted", and theta = f(S) + d_{G-S}(T) - g(T)
    must reach epsilon(S, T) under "deleted", or 0 under "factor"."""
    deleted = rule == "deleted"
    rows = graph._rows
    tmask = d_t = 0
    for v, row in enumerate(rows):
        d = (row & ~smask).bit_count()
        if d < g[v] + deleted and not smask >> v & 1:
            tmask |= 1 << v
            d_t += d
    value = sum(f[v] for v in _bits(smask)) + d_t - sum(g[v] for v in _bits(tmask))
    eps = _epsilon(rows, smask, tmask) if deleted else 0
    return DeficiencyWitness(tuple(_bits(smask)), tuple(_bits(tmask)), value, eps, rule, value >= eps)


def _epsilon(rows: Sequence[int], smask: int, tmask: int) -> int:
    t_rows = [rows[v] for v in _bits(tmask)]
    if any(row & tmask for row in t_rows):
        return 2
    return 1 if any(row & ~smask for row in t_rows) else 0  # T is independent: a neighbour outside S is outside S u T


def epsilon(graph: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """2 if T is not independent; else 1 if some T-vertex has a neighbor
    outside S u T; else 0. S and T must be disjoint. S and T are checked once, and an
    error names the first out-of-range vertex in input order."""
    return _epsilon(graph._rows, *_disjoint_masks(graph, s, t))


def theta(graph: Graph, s: Iterable[int], t: Iterable[int], a: int, b: int) -> int:
    """b|S| + d_{G-S}(T) - a|T| for explicit disjoint S, T. S and T are checked once, and an
    error names the first out-of-range vertex in input order."""
    a, b = _validate_ab(a, b)
    smask, tmask = _disjoint_masks(graph, s, t)
    d_t = sum((graph._rows[v] & ~smask).bit_count() for v in _bits(tmask))
    return b * smask.bit_count() + d_t - a * tmask.bit_count()


def deficiency_witness(graph: Graph, s: Iterable[int], a: int, b: int) -> DeficiencyWitness:
    """The deleted criterion at S with its derived T. S is checked once, and an error
    names the first out-of-range vertex in input order."""
    a, b = _validate_ab(a, b)
    _require_vertices(graph)
    n = graph.n
    return _witness(graph, _vertex_mask(graph, s, "S"), (b,) * n, (a,) * n, "deleted")


def factor_deficiency_witness(graph: Graph, s: Iterable[int], g, f) -> DeficiencyWitness:
    """The fractional (g, f)-factor criterion at S with its derived T. S is checked once,
    and an error names the first out-of-range vertex in input order."""
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    return _witness(graph, _vertex_mask(graph, s, "S"), fv, gv, "factor")


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
    return _subset_decide(graph, fv, gv, "factor")


def is_fractional_ab_deleted(graph: Graph, a: int, b: int, max_n: int | None = None):
    """Exact test that G - e has a fractional [a, b]-factor for every edge e.

    An edgeless graph is vacuously deleted (there is no edge to remove) and
    returns (True, None). A false verdict is reported as (False, witness)
    with the first S in (size, lex) order that violates the subset
    criterion: for every S, with the derived T = {v not in S :
    d_{G-S}(v) <= a}, theta(S, T) must reach epsilon(S, T). When the minimum
    degree is <= a, S = {} violates it (T is nonempty and theta(S, T) is
    <= 0, or < 0 when every T-vertex is isolated) and is reported before
    the size guard and before any factor is built, at any n. Past the guard,
    b(delta - 1) >= a * Delta decides a true verdict with nothing built:
    the weight min(1, b / Delta) on every edge of G - e gives each vertex a
    sum between a and b, since delta > a. It never holds at a = b.
    Otherwise the verdict comes from ``_deleted_by_repair``, in polynomial
    time: the double-cover factor F0 behind G's ``find_fractional_factor``
    certificate, built once per Graph and bounds, a second one F1 built off
    F0's support, and a repair for each edge in both supports. Every failed
    raise refutes G, and only a refutation needs the 2^n scan for its
    witness. The size guard applies to both verdicts, and to an edgeless
    graph.
    """
    a, b = _validate_ab(a, b)
    _require_vertices(graph)
    gv, fv = _constant(a, graph.n), _constant(b, graph.n)
    degrees = graph.degrees()
    low, high = min(degrees), max(degrees)
    if graph.edge_count and low <= a:
        at_empty = _witness(graph, 0, fv, gv, "deleted")
        if at_empty.satisfied:
            raise RuntimeError(f"minimum degree {low} <= a = {a}, but S = {{}} satisfies the criterion")
        return False, at_empty
    _check_subset_guard(graph.n, max_n)
    if graph.edge_count == 0:
        return True, None
    if b * (low - 1) >= a * high:
        return True, None  # weight min(1, b / high) on every edge puts each G - e in [a, b]
    if _deleted_by_repair(graph, gv, fv):
        return True, None
    verdict, witness = _subset_decide(graph, fv, gv, "deleted")
    if verdict:
        raise RuntimeError("the double cover refutes the graph, but no subset S violates the criterion")
    return False, witness


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
# vertex above g). ``_augment`` searches and flips in one pass. Flipping raises
# the root by one and moves no other degree of its side below g, so the first
# side stays raised while the second is.
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


def _augment(adj, gv, fv, own, other, root: int) -> bool:
    """Flip a shortest flippable path from an own-side root in F, in place; False, with F
    unchanged, when there is none.

    A breadth-first search steps x -> y by edges not in F and y -> x by edges
    in F. The path ends at an other-side y with deg < f(y) or at an own-side
    x with deg > g(x), which first gives up its arc to the y it was reached
    from; following the parent links back to the root, each free step's arc
    is then added and each F step's arc dropped. That raises the root by one
    and moves no other own-side degree below g. False means no such path
    exists: the own-side vertices reached, X, and the other-side ones, Y, then
    have g(X) > f(Y) + e(X, outside Y), which no factor can meet.
    """
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
            if other[y].bit_count() >= fv[y]:  # y is full: the path goes on by its arcs in F
                back = other[y] & ~seen_own
                seen_own |= back
                while back:
                    x2_bit = back & -back
                    back ^= x2_bit
                    x2 = x2_bit.bit_length() - 1
                    if own[x2].bit_count() > gv[x2]:
                        own[x2] ^= y_bit  # the path ends at x2, which gives up its arc to y
                        other[y] ^= x2_bit
                        break
                    came_by_f[x2] = y
                    queue.append(x2)
                else:
                    continue
            while True:  # the path's last other-side vertex is y: flip it back to the root
                x = came_by_free[y]
                own[x] ^= 1 << y
                other[y] ^= 1 << x
                if x == root:
                    return True
                y = came_by_f[x]
                own[x] ^= 1 << y
                other[y] ^= 1 << x
    return False


def _double_cover_factor(adj, gv, fv, start) -> tuple[list[int], list[int]] | None:
    """Raise start = (out, into, short, below) in place to a (g, f)-factor of the double cover.

    The left vertices in short are raised to g, in increasing order, by
    ``_augment``, then the right copies in below the same way. Returns
    (out, into), or None when a search fails, which proves there is no factor.
    Every other vertex, on either side, must already be at g or above, and
    every degree at most f.
    """
    out, into, short, below = start
    for own, other, roots in ((out, into, short), (into, out, below)):
        for root in _bits(roots):
            while own[root].bit_count() < gv[root]:
                if not _augment(adj, gv, fv, own, other, root):
                    return None
    return out, into


def _repaired(adj, gv, fv, out, into, u: int, v: int) -> tuple[list[int], list[int]] | None:
    """A (g, f)-factor of the double cover of G - uv, from a copy of G's factor (out, into), or None.

    adj holds the rows of G - uv. The copy loses the arcs u -> v' and v -> u',
    which lowers u and v on the left and u' and v' on the right by at most
    one each and keeps every degree <= f, and it is raised again from u and v
    on the left side and then the right. Raising is exact from any such
    start, so None means G - uv has no factor.
    """
    out, into = list(out), list(into)
    for x, y in ((u, v), (v, u)):
        out[x] &= ~(1 << y)
        into[y] &= ~(1 << x)
    ends = 1 << u | 1 << v  # the only vertices, on either side, that lost an arc
    return _double_cover_factor(adj, gv, fv, (out, into, ends, ends))


def _deleted_by_repair(graph: Graph, gv, fv) -> bool:
    """Whether every G - e, on a graph with an edge, has a fractional [a, b]-factor: gv = a, fv = b.

    ``is_fractional_ab_deleted`` calls this only on the graphs that its
    degree test, size guard and closed form leave undecided. F0 is G's
    certificate factor, from ``_factor_of``; if there is none, no G - e has
    one either. An edge uv outside F0's support (neither u -> v' nor v -> u'
    in F0) leaves F0 a factor of G - uv. A second factor F1 of the same
    double cover is built with a greedy start that takes arcs off F0's
    support first, and covers in the same way every edge outside its own
    support; it exists because F0 does. Only the edges both supports share
    are left: for each, whichever of F0 and F1 holds fewer of the edge's two
    arcs (F0 on a tie) is repaired by ``_repaired``, and a failed repair
    means G - uv has no factor. So every failed raise here proves G is not
    deleted.
    """
    found = _factor_of(graph, gv, fv)
    if found is None:
        return False
    out0, into0 = found
    adj = graph._rows
    support0 = [o | i for o, i in zip(out0, into0)]
    found = _double_cover_factor(adj, gv, fv, _greedy_start(adj, gv, fv, support0))
    if found is None:
        raise RuntimeError("the double cover has the [a, b]-factor F0, but the build of F1 found none")
    out1, into1 = found
    both = [s & (o | i) for s, o, i in zip(support0, out1, into1)]  # the edges F0 and F1 both use
    for u, v in _edges(both):
        fewer_in_f1 = (out1[u] >> v & 1) + (out1[v] >> u & 1) < (out0[u] >> v & 1) + (out0[v] >> u & 1)
        out, into = (out1, into1) if fewer_in_f1 else (out0, into0)
        adj_e = list(adj)
        adj_e[u] ^= 1 << v
        adj_e[v] ^= 1 << u
        if _repaired(adj_e, gv, fv, out, into, u, v) is None:
            return False
    return True


def _factor_of(graph: Graph, gv, fv) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """graph's double-cover factor (out, into) at (gv, fv), or None when it has none,
    memoised on graph as ((gv, fv), factor).

    A graph made by ``delete_edge(P, u, v)``, with P still alive, takes P's
    factor, built and memoised on P first if P has none for these bounds, and
    so on up a chain of live parents. If P's factor uses neither u -> v' nor
    v -> u', it is a factor of P - uv as it stands; otherwise ``_repaired``
    drops those arcs from a copy and raises it again. If P has no factor,
    neither has P - uv: a factor of P - uv is one of P with no arc on uv. A
    graph with no live parent raises its own greedy start.
    """
    chain = []
    while graph._build is None or graph._build[0] != (gv, fv):
        parent = graph._origin[0]() if graph._origin else None
        if parent is None:
            found = _double_cover_factor(graph._rows, gv, fv, _greedy_start(graph._rows, gv, fv))
            graph._build = (gv, fv), _frozen(found)
            break
        chain.append(graph)
        graph = parent
    found = graph._build[1]
    for h in reversed(chain):  # each graph's parent is the one before it here
        _, u, v = h._origin
        if found is not None and (found[0][u] >> v & 1 or found[0][v] >> u & 1):
            found = _frozen(_repaired(h._rows, gv, fv, *found, u, v))
        h._build = (gv, fv), found
    return found


def _frozen(found: tuple[list[int], list[int]] | None) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    return None if found is None else (tuple(found[0]), tuple(found[1]))


def find_fractional_factor(graph: Graph, g, f) -> FractionalAssignment | None:
    """Constructive route: a half-integral fractional (g, f)-factor, or None.

    Solves a bipartite (g, f)-factor F on the double cover of G (each edge
    uv becomes the arcs u -> v' and v -> u'), greedy first, then alternating
    paths for the left side and afterwards the right side. A fractional
    (g, f)-factor exists exactly when F does, and h(uv) = ([u -> v' in F] +
    [v -> u' in F]) / 2 is one; a failed search is a Hall-type proof that
    none exists, so this agrees with ``has_fractional_gf_factor`` on every
    input. The certificate holds F itself, as G's row masks and F's
    left-side arc masks, so building it costs no pass over the edges. G
    keeps its last factor and the bounds it was for, so a second call at
    those bounds builds nothing. A G made by ``delete_edge(P, u, v)`` repairs
    its live parent's factor instead of building its own (see
    ``_factor_of``): it is a valid certificate, though not always the one a
    build from scratch would return.
    """
    _require_vertices(graph)
    gv, fv = _bounds_vectors(graph, g, f)
    found = _factor_of(graph, gv, fv)
    return None if found is None else FractionalAssignment(graph._rows, found[0])
