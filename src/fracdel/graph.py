"""Simple undirected graphs on labeled vertices, with graph6 and edge-list I/O."""

from __future__ import annotations

import base64
import operator
import re
import weakref
from typing import Callable, Iterable, Iterator

__all__ = [
    "Graph",
    "Graph6Error",
    "EdgeListError",
    "complete",
    "disjoint_union",
    "join",
    "extremal",
    "delete_edge",
    "delete_vertices",
    "cut_count",
    "degree_sum_minus",
    "components",
    "is_connected",
    "parse_graph6",
    "to_graph6",
    "parse_edge_list",
]

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 258047  # largest n the 4-byte size form can express


class Graph6Error(ValueError):
    """Malformed graph6 input. ``offset`` is the 0-based byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeListError(ValueError):
    """Malformed edge-list input. ``line`` is the 1-based line number of the problem."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Adjacency is stored as one integer bitmask per vertex: bit u of
    ``adjacency_mask(v)`` is set iff uv is an edge. Parallel edges are
    impossible by construction and self-loops are rejected.
    """

    __slots__ = ("n", "_rows", "_edge_count", "_spectra", "_origin", "_build", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = _vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)  # a float raises instead of truncating
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self._rows = tuple(rows)
        self._edge_count = sum(r.bit_count() for r in rows) // 2
        self._spectra = None  # spectral.spectral_summary of this object, once solved
        self._origin = None  # (weak reference to G, u, v) when made by delete_edge(G, u, v)
        self._build = None  # ((g, f), (out, into) or None): the last oracle double-cover factor of this object

    @classmethod
    def _from_rows(cls, n: int, rows: tuple[int, ...], edge_count: int | None = None) -> "Graph":
        # trusted fast path: rows must already be a consistent symmetric bitmask table
        g = object.__new__(cls)
        g.n = n
        g._rows = rows
        g._edge_count = sum(map(int.bit_count, rows)) // 2 if edge_count is None else edge_count
        g._spectra = None
        g._origin = None
        g._build = None
        return g

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertices(self) -> range:
        return range(self.n)

    def adjacency_mask(self, v: int) -> int:
        """Bitmask of the neighbors of v."""
        self._check_vertex(v)
        return self._rows[v]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)  # a numpy integer past 63 would overflow the shift
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self._rows)

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min_degree undefined on the empty graph")
        return min(r.bit_count() for r in self._rows)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adjacency_mask(v)))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return _edges(self._rows)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __reduce__(self):
        # the memos and the weak reference to a parent are not part of the value
        return Graph._from_rows, (self.n, self._rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self._edge_count})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges(rows) -> Iterator[tuple[int, int]]:
    """Every (u, v) with u < v and bit v of rows[u] set, in lexicographic order."""
    for u, row in enumerate(rows):
        row &= -2 << u  # neighbours above u
        while row:
            low = row & -row
            yield u, low.bit_length() - 1
            row ^= low


def _vertex_count(n: int) -> int:
    """n as a Python int (numpy's integers too): a float raises TypeError, a negative n ValueError."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return n


def _vertex_mask(g: Graph, vs: Iterable[int], name: str) -> int:
    """vs as a mask of g's vertices, each checked in input order: an error names the first bad one."""
    mask = 0
    for v in vs:
        v = operator.index(v)  # a float raises instead of truncating
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} in {name} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def complete(n: int) -> Graph:
    """K_n."""
    n = _vertex_count(n)
    full = (1 << n) - 1
    return Graph._from_rows(n, tuple(full ^ (1 << v) for v in range(n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G ∪ H with H's vertices relabeled to g.n .. g.n+h.n-1."""
    shift = g.n
    rows = g._rows + tuple(r << shift for r in h._rows)
    return Graph._from_rows(g.n + h.n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """G ∨ H: disjoint union plus every edge between the two sides."""
    shift = g.n
    hmask = ((1 << h.n) - 1) << shift
    gmask = (1 << shift) - 1
    rows = tuple(r | hmask for r in g._rows) + tuple((r << shift) | gmask for r in h._rows)
    return Graph._from_rows(g.n + h.n, rows)


def _extremal_size(n: int, a: int) -> tuple[int, int]:
    """n and a of extremal(n, a) as Python ints; TypeError on a float, ValueError unless a >= 1 and n >= a + 2."""
    n, a = operator.index(n), operator.index(a)  # numpy's integers too; a float raises
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if n < a + 2:
        raise ValueError(f"need n >= a+2 for the construction, got n={n}, a={a}")
    return n, a


def extremal(n: int, a: int) -> Graph:
    """Tight example for the sufficient conditions: K_a joined to (K_{n-a-1} ∪ K_1).

    Vertices 0..a-1 form the K_a hub, a..n-2 the big clique, and n-1 is the
    low vertex adjacent to the hub only. Hence 0..n-2 induce K_{n-1},
    e = C(n-1,2) + a, and the minimum degree is a (attained at vertex n-1;
    for n >= a+3 vertex n-1 is the unique minimum-degree vertex).
    """
    n, a = _extremal_size(n, a)
    base = complete(n - 1)
    hub = (1 << a) - 1
    rows = tuple(r | (1 << (n - 1)) if v < a else r for v, r in enumerate(base._rows))
    return Graph._from_rows(n, rows + (hub,))


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """G - uv. The edge must exist; u and v must be integers (numpy's too), not floats.

    The result remembers its parent G, by a weak reference, and the deleted
    edge, so ``find_fractional_factor`` can repair G's factor, while G is
    alive, instead of building one from nothing. Neither is part of its
    value: equality and hashing see only n and the edges.
    """
    u, v = operator.index(u), operator.index(v)  # as Graph() does; a numpy integer would leak into the rows
    if not (0 <= u < g.n and 0 <= v < g.n and g._rows[u] >> v & 1):
        raise ValueError(f"edge ({u}, {v}) not in graph")
    rows = list(g._rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    h = Graph._from_rows(g.n, tuple(rows), g._edge_count - 1)
    h._origin = weakref.ref(g), u, v
    return h


def delete_vertices(g: Graph, vs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """G - S. Returns (new graph, old->new label map for the kept vertices).

    Kept vertices are relabeled in increasing order, so the result does not
    depend on the iteration order of ``vs``.
    """
    smask = _vertex_mask(g, vs, "S")
    kept = [v for v in range(g.n) if not (smask >> v & 1)]
    relabel = {old: new for new, old in enumerate(kept)}
    rows = []
    for old in kept:
        row = g._rows[old] & ~smask
        rows.append(sum(1 << relabel[w] for w in _bits(row)))
    return Graph._from_rows(len(kept), tuple(rows)), relabel


def _disjoint_masks(g: Graph, s: Iterable[int], t: Iterable[int]) -> tuple[int, int]:
    """S and T as vertex masks: S checked in input order, then T, then that they are disjoint."""
    smask = _vertex_mask(g, s, "S")
    tmask = _vertex_mask(g, t, "T")
    if smask & tmask:
        raise ValueError("S and T must be disjoint")
    return smask, tmask


def cut_count(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """e_G(S, T): number of edges with one end in S and the other in T.

    S and T must be disjoint.
    """
    smask, tmask = _disjoint_masks(g, s, t)
    return sum((g._rows[v] & smask).bit_count() for v in _bits(tmask))


def degree_sum_minus(g: Graph, s: Iterable[int], t: Iterable[int]) -> int:
    """d_{G-S}(T): sum over v in T of the degree of v in G - S.

    S and T must be disjoint.
    """
    smask, tmask = _disjoint_masks(g, s, t)
    return sum((g._rows[v] & ~smask).bit_count() for v in _bits(tmask))


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by smallest member."""
    out = []
    seen = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            grow = 0
            for w in _bits(frontier):
                grow |= g._rows[w]
            frontier = grow & ~comp
            comp |= frontier
        seen |= comp
        out.append(tuple(_bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


# --- graph6 ---------------------------------------------------------------
#
# Byte layout: optional ">>graph6<<" header, a size field (one byte 63+n for
# n <= 62, or '~' plus three bytes holding 63 + the 6-bit digits of n for
# n <= 258047), then ceil(C(n,2)/6) payload bytes. Payload bits run over the
# upper triangle column by column: (0,1), (0,2), (1,2), (0,3), ..., msb-first
# within each 6-bit group, zero-padded at the end. All data bytes are 63..126.


_BAD_PAYLOAD_BYTE = re.compile("[^?-~]")  # any character outside 63..126
# base64 writes 6-bit group v as the v-th letter of its alphabet; graph6 writes it as byte 63 + v
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_GRAPH6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_GRAPH6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
_REVERSED_BITS = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))  # translate table: each byte bit-reversed


def _graph6_size(s: str) -> tuple[int, int]:
    """(n, offset of the first payload byte) from the header and size field of a graph6 line.

    ``s`` carries no trailing newline. Raises Graph6Error as ``parse_graph6`` does.
    """
    pos = 0
    if s.startswith(GRAPH6_HEADER):
        pos = len(GRAPH6_HEADER)
    if s.startswith(">>sparse6<<") or s[pos : pos + 1] == ":":
        raise Graph6Error("sparse6 input is not supported", pos)
    if s[pos : pos + 1] == "&":
        raise Graph6Error("digraph6 input is not supported", pos)
    if pos >= len(s):
        raise Graph6Error("empty graph6 string", pos)

    c = ord(s[pos])
    if c == 126:  # '~': extended size field
        if s[pos + 1 : pos + 2] == "~":
            raise Graph6Error("8-byte size form (n > 258047) is not supported", pos)
        if len(s) < pos + 4:
            raise Graph6Error("truncated 4-byte size field", len(s))
        n = 0
        for k in range(1, 4):
            ck = ord(s[pos + k])
            if not (63 <= ck <= 126):
                raise Graph6Error(f"size byte {ck} out of range 63..126", pos + k)
            n = n << 6 | (ck - 63)
        if n > GRAPH6_MAX_N:
            raise Graph6Error(f"size {n} exceeds the 4-byte form maximum {GRAPH6_MAX_N}", pos)
        data_start = pos + 4
    elif 63 <= c <= 125:
        n = c - 63
        data_start = pos + 1
    else:
        raise Graph6Error(f"size byte {c} out of range 63..126", pos)

    if n == 0:
        raise Graph6Error("graph6 string encodes n=0; need n >= 1", pos)
    return n, data_start


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Accepts an optional ``>>graph6<<`` header and a trailing newline.
    Rejects sparse6 and digraph6 inputs, n = 0, payloads of the wrong
    length, data bytes outside 63..126, and set padding bits; every
    rejection carries the byte offset of the offending position.
    """
    s = line.rstrip("\r\n")
    n, data_start = _graph6_size(s)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(s) - data_start
    if got != need:  # reported where the payload ends, or where it should have ended
        raise Graph6Error(f"expected {need} payload bytes, found {got}", min(len(s), data_start + need))

    bad = _BAD_PAYLOAD_BYTE.search(s, data_start)
    if bad:
        raise Graph6Error(f"payload byte {ord(bad.group())} out of range 63..126", bad.start())
    # to_graph6's stages undone: bit k of data is payload bit k, and edge (i, j) is bit j(j-1)/2 + i
    data = s[data_start:].encode("ascii").translate(_GRAPH6_TO_B64) + b"A" * (-need % 4)  # "A" is base64's 0
    data = base64.b64decode(data).translate(_REVERSED_BITS)
    if int.from_bytes(data[nbits >> 3 :], "little") >> (nbits & 7):  # the padding lies in the last byte
        raise Graph6Error("padding bits beyond the edge payload are set", data_start + need - 1)
    rows = [0] * n
    for j in range(1, n):
        at = j * (j - 1) // 2  # column j, pairs (0, j) .. (j-1, j), where the encoder writes it
        col = int.from_bytes(data[at >> 3 : (at + j + 7) >> 3], "little") >> (at & 7) & ((1 << j) - 1)
        rows[j] = col
        jbit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= jbit
            col ^= low
    return Graph._from_rows(n, tuple(rows))


def _parse_graph6_within(line: str, ceiling: Callable[[int], None]) -> Graph:
    """parse_graph6(line), once ceiling(n) has passed n from the size field: a line
    the caller's ceiling refuses raises its error before any payload byte is read."""
    ceiling(_graph6_size(line.rstrip("\r\n"))[0])
    return parse_graph6(line)


def _check_graph6_max(n: int) -> None:
    """ValueError when n is past GRAPH6_MAX_N, the largest size graph6 can write."""
    if n > GRAPH6_MAX_N:
        raise ValueError(f"n={n} exceeds the supported graph6 maximum {GRAPH6_MAX_N}")


def to_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (no header, no trailing newline).

    Built from the adjacency row masks with no pass over the edges: the low j
    bits of row j are column j of the upper triangle, at bit offset j(j-1)/2
    of the bytes ``parse_graph6`` decodes. Columns are packed by shifts in
    blocks of 32. The block from column 32k + 1 starts at bit 16k(32k + 1),
    on a byte boundary, so the blocks' little-endian bytes join end to end.
    With each byte's bits reversed by one table, they are the payload bit
    stream, which base64 cuts into 6-bit groups.
    """
    n = g.n
    if n < 1:
        raise ValueError("graph6 requires n >= 1")
    _check_graph6_max(n)
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    nbits = n * (n - 1) // 2
    if nbits == 0:
        return head
    rows = g._rows
    size = -(-nbits // 24) * 3  # whole 3-byte base64 blocks, so base64 writes no '=' padding
    chunks = []
    for lo in range(1, n, 32):
        hi = lo + 32 if lo + 32 < n else n  # min() would cost a tenth of the call at n = 7
        packed = 0
        for j in range(hi - 1, lo - 1, -1):  # column j + 1 starts j bits above column j
            packed = packed << j | rows[j] & ((1 << j) - 1)
        end = hi * (hi - 1) // 16 if hi < n else size  # byte offsets; the last block is zero-padded
        chunks.append(packed.to_bytes(end - lo * (lo - 1) // 16, "little").translate(_REVERSED_BITS))
    # one name for every stage, so each is freed as soon as the next is made
    data = b"".join(chunks)
    del chunks
    data = base64.b64encode(data)
    data = data.translate(_B64_TO_GRAPH6)
    data = data[: (nbits + 5) // 6]
    data = data.decode("ascii")
    return head + data


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated edge-list text: first token n, then endpoint pairs.

    Tokens may be split across lines arbitrarily. Duplicate edges collapse.
    Self-loops, out-of-range endpoints, non-integer tokens, and a dangling
    endpoint raise EdgeListError with the 1-based line number.
    """
    tokens: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        for tok in raw.split():
            tokens.append((tok, lineno))
    if not tokens:
        raise EdgeListError("missing vertex count", 1)

    def as_int(tok: str, lineno: int) -> int:
        try:
            return int(tok)
        except ValueError:
            raise EdgeListError(f"expected an integer, got {tok!r}", lineno) from None

    n = as_int(*tokens[0])
    if n < 0:
        raise EdgeListError(f"vertex count must be nonnegative, got {n}", tokens[0][1])
    rest = tokens[1:]
    if len(rest) % 2:
        raise EdgeListError("dangling endpoint: odd number of endpoint tokens", rest[-1][1])
    edges = []
    for (ut, ul), (vt, vl) in zip(rest[::2], rest[1::2]):
        u, v = as_int(ut, ul), as_int(vt, vl)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", vl)
        if not (0 <= u < n):
            raise EdgeListError(f"endpoint {u} out of range for n={n}", ul)
        if not (0 <= v < n):
            raise EdgeListError(f"endpoint {v} out of range for n={n}", vl)
        edges.append((u, v))
    return Graph(n, edges)
