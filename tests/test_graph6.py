"""graph6 codec fidelity and edge-list parsing."""

import random
import tracemalloc

import networkx as nx
import pytest

from fracdel import (
    EdgeListError,
    Graph,
    Graph6Error,
    complete,
    extremal,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from fracdel.graph import _parse_graph6_within
from helpers import cycle_graph, gnp


def test_pinned_encodings():
    assert to_graph6(Graph(1)) == "@"
    assert to_graph6(complete(2)) == "A_"
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(extremal(7, 1)) == "F~~{?"
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("Bw") == complete(3)
    assert parse_graph6("F~~{?") == extremal(7, 1)


def test_header_and_trailing_newline_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete(3)
    assert parse_graph6("Bw\n") == complete(3)
    assert parse_graph6(">>graph6<<Bw\r\n") == complete(3)


def test_roundtrip_random():
    rng = random.Random(61)
    for _ in range(300):
        g = gnp(rng.randint(1, 62), rng.choice([0.1, 0.5, 0.9]), rng)
        s = to_graph6(g)
        assert parse_graph6(s) == g
        assert to_graph6(parse_graph6(s)) == s


def test_matches_networkx_codec():
    rng = random.Random(67)
    for _ in range(80):
        g = gnp(rng.randint(1, 70), rng.choice([0.2, 0.7]), rng)
        s = to_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(h, header=False).strip().decode() == s
        back = nx.from_graph6_bytes(s.encode())
        assert back.number_of_nodes() == g.n
        assert {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edges()}
    for n in (200, 257):  # the decoder on networkx's bytes, in the 4-byte size form
        h = nx.gnp_random_graph(n, 0.3, seed=n)
        g = parse_graph6(nx.to_graph6_bytes(h, header=False).strip().decode())
        assert g == Graph(n, h.edges())


def _encode(n, edges):
    """graph6 of (n, edges), written here from the format alone, without Graph."""
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = bytearray(b"0" * (nbits + -nbits % 6))  # padded up to whole 6-bit groups
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = ord("1")
    bits = bytes(bits)
    char = {format(c, "06b").encode(): chr(63 + c) for c in range(64)}
    return head + "".join([char[bits[k : k + 6]] for k in range(0, len(bits), 6)])


def test_decode_matches_the_edge_list_constructor():
    # the decoder builds adjacency rows straight from the payload; they must equal
    # Graph(n, edges) on every n up to the 4-byte size form, and on larger n in it
    rng = random.Random(71)
    cases = [(n, p) for n in range(1, 71) for p in (0.0, 0.2, 0.5, 1.0)]
    cases += [(n, p) for n in (128, 129, 130, 200, 257) for p in (0.2, 1.0)]
    for n, p in cases:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        line = _encode(n, edges)
        assert line.startswith("~") == (n > 62)
        g = parse_graph6(line)
        assert g == Graph(n, edges) and g.edge_count == len(edges)
        assert list(g.edges()) == edges


def test_encoder_matches_the_format_reference():
    # the encoder packs row masks in blocks of 32 columns and cuts them with base64; it
    # must write the format's bytes across the 62/63 size-form boundary and every
    # padding length: C(n, 2) mod 24 has period 48 in n, so n <= 70 sees every residue.
    # Blocks start at columns 32k + 1: n = 32k, 32k + 1 and 32k + 2 leave the last one a column
    # short, full, or holding one column.
    assert {n * (n - 1) // 2 % 24 for n in range(1, 71)} == {n * (n - 1) // 2 % 24 for n in range(1, 1000)}
    rng = random.Random(73)
    cases = [(n, p) for n in range(1, 71) for p in (0.0, 0.2, 0.5, 1.0)]
    cases += [(n, p) for n in (64, 65, 66, 128, 129, 130, 200, 257) for p in (0.2, 1.0)]
    for n, p in cases:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        line = to_graph6(g)
        assert line == _encode(n, edges)
        assert parse_graph6(line) == g


@pytest.mark.parametrize("path", [False, True], ids=["edgeless", "path"])
def test_encoder_on_a_large_line(path):
    n = 4097
    edges = [(i, i + 1) for i in range(n - 1)] if path else []
    g = Graph(n, edges)
    line = to_graph6(g)
    assert line == _encode(n, edges)
    assert parse_graph6(line) == g


@pytest.mark.parametrize("n", [63, 64, 100, 258])
def test_four_byte_size_form(n):
    g = cycle_graph(n)
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def _offset_of(exc_info) -> int:
    return exc_info.value.offset


def test_reject_empty():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("")
    assert _offset_of(ei) == 0
    with pytest.raises(Graph6Error):
        parse_graph6(">>graph6<<")


def test_reject_sparse6_and_digraph6():
    with pytest.raises(Graph6Error, match="sparse6"):
        parse_graph6(":Fa@x^")
    with pytest.raises(Graph6Error, match="sparse6"):
        parse_graph6(">>sparse6<<:Fa@x^")
    with pytest.raises(Graph6Error, match="digraph6"):
        parse_graph6("&DI?AO?")


def test_reject_size_byte_out_of_range():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6(chr(30) + "w")
    assert _offset_of(ei) == 0


def test_reject_n_zero():
    with pytest.raises(Graph6Error, match="n=0"):
        parse_graph6("?")


def test_reject_eight_byte_size_form():
    with pytest.raises(Graph6Error, match="8-byte"):
        parse_graph6("~~?????B?")


def test_reject_wrong_payload_length():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("Bww")  # one byte too many for n=3
    assert _offset_of(ei) == 2
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("D?")  # n=5 needs 2 payload bytes, got 1
    assert _offset_of(ei) == 2


def test_reject_bad_payload_byte():
    with pytest.raises(Graph6Error) as ei:
        parse_graph6("B" + chr(127))
    assert _offset_of(ei) == 1


def test_reject_bad_payload_byte_before_set_padding():
    # the first out-of-range byte is reported, even when the padding is also set
    with pytest.raises(Graph6Error, match="payload byte 32 out") as ei:
        parse_graph6("D" + chr(32) + chr(126))
    assert _offset_of(ei) == 1
    with pytest.raises(Graph6Error, match="payload byte 233 out") as ei:
        parse_graph6(">>graph6<<E~" + chr(233) + "?")
    assert _offset_of(ei) == 12
    with pytest.raises(Graph6Error, match="payload byte 127 out") as ei:
        parse_graph6("A" + chr(127))  # out of range and with padding bits set
    assert _offset_of(ei) == 1


def test_reject_set_padding_bits():
    # n=2 uses 1 of 6 payload bits; set a padding bit
    with pytest.raises(Graph6Error, match="padding") as ei:
        parse_graph6("A" + chr(63 + 16))
    assert _offset_of(ei) == 1
    # on K_n, whose edge bits are all set, the first padding bit alone, then the last alone,
    # is reported at the last payload byte, for every padding length and both size forms
    for n in range(2, 71):
        nbits = n * (n - 1) // 2
        if nbits % 6 == 0:
            continue
        line = _encode(n, complete(n).edges())
        need = (nbits + 5) // 6
        data_start = len(line) - need
        assert data_start == (1 if n <= 62 else 4)
        for bit in (5 - nbits % 6, 0):  # the group's bits run from its most significant
            bad = line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1 << bit))
            with pytest.raises(Graph6Error, match="padding") as ei:
                parse_graph6(bad)
            assert _offset_of(ei) == data_start + need - 1


def test_decode_peak_memory_on_a_large_line():
    # the payload is ~n^2/12 bytes and the row masks n^2/8: decoding holds a few copies of the
    # payload's bytes, never one object per bit
    n = 2000
    line = to_graph6(cycle_graph(n))
    tracemalloc.start()
    try:
        g = parse_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == cycle_graph(n)
    assert peak <= 0.3 * n * n, peak


def test_truncated_four_byte_size():
    with pytest.raises(Graph6Error):
        parse_graph6("~?")


def test_the_callers_ceiling_sees_n_from_the_size_field_before_any_decode():
    seen = []

    def refuse(n):
        seen.append(n)
        raise ValueError("refused")

    with pytest.raises(ValueError, match="refused"):
        _parse_graph6_within(">>graph6<<~?Tw??\n", refuse)  # n = 1400, with 2 of its 163 217 payload bytes
    with pytest.raises(Graph6Error, match="truncated 4-byte size field"):
        _parse_graph6_within("~?", refuse)  # a malformed size field fails first, as in parse_graph6
    assert seen == [1400]
    assert _parse_graph6_within("F~~{?\n", seen.append) == extremal(7, 1) and seen == [1400, 7]


def test_to_graph6_validation():
    with pytest.raises(ValueError):
        to_graph6(Graph(0))
    with pytest.raises(ValueError):
        to_graph6(Graph(258048))


# --- edge lists -------------------------------------------------------------


def test_parse_edge_list_basic():
    g = parse_edge_list("4\n0 1\n1 2  2 3\n")
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_parse_edge_list_duplicates_collapse():
    g = parse_edge_list("3 0 1 1 0")
    assert g.edge_count == 1


def test_parse_edge_list_isolated_vertices():
    g = parse_edge_list("5")
    assert g.n == 5 and g.edge_count == 0


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError) as ei:
        parse_edge_list("")
    assert ei.value.line == 1
    with pytest.raises(EdgeListError) as ei:
        parse_edge_list("3\n0 x")
    assert ei.value.line == 2
    with pytest.raises(EdgeListError) as ei:
        parse_edge_list("3\n0 1\n2 2")
    assert ei.value.line == 3
    with pytest.raises(EdgeListError) as ei:
        parse_edge_list("3\n0 1\n1 7")
    assert ei.value.line == 3
    with pytest.raises(EdgeListError, match="dangling") as ei:
        parse_edge_list("3\n0 1\n2")
    assert ei.value.line == 3
    with pytest.raises(EdgeListError):
        parse_edge_list("-2")
