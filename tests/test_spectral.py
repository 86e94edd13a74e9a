"""Eigensolver correctness and the published spectral bounds."""

import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import fracdel.spectral
from fracdel import (
    MATRIX_GUARD,
    ConvergenceError,
    Graph,
    adjacency_matrix,
    complete,
    delete_edge,
    delete_vertices,
    disjoint_union,
    extremal,
    extremal_spectra,
    feng_yu_bound,
    graphs_with_min_edges,
    hsf_bound,
    hsf_bound_at,
    join,
    parse_edge_list,
    parse_graph6,
    signless_laplacian_matrix,
    spectral_summary,
    to_graph6,
)
from fracdel.spectral import DEFAULT_TOL, _round_robin
from helpers import count_solves, cycle_graph, eigh_top_pairs, gnp, path_graph, planted, random_connected, star_graph


def _solvers():
    """The package's solver seam and the test-side LAPACK one: each contract test holds both to its assertions."""
    return fracdel.spectral._top_pairs, eigh_top_pairs


def _solo(m, top_pairs=None):
    """(top eigenvalue, error bound) of one symmetric matrix: a solver, the package's by default, on a stack of one."""
    return (top_pairs or fracdel.spectral._top_pairs)(np.asarray(m, dtype=float)[None])[0]


def test_matrices():
    g = path_graph(3)
    a = adjacency_matrix(g)
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    q = signless_laplacian_matrix(g)
    assert q.tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]


def test_matrices_from_the_row_masks_equal_an_edge_list_build():
    # rows past 64 bits (n = 65, 200) and edgeless graphs too; Q's diagonal is the degrees
    rng = random.Random(5531)
    for n in (1, 7, 32, 65, 200):
        for p in (0.0, 0.1, 0.5, 0.9):
            g = gnp(n, p, rng)
            want = np.zeros((n, n))
            for u, v in g.edges():
                want[u, v] = want[v, u] = 1.0
            a = adjacency_matrix(g)
            assert a.dtype == np.float64 and np.array_equal(a, want), (n, p)
            want[np.diag_indices(n)] = g.degrees()
            assert np.array_equal(signless_laplacian_matrix(g), want), (n, p)


def test_dense_matrices_are_refused_above_the_guard():
    g = Graph(MATRIX_GUARD + 1)  # edgeless, so the graph itself is small
    tracemalloc.start()
    try:
        for compute in (adjacency_matrix, signless_laplacian_matrix, spectral_summary):
            with pytest.raises(ValueError, match="4096-vertex limit"):
                compute(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # one 4097 x 4097 float64 matrix is 128 MiB


def test_dense_matrices_are_built_at_the_guard(monkeypatch):
    # the guard admits n = MATRIX_GUARD itself: the 128 MiB matrix is asked for, not refused
    class Asked(Exception):
        pass

    def empty(shape, *args, **kwargs):
        raise Asked(shape)

    monkeypatch.setattr(np, "empty", empty)
    with pytest.raises(Asked) as asked:
        adjacency_matrix(Graph(MATRIX_GUARD))
    assert asked.value.args == ((1, MATRIX_GUARD, MATRIX_GUARD),)


# --- the solver seam's contract, held by the package's _top_pairs and by helpers.eigh_top_pairs alike ----------


def test_eigen_planted_spectrum():
    for top_pairs in _solvers():
        rng = np.random.default_rng(5)
        for n in (2, 3, 6, 12, 25):
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            eigenvalues = np.sort(rng.uniform(-5, 5, size=n))
            m = basis @ np.diag(eigenvalues) @ basis.T
            m = (m + m.T) / 2
            value, residual = _solo(m, top_pairs)
            assert abs(value - eigenvalues[-1]) <= 1e-8, top_pairs
            assert residual <= 1e-10, top_pairs


def test_eigen_trivial_and_diagonal():
    for top_pairs in _solvers():
        assert _solo([[4.5]], top_pairs) == (4.5, 0.0), top_pairs
        assert _solo(np.diag([3.0, -1.0, 7.0]), top_pairs) == (7.0, 0.0), top_pairs


def test_eigen_input_not_modified():
    for top_pairs in _solvers():
        m = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]]])
        top_pairs(m)
        assert m.tolist() == [[[0.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]]], top_pairs


def test_eigen_unreachable_tolerance_raises(monkeypatch):
    # DEFAULT_TOL is read at call time: no bound on this matrix's top eigenvalue can be certified within 1e-300
    monkeypatch.setattr(fracdel.spectral, "DEFAULT_TOL", 1e-300)
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2
    for top_pairs in _solvers():
        with pytest.raises(ConvergenceError) as ei:
            _solo(m, top_pairs)
        assert ei.value.residual > 0, top_pairs


def test_eigen_matches_eigvalsh_at_odd_and_even_n():
    rng = np.random.default_rng(11)
    two_k4 = adjacency_matrix(disjoint_union(complete(4), complete(4)))  # top eigenvalue 3, twice
    blocks = np.zeros((9, 9))  # entries only inside {0, 1}, {2, 3, 4} and {5, 6}
    for cell in ([0, 1], [2, 3, 4], [5, 6]):
        blocks[np.ix_(cell, cell)] = planted(rng, rng.uniform(-3, 3, size=len(cell)))
    matrices = [two_k4, blocks, planted(rng, rng.uniform(-9, -1, size=7)), planted(rng, rng.uniform(-9, -1, size=11))]
    for n in (2, 3, 4, 5, 8, 13, 16, 31, 40):
        matrices.append(planted(rng, rng.uniform(-5, 5, size=n)))
        matrices.append(adjacency_matrix(gnp(n, 0.5, random.Random(n))))
    for top_pairs in _solvers():
        for m in matrices:
            value, residual = _solo(m, top_pairs)
            assert abs(value - np.linalg.eigvalsh(m)[-1]) <= 1e-9, top_pairs
            assert 0 <= residual <= 1e-10, top_pairs
        assert _solo(matrices[2], top_pairs)[0] < -1 + 1e-9  # all-negative spectrum at odd n


@pytest.mark.filterwarnings("error")
def test_eigen_tiny_off_diagonal_rotates_by_zero_without_a_warning():
    # a Jacobi angle from tau = (a_qq - a_pp) / (2 a_pq) overflows on the division, or on |tau| + hypot(1, tau)
    for top_pairs in _solvers():
        for tiny, corner in ((1e-310, 10.0), (5e-309, 1.0)):  # Jacobi rotates pair (1, 2) first, in round 0
            m = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, tiny], [0.0, tiny, corner]])
            value, residual = _solo(m, top_pairs)
            assert abs(value - np.linalg.eigvalsh(m)[-1]) <= 1e-12 and residual <= 1e-10, top_pairs


def test_eigen_non_finite_input_raises():
    for top_pairs in _solvers():
        for m in ([[np.inf, 1.0], [1.0, 0.0]], [[np.nan, 1.0], [1.0, 0.0]], [[0.0, np.nan], [np.nan, 0.0]]):
            with pytest.raises(ConvergenceError) as ei, np.errstate(invalid="ignore"):
                _solo(m, top_pairs)
            assert math.isnan(ei.value.residual), top_pairs


def test_spectral_summary_equals_the_solo_solves():
    # A and Q are solved as one stack, and each must come out as if solved alone
    rng = random.Random(37)
    graphs = [gnp(n, 0.5, rng) for n in (1, 2, 3, 7, 8, 13, 32)]
    graphs += [disjoint_union(complete(3), path_graph(4)), disjoint_union(complete(4), complete(4)), extremal(9, 2)]
    for g in graphs:
        s = spectral_summary(g)
        (rho, ra), (q, rq) = _solo(adjacency_matrix(g)), _solo(signless_laplacian_matrix(g))
        assert (s.rho, s.q, s.residual) == (rho, q, max(ra, rq))


def _top_in_long_double(stack):
    """The top eigenvalue of each symmetric matrix of the stack, as eigh's Rayleigh quotient in long double,
    with the rounding of that quotient: about n long-double epsilons, relative."""
    vectors = np.linalg.eigh(stack)[1][..., -1].astype(np.longdouble)
    quotient = np.einsum("ki,kij,kj->k", vectors, stack.astype(np.longdouble), vectors)
    quotient /= np.einsum("ki,ki->k", vectors, vectors)
    return quotient, stack.shape[-1] * np.finfo(np.longdouble).eps * np.abs(quotient)


def _repeated_tops():
    """Graphs whose A and Q each have a repeated top eigenvalue, so no gap for a Kato-Temple interval."""
    yield from (disjoint_union(complete(n), complete(n)) for n in range(10, 41))
    yield from (disjoint_union(extremal(n, 2), extremal(n, 2)) for n in (20, 40, 60))
    yield disjoint_union(disjoint_union(cycle_graph(9), cycle_graph(9)), cycle_graph(9))


def _certified_radii_corpus():
    """Graphs whose rho and q must lie in their certified intervals: simple tops and repeated ones."""
    rng = random.Random(20260816)  # the benchmark's seeded G(32, 1/2)
    yield from graphs_with_min_edges(7, 17)
    yield from (gnp(32, 0.5, rng) for _ in range(120))
    yield from (extremal(n, a) for n in range(40, 101, 5) for a in (1, 2, 3, 5))
    yield from _repeated_tops()
    yield from (Graph(1), Graph(2), complete(2))


def _against_long_double(graphs, top_pairs):
    """(n, value, bound, top, allowed) for A and Q of each graph, solved by top_pairs a stack of two at a time.

    top is the long-double reference; allowed is the value's own rounding, a sum of n products off by a few ulps
    growing about like sqrt(n), plus the reference's.
    """
    by_n = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(g)
    for n, group in by_n.items():
        stacks = [np.stack((adjacency_matrix(g), signless_laplacian_matrix(g))) for g in group]
        want, rounding = _top_in_long_double(np.concatenate(stacks))
        got = [pair for stack in stacks for pair in top_pairs(stack)]
        for (value, bound), top, slack in zip(got, want, rounding):
            yield n, value, bound, top, (3 + math.sqrt(n) / 2) * np.spacing(abs(value)) + slack


def test_each_top_eigenvalue_lies_in_its_certified_interval():
    # rho and q come with an error bound: the top eigenvalue lies in [value, value + bound], up to the value's
    # rounding. Read off Jacobi's rotated diagonal in its place, the value is off by up to 19 ulps on the dense-7
    # graphs and 43 on the G(32, 1/2)
    for top_pairs in _solvers():
        for n, value, bound, top, allowed in _against_long_double(_certified_radii_corpus(), top_pairs):
            assert 0 <= bound <= DEFAULT_TOL, (top_pairs, n, value, bound)
            assert value - allowed <= top <= value + bound + allowed, (top_pairs, n, value, bound, float(top - value))


def test_a_repeated_top_eigenvalue_is_off_by_its_rounding_alone():
    # at a repeated top the value is the Rayleigh quotient too, within its rounding of the top eigenvalue, the bound
    # aside. Jacobi's top diagonal entry in its place was 11 ulps off on Q of 2K_32 (7.1 allowed) and 6 on A of 3C_9
    for top_pairs in _solvers():
        for n, value, bound, top, allowed in _against_long_double(_repeated_tops(), top_pairs):
            assert abs(top - value) <= allowed, (top_pairs, n, value, float(top - value), allowed)


def test_a_top_diagonal_entry_below_the_weyl_bound_is_not_certified():
    # e_0 is an exact eigenvector for 5 and tops the diagonal, but 10 is the top eigenvalue: the second diagonal
    # entry plus the off-diagonal norm bounds every eigenvalue but the top one, and lies above 5
    m = np.zeros((3, 3))
    m[0, 0], m[1:, 1:] = 5.0, [[4.0, 6.0], [6.0, 4.0]]
    for top_pairs in _solvers():
        value, bound = _solo(m, top_pairs)
        assert abs(value - 10.0) <= 1e-14 and bound <= 1e-15, top_pairs


def test_the_certificate_is_relative_to_the_top_eigenvalue():
    # scaling by a power of two is exact, and the certificate scales with it: 2^10 M's value and bound are exactly
    # 2^10 times M's
    for top_pairs in _solvers():
        rng = random.Random(61)
        for n in (7, 12, 20, 32):
            g = gnp(n, 0.5, rng)
            for m in (adjacency_matrix(g), signless_laplacian_matrix(g)):
                value, bound = _solo(m, top_pairs)
                assert _solo(1024.0 * m, top_pairs) == (1024.0 * value, 1024.0 * bound), (top_pairs, n)


# --- rho and q of graphs, and the published bounds on them ----------------------------------------------------


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_graph_spectra(n):
    g = complete(n)
    assert abs(spectral_summary(g).rho - (n - 1)) <= 1e-9
    assert abs(spectral_summary(g).q - (2 * n - 2)) <= 1e-9


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_spectra(n):
    g = cycle_graph(n)
    assert abs(spectral_summary(g).rho - 2.0) <= 1e-9
    assert abs(spectral_summary(g).q - 4.0) <= 1e-9


def test_known_small_spectra():
    assert abs(spectral_summary(path_graph(3)).q - 3.0) <= 1e-9
    assert abs(spectral_summary(star_graph(3)).rho - math.sqrt(3)) <= 1e-9
    assert abs(spectral_summary(star_graph(3)).q - 4.0) <= 1e-9
    two_cliques = disjoint_union(complete(3), complete(2))
    assert abs(spectral_summary(two_cliques).rho - 2.0) <= 1e-9
    assert abs(spectral_summary(two_cliques).q - 4.0) <= 1e-9


def test_isomorphism_invariance():
    rng = random.Random(13)
    for _ in range(10):
        g = gnp(rng.randint(2, 10), 0.5, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert abs(spectral_summary(g).rho - spectral_summary(h).rho) <= 1e-9
        assert abs(spectral_summary(g).q - spectral_summary(h).q) <= 1e-9


def test_edge_deletion_monotone():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected(rng.randint(3, 9), 0.6, rng)
        u, v = next(iter(g.edges()))
        h = delete_edge(g, u, v)
        assert spectral_summary(h).rho < spectral_summary(g).rho + 1e-10
        assert spectral_summary(h).q <= spectral_summary(g).q + 1e-9


def test_summary_fields_and_bounds():
    rng = random.Random(19)
    for _ in range(30):
        g = gnp(rng.randint(1, 10), rng.choice([0.2, 0.5, 0.9]), rng)
        s = spectral_summary(g)
        assert s.residual <= DEFAULT_TOL == 1e-10
        assert s.rho <= g.n - 1 + 1e-9
        assert s.q <= 2 * (g.n - 1) + 1e-9 or g.n == 1
        assert s.rho >= 2 * g.edge_count / g.n - 1e-9


def test_hsf_bound_dominates_rho():
    rng = random.Random(29)
    for _ in range(40):
        g = gnp(rng.randint(1, 10), rng.choice([0.3, 0.6, 0.9]), rng)
        assert hsf_bound(g) >= spectral_summary(g).rho - 1e-8


@pytest.mark.parametrize("g", [complete(5), complete(9), cycle_graph(6), cycle_graph(9)])
def test_hsf_bound_tight_on_regular(g):
    assert abs(hsf_bound(g) - spectral_summary(g).rho) <= 1e-8


def test_hsf_bound_at_decreasing():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 30)
        e = rng.randint(0, n * (n - 1) // 2)
        xs = np.linspace(0, n - 1, 40)
        prev = None
        for x in xs:
            try:
                val = hsf_bound_at(e, n, float(x))
            except ValueError:
                break  # left the bound's domain; nothing beyond is defined
            if prev is not None:
                assert val <= prev + 1e-9
            prev = val


def test_hsf_bound_at_validation():
    with pytest.raises(ValueError, match="radicand"):
        hsf_bound_at(0, 2, 1.0)
    with pytest.raises(ValueError):
        hsf_bound_at(5, 3, 1.0)  # e too large
    with pytest.raises(ValueError):
        hsf_bound_at(1, 3, 3.0)  # x out of range
    assert hsf_bound_at(0, 1, 0.0) == 0.0


def test_hsf_bound_at_takes_integer_counts():
    # e and n are counts: a float raises instead of being used as a real; x stays real
    for e, n in ((3.5, 4), (3.0, 4), (3, 4.0)):
        with pytest.raises(TypeError):
            hsf_bound_at(e, n, 1.0)
    assert hsf_bound_at(np.int64(3), np.int64(4), 1.0) == hsf_bound_at(3, 4, 1) == hsf_bound_at(3, 4, 1.0)


def test_feng_yu_bound():
    assert abs(feng_yu_bound(path_graph(3)) - 3.0) <= 1e-12
    for n in (2, 5, 9):
        assert abs(feng_yu_bound(complete(n)) - (2 * n - 2)) <= 1e-12
        assert abs(feng_yu_bound(star_graph(n)) - (n + 1)) <= 1e-12
    rng = random.Random(43)
    for _ in range(25):
        g = random_connected(rng.randint(2, 10), 0.5, rng)
        assert feng_yu_bound(g) >= spectral_summary(g).q - 1e-8
    with pytest.raises(ValueError):
        feng_yu_bound(disjoint_union(complete(2), complete(2)))
    with pytest.raises(ValueError):
        feng_yu_bound(Graph(1))


def test_spectral_summary_solves_once_per_graph_object(monkeypatch):
    solves = count_solves(monkeypatch)
    g = gnp(12, 0.5, random.Random(3))
    first = spectral_summary(g)
    assert len(solves) == 2 and first.residual <= DEFAULT_TOL
    assert spectral_summary(g) is first and g._spectra is first
    assert len(solves) == 2

    twin = Graph(g.n, g.edges())  # equal, but another object
    assert twin == g and hash(twin) == hash(g) and twin is not g
    assert spectral_summary(twin) == first and len(solves) == 4
    assert spectral_summary(twin) is spectral_summary(twin) and len(solves) == 4
    with pytest.raises(TypeError):  # no tolerance to pass
        spectral_summary(g, 1e-6)


def test_a_failed_spectral_summary_is_not_kept(monkeypatch):
    g = complete(6)
    real = fracdel.spectral._top_pairs

    def fails_on_q(m):
        if any(x[0, 0] != 0.0 for x in m):  # the signless Laplacian has the degrees on its diagonal
            raise ConvergenceError("planted failure", 1.0)
        return real(m)

    monkeypatch.setattr(fracdel.spectral, "_top_pairs", fails_on_q)
    with pytest.raises(ConvergenceError):
        spectral_summary(g)
    assert g._spectra is None
    monkeypatch.setattr(fracdel.spectral, "_top_pairs", real)
    solves = count_solves(monkeypatch)
    kept = spectral_summary(g)
    assert abs(kept.rho - 5.0) <= 1e-9 and len(solves) == 2
    assert spectral_summary(g) is kept and len(solves) == 2
    for bad in (Graph(0), Graph(MATRIX_GUARD + 1)):
        with pytest.raises(ValueError):
            spectral_summary(bad)
        assert bad._spectra is None


def test_every_construction_path_starts_without_spectra():
    base = complete(5)
    spectral_summary(base)
    assert base._spectra is not None
    built = [
        Graph(4, [(0, 1), (2, 3)]),
        complete(4),
        join(base, base),
        disjoint_union(base, base),
        extremal(8, 2),
        delete_edge(base, 0, 1),
        delete_vertices(base, [0])[0],
        parse_graph6(to_graph6(base)),
        parse_edge_list("3 0 1 1 2"),
    ]
    assert all(g._spectra is None for g in built)
    assert built[7] == base  # equal to a graph with a kept summary, yet starts empty


# --- the Jacobi kernel's round schedule; its other tests are in test_jacobi.py ----------------------------------


@pytest.mark.parametrize("n", range(1, 41))
def test_round_robin_schedule(n):
    p, q = _round_robin(n)
    assert p.shape == q.shape == (n - 1 + n % 2, n // 2)
    for rp, rq in zip(p, q):
        assert len(set(rp.tolist()) | set(rq.tolist())) == 2 * len(rp)  # disjoint within a round
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == list(combinations(range(n), 2))  # every p < q once per sweep
