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
    eigen_max_symmetric,
    extremal,
    feng_yu_bound,
    hsf_bound,
    hsf_bound_at,
    join,
    parse_edge_list,
    parse_graph6,
    signless_laplacian_matrix,
    signless_laplacian_radius,
    spectral_radius,
    spectral_summary,
    to_graph6,
)
from fracdel.spectral import _round_robin
from helpers import count_solves, cycle_graph, gnp, path_graph, random_connected, star_graph


def test_matrices():
    g = path_graph(3)
    a = adjacency_matrix(g)
    assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    q = signless_laplacian_matrix(g)
    assert q.tolist() == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]


def test_dense_matrices_are_refused_above_the_guard():
    g = Graph(MATRIX_GUARD + 1)  # edgeless, so the graph itself is small
    tracemalloc.start()
    try:
        for compute in (adjacency_matrix, signless_laplacian_matrix, spectral_radius, spectral_summary):
            with pytest.raises(ValueError, match="4096-vertex limit"):
                compute(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # one 4097 x 4097 float64 matrix is 128 MiB


def test_eigen_planted_spectrum():
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 12, 25):
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigenvalues = np.sort(rng.uniform(-5, 5, size=n))
        m = basis @ np.diag(eigenvalues) @ basis.T
        m = (m + m.T) / 2
        result = eigen_max_symmetric(m)
        assert abs(result.value - eigenvalues[-1]) <= 1e-8
        assert result.residual <= 1e-10
        assert np.allclose(m @ result.vector, result.value * result.vector, atol=1e-8)


def test_eigen_trivial_and_diagonal():
    value, vector, residual = eigen_max_symmetric([[4.5]])
    assert value == 4.5 and vector.tolist() == [1.0] and residual == 0.0
    result = eigen_max_symmetric(np.diag([3.0, -1.0, 7.0]))
    assert result.value == 7.0


def test_eigen_input_not_modified():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    eigen_max_symmetric(m)
    assert m.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_eigen_validation():
    with pytest.raises(ValueError):
        eigen_max_symmetric([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        eigen_max_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigen_max_symmetric([[1.0]], tol=0.0)
    with pytest.raises(ValueError):
        eigen_max_symmetric(np.zeros((0, 0)))


def test_eigen_unreachable_tolerance_raises():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2
    with pytest.raises(ConvergenceError) as ei:
        eigen_max_symmetric(m, tol=1e-300)
    assert ei.value.residual > 0


@pytest.mark.parametrize("n", range(1, 41))
def test_round_robin_schedule(n):
    p, q = _round_robin(n)
    assert p.shape == q.shape == (n - 1 + n % 2, n // 2)
    for rp, rq in zip(p, q):
        assert len(set(rp.tolist()) | set(rq.tolist())) == 2 * len(rp)  # disjoint within a round
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == list(combinations(range(n), 2))  # every p < q once per sweep


def _planted(rng, eigenvalues):
    basis, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    m = basis @ np.diag(eigenvalues) @ basis.T
    return (m + m.T) / 2


def test_eigen_matches_eigvalsh_at_odd_and_even_n():
    rng = np.random.default_rng(11)
    two_k4 = adjacency_matrix(disjoint_union(complete(4), complete(4)))  # top eigenvalue 3, twice
    blocks = np.zeros((9, 9))  # pairs only inside {0, 1}, {2, 3, 4} and {5, 6}: whole rounds are zero
    for cell in ([0, 1], [2, 3, 4], [5, 6]):
        blocks[np.ix_(cell, cell)] = _planted(rng, rng.uniform(-3, 3, size=len(cell)))
    p, q = _round_robin(9)
    assert any(not blocks[rp, rq].any() for rp, rq in zip(p, q))
    matrices = [two_k4, blocks, _planted(rng, rng.uniform(-9, -1, size=7)), _planted(rng, rng.uniform(-9, -1, size=11))]
    for n in (2, 3, 4, 5, 8, 13, 16, 31, 40):
        matrices.append(_planted(rng, rng.uniform(-5, 5, size=n)))
        matrices.append(adjacency_matrix(gnp(n, 0.5, random.Random(n))))
    for m in matrices:
        result = eigen_max_symmetric(m)
        assert abs(result.value - np.linalg.eigvalsh(m)[-1]) <= 1e-9
        assert 0 <= result.residual <= 1e-10
        assert abs(np.linalg.norm(result.vector) - 1.0) <= 1e-9
    assert eigen_max_symmetric(matrices[2]).value < -1 + 1e-9  # all-negative spectrum at odd n


@pytest.mark.filterwarnings("error")
def test_eigen_tiny_off_diagonal_rotates_by_zero_without_a_warning():
    # tau = (a_qq - a_pp) / (2 a_pq) overflows on the division, or on |tau| + hypot(1, tau)
    for tiny, corner in ((1e-310, 10.0), (5e-309, 1.0)):  # pair (1, 2) is rotated first, in round 0
        m = np.array([[0.5, 1.0, 0.0], [1.0, 0.0, tiny], [0.0, tiny, corner]])
        result = eigen_max_symmetric(m)
        assert abs(result.value - np.linalg.eigvalsh(m)[-1]) <= 1e-12 and result.residual <= 1e-10


def test_eigen_sweep_budget():
    rng = np.random.default_rng(23)
    m = _planted(rng, rng.uniform(-5, 5, size=12))
    with pytest.raises(ConvergenceError) as ei:
        eigen_max_symmetric(m, max_sweeps=1)
    assert ei.value.residual > 0
    for n in (7, 32):  # the small-angle rotations converge quadratically
        m = adjacency_matrix(gnp(n, 0.5, random.Random(n)))
        assert eigen_max_symmetric(m, max_sweeps=8).residual <= 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_graph_spectra(n):
    g = complete(n)
    assert abs(spectral_radius(g) - (n - 1)) <= 1e-9
    assert abs(signless_laplacian_radius(g) - (2 * n - 2)) <= 1e-9


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_spectra(n):
    g = cycle_graph(n)
    assert abs(spectral_radius(g) - 2.0) <= 1e-9
    assert abs(signless_laplacian_radius(g) - 4.0) <= 1e-9


def test_known_small_spectra():
    assert abs(signless_laplacian_radius(path_graph(3)) - 3.0) <= 1e-9
    assert abs(spectral_radius(star_graph(3)) - math.sqrt(3)) <= 1e-9
    assert abs(signless_laplacian_radius(star_graph(3)) - 4.0) <= 1e-9
    two_cliques = disjoint_union(complete(3), complete(2))
    assert abs(spectral_radius(two_cliques) - 2.0) <= 1e-9
    assert abs(signless_laplacian_radius(two_cliques) - 4.0) <= 1e-9


def test_isomorphism_invariance():
    rng = random.Random(13)
    for _ in range(10):
        g = gnp(rng.randint(2, 10), 0.5, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert abs(spectral_radius(g) - spectral_radius(h)) <= 1e-9
        assert abs(signless_laplacian_radius(g) - signless_laplacian_radius(h)) <= 1e-9


def test_edge_deletion_monotone():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected(rng.randint(3, 9), 0.6, rng)
        u, v = next(iter(g.edges()))
        h = delete_edge(g, u, v)
        assert spectral_radius(h) < spectral_radius(g) + 1e-10
        assert signless_laplacian_radius(h) <= signless_laplacian_radius(g) + 1e-9


def test_summary_fields_and_bounds():
    rng = random.Random(19)
    for _ in range(30):
        g = gnp(rng.randint(1, 10), rng.choice([0.2, 0.5, 0.9]), rng)
        s = spectral_summary(g)
        assert s.tol == 1e-10
        assert s.residual <= s.tol
        assert s.rho <= g.n - 1 + 1e-9
        assert s.q <= 2 * (g.n - 1) + 1e-9 or g.n == 1
        assert s.rho >= 2 * g.edge_count / g.n - 1e-9


def test_hsf_bound_dominates_rho():
    rng = random.Random(29)
    for _ in range(40):
        g = gnp(rng.randint(1, 10), rng.choice([0.3, 0.6, 0.9]), rng)
        assert hsf_bound(g) >= spectral_radius(g) - 1e-8


@pytest.mark.parametrize("g", [complete(5), complete(9), cycle_graph(6), cycle_graph(9)])
def test_hsf_bound_tight_on_regular(g):
    assert abs(hsf_bound(g) - spectral_radius(g)) <= 1e-8


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


def test_feng_yu_bound():
    assert abs(feng_yu_bound(path_graph(3)) - 3.0) <= 1e-12
    for n in (2, 5, 9):
        assert abs(feng_yu_bound(complete(n)) - (2 * n - 2)) <= 1e-12
        assert abs(feng_yu_bound(star_graph(n)) - (n + 1)) <= 1e-12
    rng = random.Random(43)
    for _ in range(25):
        g = random_connected(rng.randint(2, 10), 0.5, rng)
        assert feng_yu_bound(g) >= signless_laplacian_radius(g) - 1e-8
    with pytest.raises(ValueError):
        feng_yu_bound(disjoint_union(complete(2), complete(2)))
    with pytest.raises(ValueError):
        feng_yu_bound(Graph(1))


def test_spectral_summary_solves_once_per_graph_object_and_tol(monkeypatch):
    solves = count_solves(monkeypatch)
    g = gnp(12, 0.5, random.Random(3))
    first = spectral_summary(g)
    assert len(solves) == 2 and first.tol == 1e-10
    assert spectral_summary(g) is first and spectral_summary(g, 1e-10) is first
    assert len(solves) == 2

    loose = spectral_summary(g, 1e-6)  # another tol solves again and reports its own tol
    assert len(solves) == 4 and loose.tol == 1e-6 and loose.residual <= 1e-6
    assert abs(loose.rho - first.rho) <= 1e-6 and abs(loose.q - first.q) <= 1e-6
    assert spectral_summary(g, 1e-6) is loose and len(solves) == 4
    again = spectral_summary(g)  # the kept summary is now the 1e-6 one
    assert len(solves) == 6 and again.tol == 1e-10 and again == first

    twin = Graph(g.n, g.edges())  # equal, but another object
    assert twin == g and hash(twin) == hash(g) and twin is not g
    assert spectral_summary(twin) == first and len(solves) == 8
    assert spectral_summary(twin) is spectral_summary(twin) and len(solves) == 8


def test_a_failed_spectral_summary_is_not_kept(monkeypatch):
    g = complete(6)
    real = fracdel.spectral.eigen_max_symmetric

    def fails_on_q(m, *args, **kwargs):
        if m[0, 0] != 0.0:  # the signless Laplacian has the degrees on its diagonal
            raise ConvergenceError("no convergence within 0 sweeps", 1.0)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(fracdel.spectral, "eigen_max_symmetric", fails_on_q)
    with pytest.raises(ConvergenceError):
        spectral_summary(g)
    assert g._spectra is None
    monkeypatch.setattr(fracdel.spectral, "eigen_max_symmetric", real)
    solves = count_solves(monkeypatch)
    assert abs(spectral_summary(g).rho - 5.0) <= 1e-9 and len(solves) == 2
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
