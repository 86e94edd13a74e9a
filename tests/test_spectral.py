"""Eigensolver correctness and the published spectral bounds."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from fracdel import (
    MATRIX_GUARD,
    ConvergenceError,
    Graph,
    adjacency_matrix,
    complete,
    delete_edge,
    disjoint_union,
    eigen_max_symmetric,
    feng_yu_bound,
    hsf_bound,
    hsf_bound_at,
    signless_laplacian_matrix,
    signless_laplacian_radius,
    spectral_radius,
    spectral_summary,
)
from helpers import cycle_graph, gnp, path_graph, random_connected, star_graph


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
