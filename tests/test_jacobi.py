"""The Jacobi kernel behind ``spectral._top_pairs``: sweep budgets, stacking and when a matrix leaves.

These tests need the rotation itself; the solver's contract is tested in
test_spectral.py. A sweep budget is set by patching the module constant
``MAX_SWEEPS``, which ``_top_pairs`` reads at call time.
"""

import random

import numpy as np
import pytest

import fracdel.spectral
from fracdel import (
    ConvergenceError,
    adjacency_matrix,
    disjoint_union,
    extremal,
    extremal_spectra,
    signless_laplacian_matrix,
)
from fracdel.spectral import DEFAULT_TOL, _round_robin, _top_pairs
from helpers import gnp, planted


def _solo(m):
    return _top_pairs(np.asarray(m, dtype=float)[None])[0]


def _budget(monkeypatch, sweeps):
    monkeypatch.setattr(fracdel.spectral, "MAX_SWEEPS", sweeps)


def test_whole_rounds_of_zeros_rotate_by_nothing():
    # entries only inside {0, 1}, {2, 3, 4} and {5, 6} of n = 9: some rounds hold no nonzero pair at all
    rng = np.random.default_rng(11)
    blocks = np.zeros((9, 9))
    for cell in ([0, 1], [2, 3, 4], [5, 6]):
        blocks[np.ix_(cell, cell)] = planted(rng, rng.uniform(-3, 3, size=len(cell)))
    p, q = _round_robin(9)
    assert any(not blocks[rp, rq].any() for rp, rq in zip(p, q))
    value, bound = _solo(blocks)
    assert abs(value - np.linalg.eigvalsh(blocks)[-1]) <= 1e-9 and 0 <= bound <= 1e-10


def test_eigen_sweep_budget(monkeypatch):
    rng = np.random.default_rng(23)
    m = planted(rng, rng.uniform(-5, 5, size=12))
    _budget(monkeypatch, 1)
    with pytest.raises(ConvergenceError, match="no convergence within 1 sweeps") as ei:
        _solo(m)
    assert ei.value.residual > 0
    _budget(monkeypatch, 8)
    for n in (7, 32):  # the small-angle rotations converge quadratically
        m = adjacency_matrix(gnp(n, 0.5, random.Random(n)))
        assert _solo(m)[1] <= 1e-10


def test_stacked_matrices_return_their_solo_results(monkeypatch):
    rng = np.random.default_rng(41)
    diagonal = np.diag(rng.uniform(-5, 5, size=12))  # converged before the first sweep
    near = np.diag(np.arange(1.0, 13.0)) + 1e-6 * planted(rng, rng.uniform(-1, 1, size=12))
    spread = planted(rng, rng.uniform(-5, 5, size=12))
    stack = np.stack((diagonal, near, spread))
    assert _top_pairs(stack) == [_solo(m) for m in stack]
    _budget(monkeypatch, 0)
    assert _solo(diagonal)[1] == 0.0
    _budget(monkeypatch, 1)
    with pytest.raises(ConvergenceError) as solo:
        _solo(spread)
    with pytest.raises(ConvergenceError) as stacked:  # the second matrix needs more than one sweep
        _top_pairs(np.stack((diagonal, spread)))
    assert stacked.value.residual == solo.value.residual > 0


def test_a_separated_top_pair_leaves_once_certified(monkeypatch):
    # the top pair of extremal(60, 2)'s Q is certified after 3 sweeps, while the off-diagonal norm is still 2e-6;
    # it falls to tol only after 9
    _budget(monkeypatch, 5)
    value, bound = _solo(signless_laplacian_matrix(extremal(60, 2)))
    assert abs(value - extremal_spectra(60, 2)[1]) <= 1e-12 and bound <= DEFAULT_TOL


def test_a_repeated_top_converges_within_ten_sweeps(monkeypatch):
    # two copies of extremal(40, 2) have their top eigenvalue twice, so A leaves on off <= tol, after 8 sweeps; a
    # round that wrote the closed-form diagonal back after each rotation took 15
    _budget(monkeypatch, 10)
    value, bound = _solo(adjacency_matrix(disjoint_union(extremal(40, 2), extremal(40, 2))))
    assert abs(value - extremal_spectra(40, 2)[0]) <= 1e-9 and bound <= DEFAULT_TOL
