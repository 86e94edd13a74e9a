"""Dense symmetric eigensolver (Jacobi) and spectral bounds for graphs.

``eigen_max_symmetric`` sweeps in the parallel (round-robin) order and applies
each round's disjoint rotations together, as one orthogonal matrix product.

``spectral_summary`` solves rho and q of a graph once per Graph object and
tol: the result is kept on the graph itself and returned by later calls with
the same tol, so evaluating several conditions on one graph pays one pair of
solves. A failed solve is not kept. ``spectral_radius`` and
``signless_laplacian_radius`` always solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, is_connected

__all__ = [
    "DEFAULT_TOL",
    "MATRIX_GUARD",
    "ConvergenceError",
    "EigenResult",
    "SpectralSummary",
    "adjacency_matrix",
    "signless_laplacian_matrix",
    "eigen_max_symmetric",
    "spectral_radius",
    "signless_laplacian_radius",
    "spectral_summary",
    "hsf_bound",
    "hsf_bound_at",
    "feng_yu_bound",
]

DEFAULT_TOL = 1e-10
MAX_SWEEPS = 100
MATRIX_GUARD = 4096  # largest n given dense n x n matrices: 128 MiB each, and a solve holds about 6 at its peak


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance. Carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class EigenResult(NamedTuple):
    value: float
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class SpectralSummary:
    """Adjacency spectral radius and signless Laplacian radius of one graph.

    ``residual`` is the larger of the two eigenpair residuals |Mx - λx|_inf;
    it is guaranteed <= ``tol``.
    """

    rho: float
    q: float
    residual: float
    tol: float


def _check_matrix_guard(n: int) -> None:
    """ValueError when an n-vertex graph is past MATRIX_GUARD."""
    if n > MATRIX_GUARD:
        raise ValueError(f"n={n} exceeds the {MATRIX_GUARD}-vertex limit of the dense spectral matrices")


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The dense adjacency matrix; ValueError above MATRIX_GUARD vertices, before any allocation."""
    _check_matrix_guard(g.n)
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """D + A where D is the diagonal degree matrix."""
    q = adjacency_matrix(g)
    q[np.diag_indices(g.n)] = g.degrees()
    return q


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's schedule: row r of (p, q) holds the disjoint pairs p < q of round r.

    The circle method on m = n rounded up to even: round r pairs r with m - 1,
    and r + i with r - i (mod m - 1) for 0 < i < m/2, so each pair falls in
    exactly one of the m - 1 rounds. For odd n, column 0 (the pairs with the
    phantom vertex m - 1 = n) is dropped.
    """
    m = n + (n & 1)
    r, i = np.arange(m - 1)[:, None], np.arange(m // 2)
    p, q = (r + i) % (m - 1), (r - i) % (m - 1)
    q[:, 0] = m - 1
    return np.minimum(p, q)[:, n & 1 :], np.maximum(p, q)[:, n & 1 :]


def eigen_max_symmetric(m, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS) -> EigenResult:
    """Largest eigenvalue and eigenvector of a symmetric matrix by parallel-ordered Jacobi.

    A sweep is the m - 1 rounds of ``_round_robin`` (m = n rounded up to even).
    The rotations of one round act on disjoint pairs, so they commute and are
    applied at once as one orthogonal ``rot``: a = rot.T @ a @ rot. Sweeps run
    until the off-diagonal Frobenius norm is <= tol. Raises ConvergenceError
    if the sweep budget runs out or the final eigenpair residual still exceeds
    tol, and ValueError on non-square or non-symmetric input.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    original = np.asarray(m, dtype=float)
    if original.ndim != 2 or original.shape[0] != original.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {original.shape}")
    n = original.shape[0]
    if n == 0:
        raise ValueError("expected a nonempty matrix")
    scale = max(1.0, float(np.max(np.abs(original))))
    if float(np.max(np.abs(original - original.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")

    a = (original + original.T) / 2.0
    if n == 1:
        return EigenResult(float(a[0, 0]), np.array([1.0]), 0.0)

    v = np.eye(n)
    rounds = list(zip(*_round_robin(n)))
    converged = False
    for _ in range(max_sweeps):
        if _off_norm(a) <= tol:
            converged = True
            break
        for p, q in rounds:
            live = np.flatnonzero(a[p, q])
            if not live.size:
                continue
            p, q = p[live], q[live]
            apq, app, aqq = a[p, q], a[p, p], a[q, q]
            with np.errstate(over="ignore"):  # a tiny a_pq overflows tau or |tau| + hypot to inf: t = 0, its limit
                tau = (aqq - app) / (2.0 * apq)
                # the small angle; hypot keeps sqrt(1 + tau^2) finite when tau^2 would overflow
                t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            rot = np.eye(n)
            rot[p, p] = rot[q, q] = c
            rot[p, q], rot[q, p] = t * c, -t * c
            a = rot.T @ a @ rot
            a[p, q] = a[q, p] = 0.0
            a[p, p], a[q, q] = app - t * apq, aqq + t * apq  # closed forms cut roundoff drift
            v = v @ rot
    if not converged and _off_norm(a) > tol:
        raise ConvergenceError(f"no convergence within {max_sweeps} sweeps", _off_norm(a))

    idx = int(np.argmax(np.diag(a)))
    value = float(a[idx, idx])
    vector = v[:, idx].copy()
    residual = float(np.max(np.abs(original @ vector - value * vector)))
    if residual > tol:
        raise ConvergenceError("eigenpair residual exceeds tol", residual)
    return EigenResult(value, vector, residual)


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """ρ(G): largest adjacency eigenvalue."""
    if g.n < 1:
        raise ValueError("spectral_radius requires n >= 1")
    return eigen_max_symmetric(adjacency_matrix(g), tol).value


def signless_laplacian_radius(g: Graph, tol: float = DEFAULT_TOL) -> float:
    """q(G): largest eigenvalue of D + A."""
    if g.n < 1:
        raise ValueError("signless_laplacian_radius requires n >= 1")
    return eigen_max_symmetric(signless_laplacian_matrix(g), tol).value


def spectral_summary(g: Graph, tol: float = DEFAULT_TOL) -> SpectralSummary:
    """ρ(G) and q(G), solved on the first call for this Graph object and tol.

    The summary is kept on ``g`` (one per graph, replaced by a call with
    another tol) and returned as is by later calls with the same tol. A call
    that raises keeps nothing, so the next one solves again.
    """
    kept = g._spectra
    if kept is not None and kept.tol == tol:
        return kept
    if g.n < 1:
        raise ValueError("spectral_summary requires n >= 1")
    ra = eigen_max_symmetric(adjacency_matrix(g), tol)
    rq = eigen_max_symmetric(signless_laplacian_matrix(g), tol)
    g._spectra = SpectralSummary(rho=ra.value, q=rq.value, residual=max(ra.residual, rq.residual), tol=tol)
    return g._spectra


def hsf_bound_at(e: int, n: int, x: float) -> float:
    """(x-1)/2 + sqrt(2e - nx + ((x+1)/2)^2), decreasing in x where defined.

    Raises ValueError when the radicand is negative (the bound is undefined
    there; with x at most the minimum degree the radicand is always >= 0).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0 <= e <= n * (n - 1) // 2):
        raise ValueError(f"edge count {e} out of range for n={n}")
    if not (0 <= x <= n - 1):
        raise ValueError(f"x={x} out of range [0, {n - 1}]")
    radicand = 2.0 * e - n * x + (x + 1.0) ** 2 / 4.0
    if radicand < 0:
        raise ValueError(f"bound undefined: negative radicand {radicand} at x={x}")
    return (x - 1.0) / 2.0 + math.sqrt(radicand)


def hsf_bound(g: Graph) -> float:
    """Degree/size upper bound on ρ(G), evaluated at x = δ(G).

    Equals (δ-1)/2 + sqrt(2e - nδ + ((δ+1)/2)^2); tight on regular graphs.
    """
    if g.n < 1:
        raise ValueError("hsf_bound requires n >= 1")
    # 2e >= n*delta makes the radicand >= ((delta+1)/2)^2 > 0
    return hsf_bound_at(g.edge_count, g.n, g.min_degree())


def feng_yu_bound(g: Graph) -> float:
    """Upper bound 2e/(n-1) + n - 2 on q(G); requires a connected graph on n >= 2."""
    if g.n < 2:
        raise ValueError("feng_yu_bound requires n >= 2")
    if not is_connected(g):
        raise ValueError("feng_yu_bound requires a connected graph")
    return 2.0 * g.edge_count / (g.n - 1) + g.n - 2.0
