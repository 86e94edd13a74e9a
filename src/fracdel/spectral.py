"""Dense symmetric eigensolver (cyclic Jacobi) and spectral bounds for graphs."""

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
MATRIX_GUARD = 4096  # largest n given a dense n x n matrix: one float64 matrix is then 128 MiB


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


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The dense adjacency matrix; ValueError above MATRIX_GUARD vertices, before any allocation."""
    if g.n > MATRIX_GUARD:
        raise ValueError(f"n={g.n} exceeds the {MATRIX_GUARD}-vertex limit of the dense spectral matrices")
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


def eigen_max_symmetric(m, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS) -> EigenResult:
    """Largest eigenvalue and eigenvector of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate every off-diagonal pair until the off-diagonal Frobenius
    norm is <= tol. Raises ConvergenceError if the sweep budget runs out or
    the final eigenpair residual still exceeds tol, and ValueError on
    non-square or non-symmetric input.
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
    converged = False
    for _ in range(max_sweeps):
        if _off_norm(a) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app, aqq = a[p, p], a[q, q]
                tau = (aqq - app) / (2.0 * apq)
                # hypot keeps sqrt(1 + tau^2) finite when tau^2 would overflow
                t = 1.0 / (tau + math.hypot(1.0, tau)) if tau >= 0 else 1.0 / (tau - math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                # closed forms for the rotated pair cut roundoff drift
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
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
    if g.n < 1:
        raise ValueError("spectral_summary requires n >= 1")
    ra = eigen_max_symmetric(adjacency_matrix(g), tol)
    rq = eigen_max_symmetric(signless_laplacian_matrix(g), tol)
    return SpectralSummary(rho=ra.value, q=rq.value, residual=max(ra.residual, rq.residual), tol=tol)


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
