"""Dense symmetric eigensolver (Jacobi) and spectral bounds for graphs.

``_jacobi`` solves a (k, n, n) stack of symmetric matrices together. It
sweeps in the parallel (round-robin) order, and each round applies its
disjoint rotations to all k matrices at once, as one batched product with
orthogonal matrices. A matrix leaves the stack once it has converged.
``spectral_summary``, the one way to rho and q, hands it A and D + A as one
stack of two at the fixed tolerance ``DEFAULT_TOL``.

``spectral_summary`` solves rho and q of a graph once per Graph object: the
result is kept on the graph itself and returned by later calls, so
evaluating several conditions on one graph pays one pair of solves. A failed
solve is not kept.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graph import Graph, _graph6_size, is_connected

if TYPE_CHECKING:  # numpy is imported where it computes, so importing this module does not load it
    import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "MATRIX_GUARD",
    "ConvergenceError",
    "SpectralSummary",
    "adjacency_matrix",
    "signless_laplacian_matrix",
    "spectral_summary",
    "hsf_bound",
    "hsf_bound_at",
    "feng_yu_bound",
]

DEFAULT_TOL = 1e-10
MAX_SWEEPS = 100
# largest n given dense n x n matrices: 128 MiB each. spectral_summary holds about 11
# at its peak, and 13 while the round schedule for that n is not yet cached.
MATRIX_GUARD = 4096


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance. Carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectralSummary:
    """Adjacency spectral radius and signless Laplacian radius of one graph.

    ``residual`` is the larger of the two eigenpair residuals |Mx - λx|_inf;
    it is guaranteed <= ``DEFAULT_TOL``.
    """

    rho: float
    q: float
    residual: float


def _check_matrix_guard(n: int) -> None:
    """ValueError when an n-vertex graph is past MATRIX_GUARD."""
    if n > MATRIX_GUARD:
        raise ValueError(f"n={n} exceeds the {MATRIX_GUARD}-vertex limit of the dense spectral matrices")


def _check_graph6_guard(line: str) -> None:
    """ValueError when a graph6 line's size field is past MATRIX_GUARD, read before its payload is decoded."""
    _check_matrix_guard(_graph6_size(line.rstrip("\r\n"))[0])


def _adjacency_stack(g: Graph, k: int) -> np.ndarray:
    """k copies of the adjacency matrix in one (k, n, n) array; ValueError above MATRIX_GUARD, before any allocation."""
    _check_matrix_guard(g.n)
    import numpy as np
    n, w = g.n, (g.n + 7) // 8  # each row mask as w little-endian bytes, unpacked to its n low bits
    rows = np.frombuffer(b"".join(r.to_bytes(w, "little") for r in g._rows), dtype=np.uint8).reshape(n, w)
    m = np.empty((k, n, n))
    m[:] = np.unpackbits(rows, axis=1, count=n, bitorder="little")
    return m


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The dense adjacency matrix; ValueError above MATRIX_GUARD vertices, before any allocation."""
    return _adjacency_stack(g, 1)[0]


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """D + A where D is the diagonal degree matrix."""
    import numpy as np
    q = adjacency_matrix(g)
    q[np.diag_indices(g.n)] = g.degrees()
    return q


def _off_norms(a: np.ndarray, scratch: np.ndarray) -> list[float]:
    """The off-diagonal Frobenius norm of each matrix of the stack a, worked out in scratch (same shape)."""
    import numpy as np
    np.copyto(scratch, a)
    scratch.reshape(len(a), -1)[:, :: a.shape[-1] + 1] = 0.0
    return [float(np.linalg.norm(x)) for x in scratch]


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's schedule: row r of (p, q) holds the disjoint pairs p < q of round r.

    The circle method on m = n rounded up to even: round r pairs r with m - 1,
    and r + i with r - i (mod m - 1) for 0 < i < m/2, so each pair falls in
    exactly one of the m - 1 rounds. For odd n, column 0 (the pairs with the
    phantom vertex m - 1 = n) is dropped.
    """
    import numpy as np
    m = n + (n & 1)
    r, i = np.arange(m - 1)[:, None], np.arange(m // 2)
    p, q = (r + i) % (m - 1), (r - i) % (m - 1)
    q[:, 0] = m - 1
    return np.minimum(p, q)[:, n & 1 :], np.maximum(p, q)[:, n & 1 :]


@functools.lru_cache(maxsize=4)
def _schedule(n: int) -> list[np.ndarray]:
    """The rounds of ``_round_robin(n)`` as flat indices into an n x n matrix.

    A round's array has shape (4, 1, h) for its h pairs: the flat positions of
    their (p, p), (q, q), (p, q) and (q, p) entries. Adding n * n * j indexes
    matrix j of a flattened stack.
    """
    import numpy as np
    return [np.stack((p * (n + 1), q * (n + 1), p * n + q, q * n + p))[:, None] for p, q in zip(*_round_robin(n))]


def _jacobi(m: np.ndarray, tol: float, max_sweeps: int) -> list[tuple[float, float]]:
    """(top eigenvalue, residual) per matrix of a (k, n, n) stack of symmetric matrices, by parallel-ordered Jacobi.

    All k matrices sweep together: each round's angles are (k, h) arrays for
    its h pairs, and its rotations are applied as one batched product,
    a = rot^T a rot. A pair is live in a matrix when its a_pq != 0. Its angle
    is 0 elsewhere, and only live pairs get a_pq = a_qp = 0 and their
    diagonals from the closed forms. At the start of each sweep, every matrix
    whose off-diagonal norm is <= tol leaves the stack; its eigenpair is read
    off and its residual |Mx - lambda x|_inf against m must be <= tol, else
    ConvergenceError. A matrix still in the stack after max_sweeps sweeps
    raises ConvergenceError with the largest off-diagonal norm left.
    """
    import numpy as np
    k, n, _ = m.shape
    rounds, offsets = _schedule(n), n * n * np.arange(k)[:, None]  # built before the n x n buffers: a lower peak
    a = m + m.transpose(0, 2, 1)
    a /= 2.0
    v = np.tile(np.eye(n), (k, 1, 1))
    rot, tmp = v.copy(), np.empty_like(a)
    identity = np.repeat([1.0, 0.0], 2 * k * (n // 2)).reshape(4, k, n // 2)
    turn, fix = np.empty((4, k, n // 2)), np.zeros((4, k, n // 2))  # a round's c, c, s, -s; its closed forms and zeros
    results: list = [None] * k
    left = list(range(k))  # the input index of each matrix still in the stack
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # pairs not live, and a tiny a_pq: t = 0
        for sweep in range(max_sweeps + 1):  # the pass at sweep == max_sweeps returns or raises
            offs = _off_norms(a, tmp)
            for j, off in enumerate(offs):
                if off <= tol:  # converged: read its eigenpair off and check it against the input
                    top = int(np.argmax(np.diag(a[j])))
                    value, vector = float(a[j, top, top]), v[j, :, top].copy()
                    residual = float(np.max(np.abs(m[left[j]] @ vector - value * vector)))
                    if not residual <= tol:  # a NaN residual fails too
                        raise ConvergenceError("eigenpair residual exceeds tol", residual)
                    results[left[j]] = value, residual
            stay = [j for j, off in enumerate(offs) if not off <= tol]  # a NaN norm stays, to run out of sweeps
            if not stay:
                return results
            if sweep == max_sweeps:
                raise ConvergenceError(f"no convergence within {max_sweeps} sweeps", max(offs[j] for j in stay))
            if len(stay) < len(left):  # the converged leave the stack, which is compacted in place
                for to, j in enumerate(stay):
                    a[to], v[to] = a[j], v[j]
                kept = len(stay)
                a, v, rot, tmp, offsets = a[:kept], v[:kept], rot[:kept], tmp[:kept], offsets[:kept]
                identity, turn, fix = identity[:, :kept], turn[:, :kept], fix[:, :kept]
                left = [left[j] for j in stay]
            for pairs in rounds:
                idx = pairs + offsets
                old = a.take(idx)
                app, aqq, apq = old[0], old[1], old[2]
                if not np.count_nonzero(apq):
                    continue
                live = apq != 0.0
                tau = (aqq - app) / (2.0 * apq)
                # the small angle; hypot keeps sqrt(1 + tau^2) finite when tau^2 would overflow
                t = np.where(live, np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
                np.divide(1.0, np.sqrt(1.0 + t * t), out=turn[0])
                turn[1] = turn[0]
                np.multiply(t, turn[0], out=turn[2])
                np.subtract(0.0, turn[2], out=turn[3])  # -s, and +0.0 (not -0.0) where the pair is not live
                rot.put(idx, turn)
                np.matmul(rot.transpose(0, 2, 1), a, out=tmp)
                np.matmul(tmp, rot, out=a)
                np.matmul(v, rot, out=tmp)
                v, tmp = tmp, v
                rot.put(idx, identity)
                tapq = t * apq  # closed forms cut roundoff drift
                np.subtract(app, tapq, out=fix[0])
                np.add(aqq, tapq, out=fix[1])
                a.put(idx, np.where(live, fix, a.take(idx)))


def spectral_summary(g: Graph) -> SpectralSummary:
    """ρ(G) and q(G) at ``DEFAULT_TOL``, solved on the first call for this Graph object.

    The summary is kept on ``g`` and returned as is by later calls. A call
    that raises keeps nothing, so the next one solves again.
    """
    if g._spectra is not None:
        return g._spectra
    if g.n < 1:
        raise ValueError("spectral_summary requires n >= 1")
    import numpy as np
    stack = _adjacency_stack(g, 2)  # A, and Q = D + A below
    stack[1][np.diag_indices(g.n)] = g.degrees()
    (rho, ra), (q, rq) = _jacobi(stack, DEFAULT_TOL, MAX_SWEEPS)
    g._spectra = SpectralSummary(rho=rho, q=q, residual=max(ra, rq))
    return g._spectra


def hsf_bound_at(e: int, n: int, x: float) -> float:
    """(x-1)/2 + sqrt(2e - nx + ((x+1)/2)^2), decreasing in x where defined.

    Raises ValueError when the radicand is negative (the bound is undefined
    there; with x at most the minimum degree the radicand is always >= 0).
    e and n are counts, so a float e or n raises TypeError; x stays real.
    """
    e, n = operator.index(e), operator.index(n)
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
