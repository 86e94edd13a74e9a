"""Spectral radii of graphs, by a dense symmetric eigensolver, and the published bounds on them.

``spectral_summary``, the one way to rho and q, hands A and D + A as one
stack of two to ``_top_pairs``, the solver seam. ``_top_pairs`` returns the
top eigenvalue of each matrix of a stack with a certified error bound <=
``DEFAULT_TOL``, and raises ``ConvergenceError`` where it cannot. Its one
implementation is parallel-ordered Jacobi, rotating the whole stack at once;
each value and bound is read off the input matrix.

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
# largest n given dense n x n matrices: 128 MiB each. spectral_summary holds about 10
# at its peak, and 14 while the round schedule for that n is not yet cached; the cached
# schedule of a stack of two is 4 matrices' worth of int64 indices.
MATRIX_GUARD = 4096


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested tolerance. Carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SpectralSummary:
    """Adjacency spectral radius and signless Laplacian radius of one graph.

    ``residual`` is the larger of the two certified error bounds of rho and q,
    <= ``DEFAULT_TOL``: each top eigenvalue lies in [value, value + bound],
    up to a few ulps of rounding of the value itself.
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
    flat = scratch.reshape(len(a), -1)
    flat[:, :: a.shape[-1] + 1] = 0.0
    return np.sqrt(np.vecdot(flat, flat)).tolist()


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
def _schedule(n: int, k: int) -> list[np.ndarray]:
    """The rounds of ``_round_robin(n)`` as flat indices into a flattened (k, n, n) stack.

    A round's array has shape (4, k, h) for its h pairs: [:, j] holds the flat
    positions of their (p, p), (q, q), (p, q) and (q, p) entries in matrix j.
    """
    import numpy as np
    offsets, pairs = n * n * np.arange(k)[:, None], zip(*_round_robin(n))
    return [np.stack((p * (n + 1), q * (n + 1), p * n + q, q * n + p))[:, None] + offsets for p, q in pairs]


def _top_pairs(m: np.ndarray) -> list[tuple[float, float]]:
    """(top eigenvalue, error bound) per matrix of a (k, n, n) stack of symmetric matrices: the solver seam.

    The contract: the top eigenvalue lies in [value, value + bound], up to
    the rounding of value, and the bound is <= ``DEFAULT_TOL``; m is left
    unchanged; a matrix not certified, non-finite input among them, raises
    ConvergenceError. ``DEFAULT_TOL`` and ``MAX_SWEEPS`` are read at call time.

    The one implementation is parallel-ordered Jacobi: each round's rotations
    are applied to all k matrices as one batched product, a = rot^T a rot,
    and accumulated in v = v rot. At the start of each sweep, take a matrix of
    the stack with input M, off-diagonal norm ``off``, largest diagonal entry
    d1 and column x of the rotations under it. alpha = (second-largest
    diagonal entry) + off bounds every eigenvalue but the top one (Weyl).
    Where d1 > alpha or off <= tol, x is checked against M: theta = x'Mx /
    x'x and r = Mx - theta x. If theta > alpha, the top eigenvalue lies in
    [theta, theta + width] with width = |r|^2 / (x'x (theta - alpha))
    (Kato-Temple), and the result is (theta, width) once width <= min(tol,
    2^-52 max(1, |theta|)). A repeated top eigenvalue leaves no such gap;
    there the result is taken at off <= tol, as (theta, max(d1 + off - theta,
    |r|_2 / |x|_2)): theta never exceeds the top eigenvalue, and by Weyl the
    top is at most d1 + off. A residual |r|_2 / |x|_2 above tol raises
    ConvergenceError. A matrix's result is taken once: it keeps rotating
    with the stack, and later checks skip it. A matrix without a result
    after ``MAX_SWEEPS`` sweeps raises ConvergenceError with the largest
    off-diagonal norm left.
    """
    import numpy as np
    tol, max_sweeps = DEFAULT_TOL, MAX_SWEEPS
    k, n, _ = m.shape
    rounds = _schedule(n, k)  # built before the n x n buffers: a lower peak
    a = m + m.transpose(0, 2, 1)
    a /= 2.0
    v = np.tile(np.eye(n), (k, 1, 1))
    rot, tmp = v.copy(), np.empty_like(a)
    rot_t = rot.transpose(0, 2, 1)
    h = n // 2
    identity = np.repeat([1.0, 0.0], 2 * k * h).reshape(4, k, h)
    angle = identity.copy()  # rows 1, 1, t, -t; times c they are a round's c, c, s, -s
    t, turn = angle[2], np.empty((4, k, h))  # turn holds the rotations' entries
    least = np.finfo(float).smallest_subnormal
    results: list = [None] * k
    for sweep in range(max_sweeps + 1):  # the pass at sweep == max_sweeps returns or raises
        offs = _off_norms(a, tmp)
        diags = a.diagonal(axis1=1, axis2=2).tolist()
        stay = []
        for j, (off, diag) in enumerate(zip(offs, diags)):
            if results[j] is not None:  # taken at an earlier check
                continue
            d1 = max(diag)
            top = diag.index(d1)
            alpha = max(diag[:top] + diag[top + 1 :], default=-math.inf) + off  # Weyl: no other eigenvalue is above
            if d1 > alpha or off <= tol:  # the input-side product, where a certificate can come of it
                x = v[j, :, top]
                mx = m[j] @ x
                xx = float(x @ x)
                theta = float(x @ mx) / xx
                r = mx - theta * x
                rr = float(r @ r)
                if theta > alpha:  # Kato-Temple: the top eigenvalue lies in [theta, theta + width]
                    width = rr / (xx * (theta - alpha))
                    if width <= min(tol, 2.0**-52 * max(1.0, abs(theta))):
                        results[j] = theta, width
                        continue
                if off <= tol:  # no gap to certify across, as at a repeated top eigenvalue
                    residual = math.sqrt(rr / xx)
                    if not residual <= tol:  # a NaN residual fails too
                        raise ConvergenceError("eigenpair residual exceeds tol", residual)
                    results[j] = theta, max(d1 + off - theta, residual)  # the top lies in [theta, d1 + off]
                    continue
            stay.append(j)  # a NaN norm stays, to run out of sweeps
        if not stay:
            return results
        if sweep == max_sweeps:
            raise ConvergenceError(f"no convergence within {max_sweeps} sweeps", max(offs[j] for j in stay))
        for idx in rounds:
            # the small angle t = 2a_pq / (|d| + hypot(d, 2a_pq)), d = a_qq - a_pp, signed as d * a_pq; a zero
            # denominator (a_pq = 0 = d) becomes the least subnormal, so t = 0
            app, aqq, apq = a.take(idx[:3])
            d = aqq - app
            two = apq + apq
            den = np.hypot(d, two)
            den += np.abs(d)
            np.maximum(den, least, out=den)
            np.copysign(two / den, d * apq, out=t)
            np.negative(t, out=angle[3])
            c = np.hypot(1.0, t)
            np.divide(1.0, c, out=c)
            np.multiply(angle, c, out=turn)
            rot.put(idx, turn)
            np.matmul(rot_t, a, out=tmp)
            np.matmul(tmp, rot, out=a)
            np.matmul(v, rot, out=tmp)
            v, tmp = tmp, v
            rot.put(idx, identity)


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
    (rho, ra), (q, rq) = _top_pairs(stack)
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
