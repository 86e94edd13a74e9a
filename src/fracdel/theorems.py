"""Sufficient-condition evaluation, sharpness replay, and corpus scanning.

Three sufficient conditions for a graph being fractional [a, b]-deleted are
supported, addressed by stable ids:

* ``"1.4"``: spectral radius strictly above that of the tight example;
* ``"1.6"``: signless Laplacian radius strictly above both the threshold
  2n - 4 + (a+1)/(n-1) and the tight example's value (connected graphs);
* ``"1.8"``: minimum degree >= a + 1 and edge count >= C(n-1, 2) + (a+2)/2.

All three require b >= max(a, 3) and n >= max(a+2, 7) to apply. Evaluation
always runs the exact oracle alongside the hypothesis (within the size
guard) and reports whether the pair is consistent, i.e. never
"hypothesis met but property false".
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import combinations
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .graph import Graph, Graph6Error, _vertex_count, complete, extremal, is_connected, parse_graph6
from .oracle import DeficiencyWitness, SizeGuardError, _validate_ab, is_fractional_ab_deleted
from .spectral import ConvergenceError, _check_graph6_guard, spectral_summary

__all__ = [
    "THEOREM_IDS",
    "DEFAULT_MARGIN",
    "TheoremReport",
    "eval_theorem",
    "extremal_spectra",
    "SharpnessError",
    "SharpnessReport",
    "verify_sharpness",
    "graphs_with_min_edges",
    "ScanRecord",
    "scan",
    "summarize",
]

# Strict inequalities on floats: x > y counts only when x - y > DEFAULT_MARGIN,
# so values within the margin are treated as not strictly greater.
DEFAULT_MARGIN = 1e-9


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of evaluating one sufficient condition on one graph."""

    theorem_id: str
    n: int
    a: int
    b: int
    hypothesis_values: dict
    hypothesis_met: bool
    applicable: bool
    oracle_verdict: bool | str | None  # True / False / "skipped(size-guard)"
    consistent: bool
    witness: DeficiencyWitness | None = field(default=None)
    margin: ClassVar[float] = DEFAULT_MARGIN

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "applicable": self.applicable,
            "hypothesis_met": self.hypothesis_met,
            "oracle": self.oracle_verdict,
            "consistent": self.consistent,
            "margin": self.margin,
            "values": self.hypothesis_values,
            "witness": self.witness.to_json() if self.witness is not None else None,
        }


@functools.lru_cache
def extremal_spectra(n: int, a: int) -> tuple[float, float]:
    """(rho, q) of extremal(n, a), for n >= a + 2, from its 3x3 equitable quotients; kept per (n, a).

    The cells are the K_a hub, the K_{n-a-1} clique and the low vertex. Both
    quotients are symmetrised with the square roots of the cell sizes, so
    their top eigenvalues come from one symmetric solve of the two.
    """
    c, s = math.sqrt(a * (n - a - 1)), math.sqrt(a)
    adj = np.array([[a - 1, c, s], [c, n - a - 2, 0], [s, 0, 0]])
    signless = adj + np.diag([n - 1.0, n - 2.0, a])  # add the cell degrees
    rho, q = np.linalg.eigvalsh(np.stack((adj, signless)))[:, -1]
    return float(rho), float(q)


# theorem id -> (needs a connected graph, the condition's own values from (n, a),
# its hypothesis from all values, n and a). The own values follow the common ones
# in ``values``, in the order written here. Every condition reports rho and q, so
# 1.8 keeps the spectral solve.
_CONDITIONS = {
    "1.4": (
        False,
        lambda n, a: {"rho_extremal": extremal_spectra(n, a)[0] if n >= a + 2 else None},
        lambda v, n, a: v["rho_extremal"] is not None and v["rho"] - v["rho_extremal"] > DEFAULT_MARGIN,
    ),
    "1.6": (
        True,
        lambda n, a: {
            "q_threshold": 2 * n - 4 + (a + 1) / (n - 1) if n >= 2 else None,
            "q_extremal": extremal_spectra(n, a)[1] if n >= a + 2 else None,
        },
        lambda v, n, a: (
            v["q_threshold"] is not None
            and v["q_extremal"] is not None
            and v["q"] - v["q_threshold"] > DEFAULT_MARGIN
            and v["q"] - v["q_extremal"] > DEFAULT_MARGIN
        ),
    ),
    "1.8": (
        False,
        lambda n, a: {"min_degree_needed": a + 1, "size_bound": (n - 1) * (n - 2) / 2 + (a + 2) / 2},
        # compare 2e >= (n-1)(n-2) + a + 2 so the half-integer bound stays exact
        lambda v, n, a: v["delta"] >= a + 1 and 2 * v["e"] >= (n - 1) * (n - 2) + a + 2,
    ),
}
THEOREM_IDS = tuple(_CONDITIONS)


def eval_theorem(
    graph: Graph,
    theorem_id: str,
    a: int,
    b: int,
    *,
    max_n: int | None = None,
) -> TheoremReport:
    """Evaluate one sufficient condition and the exact oracle on a graph.

    When the oracle refuses the graph with SizeGuardError (see max_n in
    ``is_fractional_ab_deleted``), the verdict is the string
    "skipped(size-guard)" and no consistency claim is made.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    a, b = _validate_ab(a, b)
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")

    n = graph.n
    e = graph.edge_count
    delta = graph.min_degree()
    connected = is_connected(graph)
    summary = spectral_summary(graph)

    connected_only, own_values, met = _CONDITIONS[theorem_id]
    applicable = b >= max(a, 3) and n >= max(a + 2, 7) and (connected or not connected_only)
    values: dict = {
        "e": e,
        "delta": delta,
        "connected": connected,
        "rho": summary.rho,
        "q": summary.q,
        **own_values(n, a),
    }
    hypothesis_met = met(values, n, a)

    oracle_verdict: bool | str
    try:
        oracle_verdict, witness = is_fractional_ab_deleted(graph, a, b, max_n=max_n)
    except SizeGuardError:
        oracle_verdict, witness = "skipped(size-guard)", None

    consistent = not (applicable and hypothesis_met and oracle_verdict is False)
    return TheoremReport(
        theorem_id=theorem_id,
        n=n,
        a=a,
        b=b,
        hypothesis_values=values,
        hypothesis_met=hypothesis_met,
        applicable=applicable,
        oracle_verdict=oracle_verdict,
        consistent=consistent,
        witness=witness,
    )


class SharpnessError(RuntimeError):
    """A sharpness replay assertion failed."""


@dataclass(frozen=True)
class SharpnessReport:
    """Evidence that the conditions are tight on the extremal construction."""

    n: int
    a: int
    b: int
    witness: DeficiencyWitness
    rho: float
    q: float
    rho_gap: float
    q_gap: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "passed": True,
            "witness": self.witness.to_json(),
            "rho": self.rho,
            "q": self.q,
            "rho_gap": self.rho_gap,
            "q_gap": self.q_gap,
        }


def verify_sharpness(n: int, a: int, b: int) -> SharpnessReport:
    """Replay the tightness argument for the extremal graph at (n, a, b).

    Checks that the extremal graph is NOT fractional [a, b]-deleted, that the
    refuting witness is exactly (S = empty, T = the degree-a vertices,
    theta = 0, epsilon = 1), and that rho and q of the extremal graph's
    matrices equal the quotient closed forms of ``extremal_spectra`` within
    DEFAULT_MARGIN, so both spectral hypotheses fail at equality. Any failed
    check raises SharpnessError.
    """
    n, (a, b) = operator.index(n), _validate_ab(a, b)  # numpy's integers too; a float raises
    if not (b >= max(a, 3) and n >= max(a + 2, 7)):
        raise ValueError(f"sharpness replay needs b >= max(a,3) and n >= max(a+2,7), got n={n}, a={a}, b={b}")
    gstar = extremal(n, a)

    verdict, witness = is_fractional_ab_deleted(gstar, a, b)
    if verdict is not False or witness is None:
        raise SharpnessError(f"extremal graph at n={n}, a={a}, b={b} was not refuted by the oracle")
    expected_t = tuple(v for v in range(n) if gstar.degree(v) == a)
    if witness.s != ():
        raise SharpnessError(f"expected the empty S in the witness, got {witness.s}")
    if witness.t != expected_t:
        raise SharpnessError(f"expected T = {expected_t} (the degree-a vertices), got {witness.t}")
    if n >= a + 3 and len(witness.t) != 1:
        raise SharpnessError(f"expected a single degree-a vertex at n={n}, a={a}, got {witness.t}")
    if witness.theta != 0 or witness.epsilon != 1:
        raise SharpnessError(f"expected theta=0 < epsilon=1, got theta={witness.theta}, epsilon={witness.epsilon}")

    summary = spectral_summary(gstar)
    rho_star, q_star = extremal_spectra(n, a)
    rho_gap = summary.rho - rho_star
    q_gap = summary.q - q_star
    if abs(rho_gap) > DEFAULT_MARGIN:
        raise SharpnessError(f"spectral radius not at equality on the extremal graph (gap {rho_gap})")
    if abs(q_gap) > DEFAULT_MARGIN:
        raise SharpnessError(f"signless Laplacian radius not at equality on the extremal graph (gap {q_gap})")

    return SharpnessReport(
        n=n,
        a=a,
        b=b,
        witness=witness,
        rho=summary.rho,
        q=summary.q,
        rho_gap=rho_gap,
        q_gap=q_gap,
    )


def graphs_with_min_edges(n: int, min_edges: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices with at least min_edges edges.

    Enumerated through complements (choose which pairs to remove from K_n),
    so dense families come out without touching the full 2^C(n,2) space.
    Deterministic order: edge count descending, removed pairs lexicographic.
    Each graph is K_n's row masks with its removed pairs toggled; no edge
    list is built.
    """
    n = _vertex_count(n)
    pairs = list(combinations(range(n), 2))
    total = len(pairs)
    if min_edges > total:
        return
    full = complete(n)._rows
    for k in range(total - min_edges + 1):
        for missing in combinations(pairs, k):
            rows = list(full)
            for u, v in missing:
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            yield Graph._from_rows(n, tuple(rows))


@dataclass(frozen=True)
class ScanRecord:
    """One scanned input line: either a theorem report or a parse error."""

    index: int  # 1-based line number in the input stream
    graph6: str
    report: TheoremReport | None
    error: str | None

    @property
    def is_counterexample(self) -> bool:
        return self.report is not None and not self.report.consistent

    def to_json(self) -> dict:
        if self.error is not None:
            return {"id": self.index, "graph6": self.graph6, "error": self.error}
        return {"id": self.index, "graph6": self.graph6, **self.report.to_json()}


def scan(
    lines: Iterable[str],
    theorem_id: str,
    a: int,
    b: int,
    *,
    max_n: int | None = None,
) -> Iterator[ScanRecord]:
    """Evaluate one condition against every graph6 line of a stream.

    Malformed lines and eigensolver failures become error records and
    scanning continues; blank lines are skipped. Records come out in input
    order. A line whose size field is past the dense-matrix ceiling
    (``spectral.MATRIX_GUARD``) is refused before its payload is decoded.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}")
    a, b = _validate_ab(a, b)
    for index, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            _check_graph6_guard(text)  # every condition needs rho and q
            graph = parse_graph6(text)
            report = eval_theorem(graph, theorem_id, a, b, max_n=max_n)
        except (Graph6Error, ValueError) as exc:
            yield ScanRecord(index, text, None, str(exc))
            continue
        except ConvergenceError as exc:
            yield ScanRecord(index, text, None, f"numerical failure: {exc}")
            continue
        yield ScanRecord(index, text, report, None)


def summarize(records: Iterable[ScanRecord]) -> dict:
    """Counts over scan records, in the order the scan summary reports them."""
    graphs = errors = hypothesis_met = oracle_true = counterexamples = skipped = 0
    for record in records:
        if record.error is not None:
            errors += 1
            continue
        graphs += 1
        report = record.report
        if report.hypothesis_met:
            hypothesis_met += 1
        if report.oracle_verdict is True:
            oracle_true += 1
        elif isinstance(report.oracle_verdict, str):
            skipped += 1
        if not report.consistent:
            counterexamples += 1
    return {
        "graphs": graphs,
        "hypothesis_met": hypothesis_met,
        "oracle_true": oracle_true,
        "counterexamples": counterexamples,
        "errors": errors,
        "oracle_skipped": skipped,
    }
