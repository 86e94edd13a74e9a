"""Span recording at fracdel's module boundaries, from outside the package.

The tracer rebinds the public functions one module calls in another (for
example the names ``theorems`` imports from ``spectral``, ``oracle`` and
``graph``, and ``oracle.feasible_flow``) with wrappers that record one span
per call: name, start, end and parent. Spans stay in memory; ``write``
dumps them once the run is over. Nothing under ``src/`` is edited, and
``uninstall`` puts every original function back.

A layer's self time is the summed duration of its spans minus the time
their child spans cover. Calls are single-threaded and properly nested,
so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

# (module, attribute, span name). A binding whose attribute no longer exists
# is skipped and listed in ``Tracer.skipped``, so the benchmark keeps running
# when the program's internals move.
BINDINGS = (
    ("cli", "main", "cli"),
    ("cli", "scan", "theorems.scan"),
    ("cli", "eval_theorem", "theorems.eval"),
    ("cli", "parse_graph6", "graph.parse"),
    ("cli", "spectral_summary", "spectral"),
    ("cli", "is_fractional_ab_deleted", "oracle.subset"),
    ("cli", "find_fractional_factor", "oracle.flow"),
    ("theorems", "eval_theorem", "theorems.eval"),
    ("theorems", "parse_graph6", "graph.parse"),
    ("theorems", "spectral_summary", "spectral"),
    ("theorems", "is_fractional_ab_deleted", "oracle.subset"),
    ("graph", "parse_graph6", "graph.parse"),
    ("oracle", "find_fractional_factor", "oracle.flow"),
    ("oracle", "feasible_flow", "maxflow"),
)


def subsets_before(n: int, s: tuple[int, ...]) -> int:
    """1-based position of S among all subsets of range(n) in (size, lex) order."""
    k = len(s)
    rank = sum(math.comb(n, j) for j in range(k))
    prev = -1
    for i, v in enumerate(s):
        for w in range(prev + 1, v):  # k-subsets that agree so far and take w here
            rank += math.comb(n - w - 1, k - i - 1)
        prev = v
    return rank + 1


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.skipped: list[str] = []
        self.spectral: list = []  # (graph, rho, q, residual, is_extremal)
        self.subset: list = []  # (span index, graph, a, b, verdict, subsets to verdict)
        self.arcs: list[int] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._last_extremal = None

    # --- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            # one span per resume, so the consumer's work between items is not
            # counted as the generator's own
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    def _on_spectral(self, idx, args, result):
        self.spectral.append(
            (args[0], result.rho, result.q, getattr(result, "residual", 0.0), args[0] is self._last_extremal)
        )

    def _on_oracle_subset(self, idx, args, result):
        graph, a, b = args[:3]
        verdict, witness = result
        if verdict:
            count = 1 << graph.n if graph.edge_count else 0
        else:
            count = subsets_before(graph.n, tuple(witness.s))
        self.subset.append((idx, graph, a, b, verdict, count))

    def _on_maxflow(self, idx, args, result):
        self.arcs.append(len(args[1]))

    def install(self) -> None:
        self.skipped = []
        theorems = self.modules["theorems"]
        if hasattr(theorems, "extremal"):
            # remember the extremal graph theorems builds, so the spectral
            # call made on it can be told apart from the one on the input
            build = theorems.extremal

            def extremal(*args, **kwargs):
                self._last_extremal = build(*args, **kwargs)
                return self._last_extremal

            self._saved.append((theorems, "extremal", build))
            theorems.extremal = extremal
        for mod_name, attr, span in BINDINGS:
            mod = self.modules[mod_name]
            if not hasattr(mod, attr):
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # --- reporting ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child_time[idx]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_metrics(self, wall_s: float, reference) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced passes, as name -> (value, unit).

        ``wall_s`` is the traced time in the program; ``reference(graph)`` gives the
        (rho, q) the spectral layer's answers are compared with.
        """
        st = self.self_times()

        def calls(name):
            return st.get(name, (0, 0.0))[0]

        def self_s(name):
            return st.get(name, (0, 0.0))[1]

        def per_call(name, scale):
            return self_s(name) / calls(name) * scale if calls(name) else 0.0

        def median_ms(values):
            return statistics.median(values) * 1e3 if values else 0.0

        max_err = 0.0
        for graph, rho, q, _, _ in self.spectral:
            ref_rho, ref_q = reference(graph)
            max_err = max(max_err, abs(rho - ref_rho), abs(q - ref_q))
        durations = {idx: self.spans[idx][2] - self.spans[idx][1] for idx, *_ in self.subset}
        full = [durations[idx] for idx, _, _, _, verdict, _ in self.subset if verdict]
        early = [durations[idx] for idx, _, _, _, verdict, _ in self.subset if not verdict]
        subsets = sum(rec[5] for rec in self.subset)
        n_subset = len(self.subset)
        return {
            "graph.parse.calls": (calls("graph.parse"), "count"),
            "graph.parse.self_s": (self_s("graph.parse"), "s"),
            "graph.parse.us_per_graph": (per_call("graph.parse", 1e6), "us"),
            "spectral.calls": (calls("spectral"), "count"),
            "spectral.extremal_calls": (sum(1 for rec in self.spectral if rec[4]), "count"),
            "spectral.self_s": (self_s("spectral"), "s"),
            "spectral.ms_per_call": (per_call("spectral", 1e3), "ms"),
            "spectral.share": (self_s("spectral") / wall_s, "fraction"),
            "spectral.max_residual": (max((rec[3] for rec in self.spectral), default=0.0), "abs"),
            "spectral.max_abs_err": (float(max_err), "abs"),
            "oracle.subset.calls": (n_subset, "count"),
            "oracle.subset.self_s": (self_s("oracle.subset"), "s"),
            "oracle.subset.subsets_to_verdict": (subsets / n_subset if n_subset else 0.0, "count"),
            "oracle.subset.ns_per_subset": (self_s("oracle.subset") / subsets * 1e9 if subsets else 0.0, "ns"),
            "oracle.subset.full_scan_ms_p50": (median_ms(full), "ms"),
            "oracle.subset.early_exit_ms_p50": (median_ms(early), "ms"),
            "oracle.subset.refuted_frac": (len(early) / n_subset if n_subset else 0.0, "fraction"),
            "oracle.flow.calls": (calls("oracle.flow"), "count"),
            "oracle.flow.self_s": (self_s("oracle.flow"), "s"),
            "oracle.flow.ms_per_call": (per_call("oracle.flow", 1e3), "ms"),
            "oracle.flow.arcs": (sum(self.arcs) / len(self.arcs) if self.arcs else 0.0, "count"),
            "maxflow.self_s": (self_s("maxflow"), "s"),
            "maxflow.ms_per_call": (per_call("maxflow", 1e3), "ms"),
            "theorems.eval.calls": (calls("theorems.eval"), "count"),
            "theorems.eval.self_s": (self_s("theorems.eval"), "s"),
            "theorems.scan.self_s": (self_s("theorems.scan"), "s"),
            "cli.self_s": (self_s("cli"), "s"),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"skipped_bindings": self.skipped, "spans": rows}, separators=(",", ":")))
