"""Named mutants of the decision code, and a runner that checks tier-1 kills each one.

Each row names a decision site, the text there, the text of a mutant and the
tier-1 tests that kill it. The runner copies the checkout's ``src``,
``tests``, ``README.md`` and ``pyproject.toml`` to a temporary directory, and
checks that tier-1 passes on the copy and holds every killer. Then, for each
row, it applies that one replacement to a fresh copy and runs the row's
killers on it: the mutant is killed when they fail. Otherwise it runs the
whole tier-1 with ``-x``, and the mutant is killed when that fails. The
killers are part of tier-1, so running them first changes no verdict, only
the time to reach it.

A row marked equivalent gives the reason no test can tell it from the program;
the runner expects it to survive. The run fails when a mutant not marked
equivalent survives, when one marked equivalent is killed, or when a row's old
text no longer occurs exactly once in its file. A change to a decision site adds
its mutants here.

    python tests/mutants.py    # every row, about 4 min on one core
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    site: str
    path: str
    old: str
    new: str
    killers: tuple[str, ...] = ()  # tier-1 node ids that fail on the mutant, run before the rest
    equivalent: str | None = None  # why no test can tell it apart, when none can


ROUTES_AGREE = "tests/test_acceptance.py::test_criterion_1_three_routes_agree"  # killers that rows share
CI_PINS = "tests/test_cli.py::test_the_bytes_pinned_by_ci"
REPAIRS = "tests/test_oracle.py::test_every_repair_ends_in_a_factor_of_the_reduced_double_cover"
ENCODER = "tests/test_graph6.py::test_encoder_matches_the_format_reference"
DECODER = "tests/test_graph6.py::test_decode_matches_the_edge_list_constructor"
BUDGET = "tests/test_cli.py::test_check_and_factor_refuse_a_size_past_their_memory_budget_before_decoding"

MUTANTS = (
    Mutant(
        "graph6-bit-order",
        "graph.parse_graph6: each decoded byte's bits are reversed, so payload bit k is bit k of the bytes",
        "src/fracdel/graph.py",
        "data = base64.b64decode(data).translate(_REVERSED_BITS)",
        "data = base64.b64decode(data)",
        killers=(DECODER,),
    ),
    Mutant(
        "graph6-column-offset",
        "graph.parse_graph6: column j is read from bit offset j(j-1)/2, where the encoder writes it",
        "src/fracdel/graph.py",
        "at = j * (j - 1) // 2",
        "at = j * (j + 1) // 2",
        killers=(DECODER,),
    ),
    Mutant(
        "graph6-column-end-short",
        "graph.parse_graph6: column j's byte slice runs to the byte holding its last bit",
        "src/fracdel/graph.py",
        "(at + j + 7) >> 3",
        "(at + j) >> 3",
        killers=(DECODER,),
    ),
    Mutant(
        "graph6-four-byte-data-start",
        "graph._graph6_size: the payload starts after '~' and the three size bytes",
        "src/fracdel/graph.py",
        "data_start = pos + 4",
        "data_start = pos + 3",
        killers=("tests/test_graph6.py::test_four_byte_size_form",),
    ),
    Mutant(
        "graph6-padding-from-first-bit",
        "graph.parse_graph6: the padding check starts at the first bit past the edges",
        "src/fracdel/graph.py",
        'int.from_bytes(data[nbits >> 3 :], "little") >> (nbits & 7):',
        'int.from_bytes(data[nbits >> 3 :], "little") >> (nbits & 7) + 1:',
        killers=("tests/test_graph6.py::test_reject_set_padding_bits",),
    ),
    Mutant(
        "matrix-guard-admits-the-guard",
        "spectral._check_matrix_guard: n = MATRIX_GUARD itself is admitted",
        "src/fracdel/spectral.py",
        "if n > MATRIX_GUARD:",
        "if n >= MATRIX_GUARD:",
        killers=("tests/test_spectral.py::test_dense_matrices_are_built_at_the_guard",),
    ),
    Mutant(
        "reader-decodes-before-the-ceiling",
        "graph._parse_graph6_within: the caller's ceiling sees n from the size field before the payload is decoded",
        "src/fracdel/graph.py",
        '    ceiling(_graph6_size(line.rstrip("\\r\\n"))[0])\n    return parse_graph6(line)\n',
        "    graph = parse_graph6(line)\n    ceiling(graph.n)\n    return graph\n",
        killers=(
            "tests/test_graph6.py::test_the_callers_ceiling_sees_n_from_the_size_field_before_any_decode",
            "tests/test_theorems.py::test_scan_refuses_a_line_past_the_matrix_guard_before_decoding_it",
            BUDGET,
        ),
    ),
    Mutant(
        "budget-admits-the-cap",
        "cli._check_budget: n = CONSTRUCT_MAX_N itself is admitted",
        "src/fracdel/cli.py",
        "if n > CONSTRUCT_MAX_N:",
        "if n >= CONSTRUCT_MAX_N:",
        killers=(BUDGET,),
    ),
    Mutant(
        "check-reads-past-the-budget",
        "cli._cmd_check: the input line is read under the memory budget's ceiling",
        "src/fracdel/cli.py",
        'graph = _parse_graph6_within(_read_one_line(args), lambda n: _check_budget(n, "check decodes"))',
        "graph = _parse_graph6_within(_read_one_line(args), lambda n: None)",
        killers=(BUDGET + "[check]",),
    ),
    Mutant(
        "factor-reads-past-the-budget",
        "cli._cmd_factor: the input line is read under the memory budget's ceiling",
        "src/fracdel/cli.py",
        'graph = _parse_graph6_within(_read_one_line(args), lambda n: _check_budget(n, "factor decodes"))',
        "graph = _parse_graph6_within(_read_one_line(args), lambda n: None)",
        killers=(BUDGET + "[factor]",),
    ),
    Mutant(
        "encoder-bits-not-reversed",
        "graph.to_graph6: each byte's bits are reversed, so the stream's first bit is the byte's most significant",
        "src/fracdel/graph.py",
        '_REVERSED_BITS = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))',
        "_REVERSED_BITS = bytes(range(256))",
        # the decoder shares the table, so only a reference to the format itself tells
        killers=(ENCODER, DECODER, "tests/test_graph6.py::test_matches_networkx_codec"),
    ),
    Mutant(
        "encoder-block-end-plus-one",
        "graph.to_graph6: a block's bytes end where the next block's start",
        "src/fracdel/graph.py",
        "end = hi * (hi - 1) // 16 if hi < n else size",
        "end = hi * (hi - 1) // 16 + 1 if hi < n else size",
        killers=(ENCODER,),
    ),
    Mutant(
        "augment-room",
        "oracle._augment: an other-side y with room ends the path",
        "src/fracdel/oracle.py",
        "if other[y].bit_count() >= fv[y]:",
        "if other[y].bit_count() > fv[y]:",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "augment-surplus",
        "oracle._augment: an own-side x2 above g ends the path",
        "src/fracdel/oracle.py",
        "if own[x2].bit_count() > gv[x2]:",
        "if own[x2].bit_count() >= gv[x2]:",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "augment-keep-surplus-arc",
        "oracle._augment: the surplus end gives up its arc to y",
        "src/fracdel/oracle.py",
        "                        own[x2] ^= y_bit  # the path ends at x2, which gives up its arc to y\n"
        "                        other[y] ^= x2_bit\n",
        "",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "augment-flip-free-only",
        "oracle._augment: the flip drops each F step's arc",
        "src/fracdel/oracle.py",
        "                y = came_by_f[x]\n                own[x] ^= 1 << y\n                other[y] ^= 1 << x\n",
        "                y = came_by_f[x]\n",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "degree-test-strict",
        "oracle.is_fractional_ab_deleted: a vertex of degree a already refutes G at S = {}",
        "src/fracdel/oracle.py",
        "if graph.edge_count and low <= a:",
        "if graph.edge_count and low < a:",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "closed-form-delta",
        "oracle.is_fractional_ab_deleted: the closed form b(delta - 1) >= a * Delta counts degrees in G - e",
        "src/fracdel/oracle.py",
        "if b * (low - 1) >= a * high:",
        "if b * low >= a * high:",
        killers=(CI_PINS,),
    ),
    Mutant(
        "closed-form-strict",
        "oracle.is_fractional_ab_deleted: the closed form holds at b(delta - 1) = a * Delta",
        "src/fracdel/oracle.py",
        "if b * (low - 1) >= a * high:",
        "if b * (low - 1) > a * high:",
        killers=(REPAIRS,),
    ),
    Mutant(
        "subset-tie-lex-last",
        "oracle._subset_decide: the lex-first of a chunk's smallest violators",
        "src/fracdel/oracle.py",
        "first = min(tuple(_bits(m))",
        "first = max(tuple(_bits(m))",
        killers=(CI_PINS,),
    ),
    Mutant(
        "subset-tie-numeric-max",
        "oracle._subset_decide: the numerically largest of the smallest violators in place of the lex-first",
        "src/fracdel/oracle.py",
        "first = min(tuple(_bits(m)) for m in bad[sizes == sizes.min()].tolist())",
        "first = tuple(_bits(max(bad[sizes == sizes.min()].tolist())))",
        killers=(CI_PINS,),
    ),
    Mutant(
        "witness-t-rule",
        "oracle._witness: T takes the vertices strictly below g, or at most g under \"deleted\"",
        "src/fracdel/oracle.py",
        "if d < g[v] + deleted and not smask >> v & 1:",
        "if d <= g[v] + deleted and not smask >> v & 1:",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "epsilon-two-as-one",
        "oracle._epsilon: an edge inside T makes epsilon 2",
        "src/fracdel/oracle.py",
        "    if any(row & tmask for row in t_rows):\n        return 2\n",
        "    if any(row & tmask for row in t_rows):\n        return 1\n",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "epsilon-zero-as-one",
        "oracle._epsilon: an independent T with no neighbour outside S makes epsilon 0",
        "src/fracdel/oracle.py",
        "return 1 if any(row & ~smask for row in t_rows) else 0",
        "return 1 if any(row & ~smask for row in t_rows) else 1",
        killers=(CI_PINS,),
    ),
    Mutant(
        "epsilon-neighbour-in-s",
        "oracle._epsilon: only a neighbour of T outside S makes epsilon 1",
        "src/fracdel/oracle.py",
        "return 1 if any(row & ~smask for row in t_rows) else 0",
        "return 1 if any(row for row in t_rows) else 0",
        killers=(CI_PINS,),
    ),
    Mutant(
        "greedy-room-before-below",
        "oracle._greedy_start: a pick takes right copies still below g before those with room only",
        "src/fracdel/oracle.py",
        "pick = free & below or free & room or rest & below or rest & room",
        "pick = free & room or rest & room",
        killers=(CI_PINS,),
    ),
    Mutant(
        "greedy-highest-bit",
        "oracle._greedy_start: a pick takes the lowest-numbered neighbour first",
        "src/fracdel/oracle.py",
        "            low = pick & -pick\n",
        "            low = 1 << pick.bit_length() - 1\n",
        killers=(CI_PINS,),
    ),
    Mutant(
        "greedy-no-avoid",
        "oracle._greedy_start: F1's start takes arcs off F0's support first",
        "src/fracdel/oracle.py",
        "free = rest & ~avoid[u] if avoid else rest",
        "free = rest",
        killers=(REPAIRS,),
    ),
    Mutant(
        "repair-no-right-raise",
        "oracle._repaired: a repair raises u' and v' again on the right side",
        "src/fracdel/oracle.py",
        "(out, into, ends, ends)",
        "(out, into, ends, 0)",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "repair-from-u-only",
        "oracle._repaired: a repair raises from both ends of the deleted edge",
        "src/fracdel/oracle.py",
        "ends = 1 << u | 1 << v",
        "ends = 1 << u",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "per-edge-keeps-one-arc",
        "oracle._factor_of: a G - uv repairs its parent's factor when that uses either arc of uv",
        "src/fracdel/oracle.py",
        "(found[0][u] >> v & 1 or found[0][v] >> u & 1)",
        "(found[0][u] >> v & 1 and found[0][v] >> u & 1)",
        killers=(ROUTES_AGREE,),
    ),
    Mutant(
        "repair-tie-takes-f1",
        "oracle._deleted_by_repair: a repair starts from F0 when F0 and F1 hold as many of the edge's arcs",
        "src/fracdel/oracle.py",
        "fewer_in_f1 = (out1[u] >> v & 1) + (out1[v] >> u & 1) < (out0[u] >> v & 1)",
        "fewer_in_f1 = (out1[u] >> v & 1) + (out1[v] >> u & 1) <= (out0[u] >> v & 1)",
        equivalent="either copy, less uv's arcs, has every degree at most b and only u and v below a, and raising"
        " from such a start finds a factor of G - uv exactly when there is one: the choice moves searches, not"
        " verdicts",
    ),
    Mutant(
        "decider-f0-own-greedy-start",
        "oracle._deleted_by_repair: F0 is G's certificate factor, from the memo behind find_fractional_factor",
        "src/fracdel/oracle.py",
        "found = _factor_of(graph, gv, fv)\n    if found is None:\n        return False\n",
        "found = _double_cover_factor(graph._rows, gv, fv, _greedy_start(graph._rows, gv, fv))\n"
        "    if found is None:\n        return False\n",
        killers=(
            "tests/test_oracle.py::test_the_decider_and_the_certificate_share_one_greedy_pass",
            "tests/test_oracle.py::test_a_g_minus_e_decides_from_a_repair_of_its_parents_factor",
        ),
    ),
    Mutant(
        "repair-shared-edges-from-f0-alone",
        "oracle._deleted_by_repair: only the edges that F0 and F1 both use are repaired",
        "src/fracdel/oracle.py",
        "for u, v in _edges(both):",
        "for u, v in _edges(support0):",
        killers=(REPAIRS,),
    ),
    Mutant(
        "edges-skip-next-neighbour",
        "graph._edges: the walk over row u starts at neighbour u + 1",
        "src/fracdel/graph.py",
        "row &= -2 << u  # neighbours above u",
        "row &= -4 << u  # neighbours above u",
        killers=("tests/test_graph.py::test_edges_in_lexicographic_order",),
    ),
    Mutant(
        "theorem-14-strict",
        "theorems 1.4: rho(G) > rho(extremal(n, a)), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["rho"] - v["rho_extremal"] > DEFAULT_MARGIN',
        'v["rho"] - v["rho_extremal"] >= -DEFAULT_MARGIN',
        killers=("tests/test_theorems.py::test_report_on_extremal_graph",),
    ),
    Mutant(
        "theorem-16-strict-extremal",
        "theorems 1.6: q(G) > q(extremal(n, a)), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["q"] - v["q_extremal"] > DEFAULT_MARGIN',
        'v["q"] - v["q_extremal"] >= -DEFAULT_MARGIN',
        killers=("tests/test_theorems.py::test_16_is_strict_at_q_star_where_the_threshold_lies_below_it",),
    ),
    Mutant(
        "theorem-16-strict-threshold",
        "theorems 1.6: q(G) > 2n - 4 + (a + 1) / (n - 1), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["q"] - v["q_threshold"] > DEFAULT_MARGIN',
        'v["q"] - v["q_threshold"] >= -DEFAULT_MARGIN',
        killers=("tests/test_theorems.py::test_16_is_strict_at_its_threshold",),
    ),
    Mutant(
        "theorem-16-threshold",
        "theorems 1.6: the threshold 2n - 4 + (a + 1) / (n - 1)",
        "src/fracdel/theorems.py",
        '"q_threshold": 2 * n - 4 + (a + 1) / (n - 1) if n >= 2 else None,',
        '"q_threshold": 2 * n - 4 + a / (n - 1) if n >= 2 else None,',
        killers=("tests/test_theorems.py::test_16_threshold_term_binds_above_q_star_at_a_1",),
    ),
    Mutant(
        "jacobi-zero-over-zero",
        "spectral._top_pairs: a pair with a_pq = 0 = a_qq - a_pp gets t = 0, not 0/0",
        "src/fracdel/spectral.py",
        "            np.maximum(den, least, out=den)\n",
        "",
        killers=("tests/test_spectral.py::test_known_small_spectra",),
    ),
    Mutant(
        "jacobi-kato-temple-gap",
        "spectral._top_pairs: the Kato-Temple interval needs theta strictly above the bound alpha on the rest",
        "src/fracdel/spectral.py",
        "if theta > alpha:",
        "if theta >= alpha:",
        killers=("tests/test_spectral.py::test_eigen_matches_eigvalsh_at_odd_and_even_n",),
    ),
    Mutant(
        "jacobi-weyl-off",
        "spectral._top_pairs: alpha, the bound on all eigenvalues but the top, is the second diagonal entry plus off",
        "src/fracdel/spectral.py",
        "default=-math.inf) + off",
        "default=-math.inf)",
        killers=("tests/test_spectral.py::test_a_top_diagonal_entry_below_the_weyl_bound_is_not_certified",),
    ),
    Mutant(
        "jacobi-relative-width",
        "spectral._top_pairs: the interval's width is held to 2^-52 max(1, |theta|), relative to the value",
        "src/fracdel/spectral.py",
        "2.0**-52 * max(1.0, abs(theta))",
        "2.0**-52 * 1.0",
        killers=("tests/test_spectral.py::test_the_certificate_is_relative_to_the_top_eigenvalue",),
    ),
    Mutant(
        "jacobi-value-from-diagonal",
        "spectral._top_pairs: a certified matrix's result is the Rayleigh quotient theta, not its top diagonal entry",
        "src/fracdel/spectral.py",
        "results[j] = theta, width",
        "results[j] = d1, width",
        killers=("tests/test_spectral.py::test_each_top_eigenvalue_lies_in_its_certified_interval",),
    ),
    Mutant(
        "jacobi-result-taken-once",
        "spectral._top_pairs: a matrix's result is taken at its first certificate; later checks skip it",
        "src/fracdel/spectral.py",
        "            if results[j] is not None:  # taken at an earlier check\n                continue\n",
        "",
        killers=("tests/test_jacobi.py::test_stacked_matrices_return_their_solo_results",),
    ),
    Mutant(
        "jacobi-repeated-top-from-diagonal",
        "spectral._top_pairs: at a repeated top the result is the Rayleigh quotient theta, not the top diagonal entry",
        "src/fracdel/spectral.py",
        "results[j] = theta, max(d1 + off - theta, residual)",
        "results[j] = d1, max(d1 + off - theta, residual)",
        killers=("tests/test_spectral.py::test_a_repeated_top_eigenvalue_is_off_by_its_rounding_alone",),
    ),
    Mutant(
        "spectral-summary-memo",
        "spectral.spectral_summary: a graph's summary is solved once and kept on the Graph object",
        "src/fracdel/spectral.py",
        "    if g._spectra is not None:\n        return g._spectra\n",
        "",
        killers=("tests/test_spectral.py::test_spectral_summary_solves_once_per_graph_object",),
    ),
    Mutant(
        "scan-convergence-error-record",
        "theorems.scan: a ConvergenceError becomes the line's error record, and the scan goes on",
        "src/fracdel/theorems.py",
        "except ConvergenceError as exc:",
        "except ZeroDivisionError as exc:",
        killers=("tests/test_cli.py::test_scan_survives_numerical_failure",),
    ),
    Mutant(
        "scan-counterexample-exit-3",
        "cli._cmd_scan: a scan that finds a counterexample exits 3",
        "src/fracdel/cli.py",
        'return 3 if counts["counterexamples"] else 0',
        'return 1 if counts["counterexamples"] else 0',
        killers=("tests/test_cli.py::test_scan_counterexample_exit_code",),
    ),
    Mutant(
        "main-input-error-exit-2",
        "cli.main: an input or usage error exits 2",
        "src/fracdel/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n',
        killers=("tests/test_cli.py::test_malformed_graph6_exits_2",),
    ),
    Mutant(
        "main-numerical-failure-exit-1",
        "cli.main: an eigensolver failure exits 1",
        "src/fracdel/cli.py",
        '        print(f"numerical failure: {exc}", file=sys.stderr)\n        return 1\n',
        '        print(f"numerical failure: {exc}", file=sys.stderr)\n        return 2\n',
        killers=("tests/test_cli.py::test_solver_failure_exits_1",),
    ),
    Mutant(
        "theorem-18-min-degree",
        "theorems 1.8: the minimum degree is at least a + 1",
        "src/fracdel/theorems.py",
        'v["delta"] >= a + 1 and',
        'v["delta"] >= a and',
        killers=("tests/test_theorems.py::test_theorem_18_on_the_dense_7_vertex_graphs_at_its_bound",),
    ),
    Mutant(
        "theorem-18-bound-plus-one",
        "theorems 1.8: 2e >= (n-1)(n-2) + a + 2, moved up by one",
        "src/fracdel/theorems.py",
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 2,',
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 3,',
        killers=("tests/test_theorems.py::test_theorem_18_on_the_dense_7_vertex_graphs_at_its_bound",),
    ),
    Mutant(
        "theorem-18-bound-plus-one-at-odd-a",
        "theorems 1.8: 2e >= (n-1)(n-2) + a + 2, moved up by one at odd a only",
        "src/fracdel/theorems.py",
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 2,',
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 2 + a % 2,',
        equivalent="2e and (n-1)(n-2) are even, so at odd a the bound is odd and 2e reaches it exactly when it"
        " reaches the bound plus one",
    ),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(src, dest / name)


def _tier1(tree: Path, tests: tuple[str, ...] = ()) -> tuple[bool, float]:
    """Whether tier-1, or only the given tests of it, passes on the copy at tree, and how long it took."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    done = subprocess.run([*TIER1, *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.perf_counter() - t0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fracdel-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        for mutant in MUTANTS:  # every row's text must be there before any time is spent
            text = (base / mutant.path).read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"mutants: {mutant.name}: its old text does not occur once in {mutant.path}")
        passed, took = _tier1(base)
        print(f"unmutated copy: {'passed' if passed else 'FAILED'} in {took:.1f} s", flush=True)
        # a killer id that names no test fails too, and would count every mutant killed
        killers = tuple(dict.fromkeys(k for mutant in MUTANTS for k in mutant.killers))
        found = _tier1(base, ("--collect-only", *killers))[0]
        print(f"killers: {'all' if found else 'NOT all'} found in tier-1", flush=True)
        if not (passed and found):
            return 1
        bad = []
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            shutil.copytree(base, tree)
            path = tree / mutant.path
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
            survived, took = _tier1(tree, mutant.killers) if mutant.killers else (True, 0.0)
            full = survived  # the killers, where a row names any, let it through
            if full:
                survived, rest = _tier1(tree)
                took += rest
            shutil.rmtree(tree)
            expected = mutant.equivalent is not None
            verdict = "survived" if survived else "killed"
            note = " (equivalent)" if expected else " (its killers missed it)" if full and mutant.killers else ""
            ok = survived == expected
            print(f"{verdict:8} {took:6.1f} s  {mutant.name}{note}{'' if ok else '  <- unexpected'}", flush=True)
            if not ok:
                bad.append(mutant.name)
    if bad:
        print(f"mutants: {len(bad)} unexpected: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"mutants: all {len(MUTANTS)} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
