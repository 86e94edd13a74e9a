"""Named mutants of the decision code, and a runner that checks tier-1 kills each one.

Each row names a decision site, the text there, and the text of a mutant. The
runner copies the checkout's ``src``, ``tests``, ``README.md`` and
``pyproject.toml`` to a temporary directory, checks that tier-1 passes on the
copy, and then, for each row, applies that one replacement to a fresh copy and
runs tier-1 on it with ``-x``. A mutant is killed when the run fails.

A row marked equivalent gives the reason no test can tell it from the program;
the runner expects it to survive. The run fails when a mutant not marked
equivalent survives, when one marked equivalent is killed, or when a row's old
text no longer occurs exactly once in its file. A change to a decision site adds
its mutants here.

    python tests/mutants.py    # every row, about 12 min on one core
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
    equivalent: str | None = None  # why no test can tell it apart, when none can


MUTANTS = (
    Mutant(
        "augment-room",
        "oracle._augment: an other-side y with room ends the path",
        "src/fracdel/oracle.py",
        "if other[y].bit_count() >= fv[y]:",
        "if other[y].bit_count() > fv[y]:",
    ),
    Mutant(
        "augment-surplus",
        "oracle._augment: an own-side x2 above g ends the path",
        "src/fracdel/oracle.py",
        "if own[x2].bit_count() > gv[x2]:",
        "if own[x2].bit_count() >= gv[x2]:",
    ),
    Mutant(
        "augment-keep-surplus-arc",
        "oracle._augment: the surplus end gives up its arc to y",
        "src/fracdel/oracle.py",
        "                        own[x2] ^= y_bit  # the path ends at x2, which gives up its arc to y\n"
        "                        other[y] ^= x2_bit\n",
        "",
    ),
    Mutant(
        "augment-flip-free-only",
        "oracle._augment: the flip drops each F step's arc",
        "src/fracdel/oracle.py",
        "                y = came_by_f[x]\n                own[x] ^= 1 << y\n                other[y] ^= 1 << x\n",
        "                y = came_by_f[x]\n",
    ),
    Mutant(
        "degree-test-strict",
        "oracle.is_fractional_ab_deleted: a vertex of degree a already refutes G at S = {}",
        "src/fracdel/oracle.py",
        "if graph.edge_count and low <= a:",
        "if graph.edge_count and low < a:",
    ),
    Mutant(
        "closed-form-delta",
        "oracle.is_fractional_ab_deleted: the closed form b(delta - 1) >= a * Delta counts degrees in G - e",
        "src/fracdel/oracle.py",
        "if b * (low - 1) >= a * high:",
        "if b * low >= a * high:",
    ),
    Mutant(
        "closed-form-strict",
        "oracle.is_fractional_ab_deleted: the closed form holds at b(delta - 1) = a * Delta",
        "src/fracdel/oracle.py",
        "if b * (low - 1) >= a * high:",
        "if b * (low - 1) > a * high:",
    ),
    Mutant(
        "subset-tie-lex-last",
        "oracle._subset_decide: the lex-first of a chunk's smallest violators",
        "src/fracdel/oracle.py",
        "first = min(tuple(_bits(m))",
        "first = max(tuple(_bits(m))",
    ),
    Mutant(
        "subset-tie-numeric-max",
        "oracle._subset_decide: the numerically largest of the smallest violators in place of the lex-first",
        "src/fracdel/oracle.py",
        "first = min(tuple(_bits(m)) for m in bad[sizes == sizes.min()].tolist())",
        "first = tuple(_bits(max(bad[sizes == sizes.min()].tolist())))",
    ),
    Mutant(
        "witness-t-rule",
        "oracle._witness: T takes the vertices strictly below g, or at most g under \"deleted\"",
        "src/fracdel/oracle.py",
        "if d < g[v] + deleted and not smask >> v & 1:",
        "if d <= g[v] + deleted and not smask >> v & 1:",
    ),
    Mutant(
        "epsilon-two-as-one",
        "oracle._epsilon: an edge inside T makes epsilon 2",
        "src/fracdel/oracle.py",
        "    if any(row & tmask for row in t_rows):\n        return 2\n",
        "    if any(row & tmask for row in t_rows):\n        return 1\n",
    ),
    Mutant(
        "epsilon-zero-as-one",
        "oracle._epsilon: an independent T with no neighbour outside S makes epsilon 0",
        "src/fracdel/oracle.py",
        "return 1 if any(row & ~smask for row in t_rows) else 0",
        "return 1 if any(row & ~smask for row in t_rows) else 1",
    ),
    Mutant(
        "epsilon-neighbour-in-s",
        "oracle._epsilon: only a neighbour of T outside S makes epsilon 1",
        "src/fracdel/oracle.py",
        "return 1 if any(row & ~smask for row in t_rows) else 0",
        "return 1 if any(row for row in t_rows) else 0",
    ),
    Mutant(
        "greedy-room-before-below",
        "oracle._greedy_start: a pick takes right copies still below g before those with room only",
        "src/fracdel/oracle.py",
        "pick = free & below or free & room or rest & below or rest & room",
        "pick = free & room or rest & room",
    ),
    Mutant(
        "greedy-highest-bit",
        "oracle._greedy_start: a pick takes the lowest-numbered neighbour first",
        "src/fracdel/oracle.py",
        "            low = pick & -pick\n",
        "            low = 1 << pick.bit_length() - 1\n",
    ),
    Mutant(
        "greedy-no-avoid",
        "oracle._greedy_start: F1's start takes arcs off F0's support first",
        "src/fracdel/oracle.py",
        "free = rest & ~avoid[u] if avoid else rest",
        "free = rest",
    ),
    Mutant(
        "repair-no-right-raise",
        "oracle._repaired: a repair raises u' and v' again on the right side",
        "src/fracdel/oracle.py",
        "(out, into, ends, ends)",
        "(out, into, ends, 0)",
    ),
    Mutant(
        "repair-from-u-only",
        "oracle._repaired: a repair raises from both ends of the deleted edge",
        "src/fracdel/oracle.py",
        "ends = 1 << u | 1 << v",
        "ends = 1 << u",
    ),
    Mutant(
        "per-edge-keeps-one-arc",
        "oracle._factor_of: a G - uv repairs its parent's factor when that uses either arc of uv",
        "src/fracdel/oracle.py",
        "(found[0][u] >> v & 1 or found[0][v] >> u & 1)",
        "(found[0][u] >> v & 1 and found[0][v] >> u & 1)",
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
        "theorem-14-strict",
        "theorems 1.4: rho(G) > rho(extremal(n, a)), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["rho"] - v["rho_extremal"] > DEFAULT_MARGIN',
        'v["rho"] - v["rho_extremal"] >= -DEFAULT_MARGIN',
    ),
    Mutant(
        "theorem-16-strict-extremal",
        "theorems 1.6: q(G) > q(extremal(n, a)), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["q"] - v["q_extremal"] > DEFAULT_MARGIN',
        'v["q"] - v["q_extremal"] >= -DEFAULT_MARGIN',
    ),
    Mutant(
        "theorem-16-strict-threshold",
        "theorems 1.6: q(G) > 2n - 4 + (a + 1) / (n - 1), strictly, past the margin",
        "src/fracdel/theorems.py",
        'v["q"] - v["q_threshold"] > DEFAULT_MARGIN',
        'v["q"] - v["q_threshold"] >= -DEFAULT_MARGIN',
    ),
    Mutant(
        "theorem-16-threshold",
        "theorems 1.6: the threshold 2n - 4 + (a + 1) / (n - 1)",
        "src/fracdel/theorems.py",
        '"q_threshold": 2 * n - 4 + (a + 1) / (n - 1) if n >= 2 else None,',
        '"q_threshold": 2 * n - 4 + a / (n - 1) if n >= 2 else None,',
    ),
    Mutant(
        "jacobi-zero-over-zero",
        "spectral._jacobi: a pair with a_pq = 0 = a_qq - a_pp gets t = 0, not 0/0",
        "src/fracdel/spectral.py",
        "            np.maximum(den, least, out=den)\n",
        "",
    ),
    Mutant(
        "jacobi-kato-temple-gap",
        "spectral._jacobi: the Kato-Temple interval needs theta strictly above the bound alpha on the rest",
        "src/fracdel/spectral.py",
        "if theta > alpha:",
        "if theta >= alpha:",
    ),
    Mutant(
        "jacobi-weyl-off",
        "spectral._jacobi: alpha, the bound on every eigenvalue but the top one, is the second diagonal entry plus off",
        "src/fracdel/spectral.py",
        "default=-math.inf) + off",
        "default=-math.inf)",
    ),
    Mutant(
        "jacobi-relative-width",
        "spectral._jacobi: the interval's width is held to 2^-52 max(1, |theta|), relative to the value",
        "src/fracdel/spectral.py",
        "2.0**-52 * max(1.0, abs(theta))",
        "2.0**-52 * 1.0",
    ),
    Mutant(
        "jacobi-value-from-diagonal",
        "spectral._jacobi: a certified matrix's result is the Rayleigh quotient theta, not its top diagonal entry",
        "src/fracdel/spectral.py",
        "results[j] = theta, width",
        "results[j] = d1, width",
    ),
    Mutant(
        "jacobi-result-taken-once",
        "spectral._jacobi: a matrix's result is taken at its first certificate; later checks skip it",
        "src/fracdel/spectral.py",
        "            if results[j] is not None:  # taken at an earlier check\n                continue\n",
        "",
    ),
    Mutant(
        "theorem-18-bound-plus-one",
        "theorems 1.8: 2e >= (n-1)(n-2) + a + 2, moved up by one",
        "src/fracdel/theorems.py",
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 2,',
        '2 * v["e"] >= (n - 1) * (n - 2) + a + 3,',
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


def _tier1(tree: Path) -> tuple[bool, float]:
    """Whether tier-1 passes on the copy at tree, and how long it took."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
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
        if not passed:
            return 1
        bad = []
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            shutil.copytree(base, tree)
            path = tree / mutant.path
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
            survived, took = _tier1(tree)
            shutil.rmtree(tree)
            expected = mutant.equivalent is not None
            verdict = "survived" if survived else "killed"
            note = " (equivalent)" if expected else ""
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
