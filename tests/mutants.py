"""Mutation check of the hot loops: each listed mutant must fail a fast
subset of the tests.

    python tests/mutants.py

It copies ``src/`` and ``tests/`` to a temporary directory, checks that
the unmutated copy passes the subset, then applies each mutant, one
source-string replacement inside one named function (or at module level),
to the copy alone and runs ``pytest -x -q`` on the subset against it.  The
checkout is never written.  Stdlib only; pytest never collects this file.

The subset is the engine's work pins, then the acceptance, cache and
engine tests.  Known survivors change how many loop iterations a step
makes but neither a term nor the used-map reads the work pins count; they
are run and reported, and need not fail.

Exit status: 0 when every other mutant failed the subset, 1 when one passed
it (or a known survivor is now killed, so the list is out of date), 2 when
the unmutated copy fails it or a mutant no longer applies.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run in turn, the next only when one passes: the work pins read in about a
# second what most work-only mutants change
SUBSET = [["tests/test_engine.py::TestWorkPins"],
          ["tests/test_acceptance.py", "tests/test_store.py", "tests/test_engine.py",
           "--deselect", "tests/test_engine.py::TestWorkPins"]]
TIMEOUT = 600  # seconds a mutant's run may take; a hang counts as killed
ENGINE, NUMTHEORY = "src/trifix/engine.py", "src/trifix/numtheory.py"
ANALYSIS, STORE = "src/trifix/analysis.py", "src/trifix/store.py"
WORK_ONLY = "changes loop iterations but no term and no used-map read"


class Mutant:
    """Replace ``old``, which must occur exactly once in ``function`` of
    ``path`` (in the whole file when function is None), by ``new``."""

    def __init__(self, name, path, function, old, new, survives=None):
        self.name, self.path, self.function = name, path, function
        self.old, self.new, self.survives = old, new, survives

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        start, stop = 0, len(lines)
        if self.function is not None:
            [node] = [node for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef) and node.name == self.function]
            start, stop = node.lineno - 1, node.end_lineno
        body = "".join(lines[start:stop])
        if body.count(self.old) != 1:
            raise ValueError(f"{self.name}: {body.count(self.old)} matches in "
                             f"{self.function or self.path}, expected 1")
        return "".join(lines[:start]) + body.replace(self.old, self.new) + "".join(lines[stop:])


MUTANTS = [
    # _extend, work only: the pins see each but the last two
    Mutant("forward pair scan keeps its hit below hi", ENGINE, "_extend",
           "if w >= lo and not (used[w] if w < size else w in spill):\n"
           "                                        v = w\n"
           "                                        hi = w - 1",
           "if w >= lo and not (used[w] if w < size else w in spill):\n"
           "                                        v = w\n"
           "                                        hi = w"),
    Mutant("shared search bisects at floor(mex/z)", ENGINE, "_extend",
           "bisect_left(ts, -(-mex // z))", "bisect_left(ts, mex // z)"),
    Mutant("SHARED_SEARCH_MIN 3 -> 2", ENGINE, None,
           "SHARED_SEARCH_MIN = 3", "SHARED_SEARCH_MIN = 2"),
    Mutant("mex advances at most one a step", ENGINE, "_extend",
           "while used[mex]:\n                        mex += 1\n                    xs = ys",
           "if used[mex]:\n                        mex += 1\n                    xs = ys"),
    Mutant("downward scan from zx*zx <= lo", ENGINE, "_extend",
           "if zx * zx < lo:", "if zx * zx <= lo:", survives=WORK_ONLY),
    Mutant("pair scan continues past z > hi", ENGINE, "_extend",
           "for z in zs:\n                        if z > hi:\n                            break\n"
           "                        for x in short:",
           "for z in zs:\n                        if z > hi:\n                            continue\n"
           "                        for x in short:", survives=WORK_ONLY),
    # _extend, output changing
    Mutant("pair scan carries a stale list", ENGINE, "_extend",
           "                    xs = ys\n", "                    xs = xs\n"),
    Mutant("forward pair scan skips w = lo", ENGINE, "_extend",
           "if w >= lo and not", "if w > lo and not"),
    Mutant("shared search skips the mex", ENGINE, "_extend",
           "j = bisect_left(ts, mex)\n", "j = bisect_left(ts, mex + 1)\n"),
    # _triangular_divisors
    Mutant("products of T pair with a stale list", ENGINE, "_triangular_divisors",
           "        xs = ys\n", "        xs = xs\n"),
    Mutant("divisors of T descend", ENGINE, "_triangular_divisors",
           "ts.sort()", "ts.sort(reverse=True)"),
    # _sieved_divisors
    Mutant("a square's root is listed twice", NUMTHEORY, "_sieved_divisors",
           "if k == d * d:", "if k == d * d + 1:"),
    Mutant("small divisors stop below isqrt(last)", NUMTHEORY, "_sieved_divisors",
           "range(1, isqrt(last) + 1, step)", "range(1, isqrt(last), step)"),
    # classify
    Mutant("p is never excluded", ANALYSIS, "classify",
           "if p != 2 and p <= n_limit and prime[p]:", "if p != 2 and p < 0 and prime[p]:"),
    Mutant("near matches read a(n)", ANALYSIS, "classify",
           "if a[n] == n:", "if a[n - 1] == n:"),
    Mutant("1 is not a nonprime", ANALYSIS, "classify",
           "total_nonprimes = n_limit - prime_count", "total_nonprimes = n_limit - prime_count - 1"),
    # _cached_values
    Mutant("an entry of exactly N terms is a miss", STORE, "_cached_values",
           "if held < count:", "if held <= count:"),
    Mutant("a shorter request gets every word", STORE, "_cached_values",
           "memoryview(payload)[:8 * count]", "memoryview(payload)[:8 * held]"),
    Mutant("the checksum is not compared", STORE, "_cached_values",
           'digest != manifest.get("sha256")', 'digest is None'),
]


def run_subset(copy: Path) -> tuple[bool, str]:
    """Whether the subset passes against the copy's sources, and pytest's
    last line."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("TRIFIX_CACHE_DIR", None)
    for tests in SUBSET:
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT} s"
        lines = done.stdout.strip().splitlines()
        last = lines[-1] if lines else done.stderr.strip()[-200:]
        if done.returncode != 0:
            return False, last
    return True, last


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory(prefix="trifix-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        where = subprocess.run([sys.executable, "-c", "import trifix; print(trifix.__file__)"],
                               cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                               capture_output=True, text=True, timeout=60).stdout.strip()
        if not where.startswith(str(copy)):
            print(f"the copy's trifix is not the one imported ({where or 'none'})")
            return 2
        passed, last = run_subset(copy)
        if not passed:
            print(f"unmutated copy fails the subset: {last}")
            return 2
        for mutant in MUTANTS:
            path = copy / mutant.path
            source = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutant.apply(source), encoding="utf-8")
            except ValueError as exc:
                print(f"NO MATCH  {exc}")
                status = 2
                continue
            began = time.perf_counter()
            try:
                passed, last = run_subset(copy)
            finally:
                path.write_text(source, encoding="utf-8")
            took = f"{time.perf_counter() - began:5.1f} s"
            if passed == bool(mutant.survives):
                verdict = "survived (known)" if passed else "killed"
            else:
                verdict = "SURVIVED" if passed else "KILLED (listed as a survivor)"
                status = max(status, 1)
            print(f"{verdict:<28} {took}  {mutant.name}: {last}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
