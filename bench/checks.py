"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  Checks are independent of the order of --p-list.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path


def _table(path: Path) -> dict[str, dict[int, str]]:
    """Exported table as {row label: {p: cell}}."""
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header = [int(cell.removeprefix("p=")) for cell in rows[0][1:]]
    return {row[0]: dict(zip(header, row[1:])) for row in rows[1:]}


def check_sweep(export_dir: Path, p_list: list[int], expected: dict) -> list[str]:
    """table2.csv and table3.csv must carry the pinned numbers for every p:
    matches, near matches and eligible primes; false negatives and
    nonprimes."""
    try:
        table2 = _table(export_dir / "table2.csv")
        table3 = _table(export_dir / "table3.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable export: {exc}"]
    rows = (
        (table2, "A) matches n=a(n)", "matches"),
        (table2, "B) matches n=a(n+1)", "near_matches"),
        (table2, "C) total primes", "eligible_primes"),
        (table3, "A) false negatives", "false_negatives"),
        (table3, "B) total nonprimes", "nonprimes"),
    )
    problems = []
    for table, label, key in rows:
        got = table.get(label, {})
        if sorted(got) != sorted(p_list):
            problems.append(f"{label}: columns {sorted(got)}, expected {sorted(p_list)}")
            continue
        for p in p_list:
            want = expected[key] if isinstance(expected[key], int) else expected[key][str(p)]
            if got[p] != str(want):
                problems.append(f"{label} p={p}: {got[p]}, expected {want}")
    return problems


def check_generate(stdout_path: Path, p: int, terms: int, digest: str) -> list[str]:
    """Table output of `generate --p p`: every a(n) divides q(n), the values
    are distinct, the fixed-point marker is set exactly when a(n) = n, and
    the bytes hash to the digest recorded for this workload."""
    data = stdout_path.read_bytes()
    problems = []
    got_digest = hashlib.sha256(data).hexdigest()
    if got_digest != digest:
        problems.append(f"stdout sha256 {got_digest}, expected {digest}")
    lines = data.decode("utf-8").splitlines()[1:]
    if len(lines) != terms:
        return problems + [f"{len(lines)} terms, expected {terms}"]
    seen = set()
    for n, line in enumerate(lines, start=1):
        fields = line.split()
        try:
            row_n, q, a = int(fields[0]), int(fields[2]), int(fields[3])
        except (IndexError, ValueError):
            return problems + [f"unparsable row {n}: {line!r}"]
        marked = fields[4:] == ["*"]
        if row_n != n or q != p * (n - 1) * n // 2:
            problems.append(f"row {n}: n={row_n}, q={q}")
        elif n > 1 and q % a:
            problems.append(f"a({n}) = {a} does not divide q({n}) = {q}")
        elif a in seen:
            problems.append(f"a({n}) = {a} repeats an earlier value")
        elif marked != (a == n):
            problems.append(f"row {n}: fixed-point marker {marked} for a(n) = {a}")
        seen.add(a)
        if len(problems) > 5:
            break
    return problems
