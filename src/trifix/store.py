"""Run cache and the sweep's CSV tables.

Cached runs live one directory per variant, one entry per sequence, file
names encoding (p, format version).  The greedy rule has no lookahead, so
a(1..N) is a prefix of every longer run of the same sequence: one entry
serves every request up to its length.  The payload is a(1..N) as
little-endian signed 64-bit words, the layout of ``array('q')`` on a
little-endian host, so a hit decodes its N words in one call and parses no
text.  Payloads are not human-readable: ``generate --format bfile`` and
``oeis-check`` are the way to compare runs with OEIS data.  The payload's
``.bfile.txt`` suffix is historical, kept because the benchmark harness
finds entries by it.  A JSON manifest alongside each payload names the
entry's sequence, layout and engine, which a read compares with its own,
and carries the term count and a sha256 checksum of the payload.  Writes
go to a temporary file then rename, so a crashed sweep never leaves a
truncated entry observable.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import warnings
from array import array
from operator import mod
from pathlib import Path

from .analysis import ClassificationReport, percent
from .engine import STANDARD, FrozenValue, SequenceRun, SequenceSpec

# Unused here.  The benchmark's tracer (bench/tracer.py) imports trifix.cli
# and trifix.store, then wraps oeis.parse_bfile in sys.modules["trifix.oeis"],
# and raises KeyError if no module loaded it; this import goes when the
# tracer stops wrapping parse_bfile.
from . import oeis  # noqa: F401

FORMAT_VERSION = 2


class CacheEntry(FrozenValue):
    __slots__ = ("payload_path", "manifest")
    payload_path: Path
    manifest: dict


def _paths(spec: SequenceSpec, cache_dir: str | os.PathLike) -> tuple[Path, Path]:
    """The one entry of spec's sequence, whatever its term count."""
    stem = f"p{spec.p}_v{FORMAT_VERSION}" if spec.variant == STANDARD else f"v{FORMAT_VERSION}"
    base = Path(cache_dir) / spec.variant / stem
    return base.with_suffix(".bfile.txt"), base.with_suffix(".manifest.json")


def _write_atomic(path: Path, data: bytes | array) -> None:
    """Write through a temporary file of this call's own, next to path, then
    rename it over path: concurrent writers of one entry never share it."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _identity(spec: SequenceSpec) -> dict:
    """The manifest fields that name an entry's sequence and writer: an
    entry whose fields differ is another sequence's, layout's or engine's."""
    from . import __version__

    return {"variant": spec.variant, "p": spec.p, "format_version": FORMAT_VERSION,
            "engine_version": __version__}


def save_run(run: SequenceRun, cache_dir: str | os.PathLike) -> CacheEntry:
    """Persist a run as its sequence's entry, replacing any earlier one;
    the payload is its a-values as little-endian 64-bit words."""
    payload = run.a
    if sys.byteorder == "big":  # swap a copy; else run.a is written as it is
        payload = array("q", payload)
        payload.byteswap()
    manifest = {
        **_identity(run.spec),
        "term_count": run.spec.term_count,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }
    payload_path, manifest_path = _paths(run.spec, cache_dir)
    payload_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(payload_path, payload)
    _write_atomic(manifest_path, (json.dumps(manifest, indent=2) + "\n").encode())
    return CacheEntry(payload_path, manifest)


def _cached_values(spec: SequenceSpec, payload_path: Path, manifest_path: Path) -> array | None:
    """a(1..N) of spec from its cache entry as an ``array('q')``, or None if
    the entry is a shorter run.  Raises ValueError (malformed or too deeply
    nested JSON included) saying why the entry is damaged, stale or not a run of spec."""
    payload = payload_path.read_bytes()
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("manifest nests too deeply to parse") from None
    digest = hashlib.sha256(payload).hexdigest()
    if not isinstance(manifest, dict) or digest != manifest.get("sha256"):
        raise ValueError("payload does not match the manifest's sha256 checksum")
    for field, expected in _identity(spec).items():
        if manifest.get(field) != expected:
            raise ValueError(f"{field.replace('_', ' ')} {manifest.get(field)!r}, expected {expected!r}")
    held = manifest.get("term_count")
    if not isinstance(held, int):
        raise ValueError(f"manifest term count {held!r} is not an integer")
    if len(payload) != 8 * held:
        raise ValueError(f"payload has {len(payload)} bytes, expected {8 * held} (8 per term)")
    count = spec.term_count
    if held < count:
        return None
    values = array("q")
    values.frombytes(memoryview(payload)[:8 * count])  # the words past N are hashed, never decoded
    if sys.byteorder == "big":
        values.byteswap()
    if values[0] != 1:
        raise ValueError(f"a(1) = {values[0]}, expected 1")
    # Whole-sequence passes first; the per-term scan below applies the same
    # rules and runs only to name the first term that breaks one.  The
    # distinct values are counted as dict keys: at 10^4 terms the table is
    # about two thirds of a set's (430 against 640 KiB), and this transient
    # sets a warm sweep's traced peak.
    bootstrap = spec.has_bootstrap and count > 1 and values[1] == 1
    if (min(values) >= 1 and not any(map(mod, spec.q_values(), values))
            and len(dict.fromkeys(values)) == count - bootstrap):
        return values
    seen = set()
    for n, a in enumerate(values, start=1):
        if a < 1 or spec.q(n) % a:
            raise ValueError(f"a({n}) = {a} does not divide q({n})")
        if a in seen and not (n == 2 and spec.has_bootstrap):
            raise ValueError(f"a({n}) = {a} repeats an earlier value")
        seen.add(a)
    return values


def load_run(spec: SequenceSpec, cache_dir: str | os.PathLike) -> SequenceRun | None:
    """Load a cached run for ``spec``, or None.  The entry of the sequence
    serves any term_count up to its own, truncated (prefixes are stable);
    a shorter entry, or a file of it gone when read, is a plain miss.  An
    entry that is damaged, written by another engine version or not a
    valid run is warned about and treated as absent."""
    payload_path, manifest_path = _paths(spec, cache_dir)
    try:
        values = _cached_values(spec, payload_path, manifest_path)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        warnings.warn(
            f"cache entry {payload_path} is damaged or invalid: {exc}; treating as absent",
            stacklevel=2,
        )
        return None
    return None if values is None else SequenceRun(spec, values)


# ---------------------------------------------------------------------------
# The sweep's CSV tables


def _csv_text(rows: list[list[str]]) -> str:
    """Comma-joined cells, one "\n"-ended line per row.  No cell needs CSV
    quoting: they are fixed labels, integers and percent() strings."""
    return "".join(",".join(row) + "\n" for row in rows)


def export_table2(reports: tuple[ClassificationReport, ...]) -> str:
    """Success-rate table of a sweep's reports: matches, near matches,
    eligible-prime totals and the two-decimal percentage row, one column per p."""
    header = ["row"] + [f"p={r.spec.p}" for r in reports]
    if not reports:
        return _csv_text([header])
    rows = [
        header,
        ["A) matches n=a(n)"] + [str(r.detected) for r in reports],
        ["B) matches n=a(n+1)"] + [str(r.near_matches) for r in reports],
        ["C) total primes"] + [str(r.total_eligible_primes) for r in reports],
        ["success rate (A/C)"] + [percent(r.detected, r.total_eligible_primes) for r in reports],
    ]
    return _csv_text(rows)


def export_table3(reports: tuple[ClassificationReport, ...]) -> str:
    """False-negative table: counts, nonprime totals, percentage row."""
    header = ["row"] + [f"p={r.spec.p}" for r in reports]
    if not reports:
        return _csv_text([header])
    rows = [
        header,
        ["A) false negatives"] + [str(r.false_negatives) for r in reports],
        ["B) total nonprimes"] + [str(r.total_nonprimes) for r in reports],
        ["% (A/B)"] + [percent(r.false_negatives, r.total_nonprimes) for r in reports],
    ]
    return _csv_text(rows)


def export_figure2(reports: tuple[ClassificationReport, ...]) -> str:
    """(p, success rate in percent) pairs, plot-ready."""
    rows = [["p", "success_rate_percent"]]
    for r in reports:
        rows.append([str(r.spec.p), percent(r.detected, r.total_eligible_primes).rstrip("%")])
    return _csv_text(rows)
