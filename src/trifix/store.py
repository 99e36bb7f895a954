"""Run cache and report serialization.

Cached runs live one directory per variant, one entry per sequence, file
names encoding (p, format version).  The greedy rule has no lookahead, so
a(1..N) is a prefix of every longer run of the same sequence: one entry
serves every request up to its length.  The payload is b-file text, so
cached runs are human-inspectable and directly comparable with OEIS data.
A JSON manifest alongside each payload carries creation parameters and a
sha256 checksum.  Writes go to a temporary file then rename, so a crashed
sweep never leaves a truncated entry observable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import secrets
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from operator import mod
from pathlib import Path

from .analysis import ClassificationReport, SweepReport, percent
from .engine import STANDARD, SequenceRun, SequenceSpec
from .oeis import parse_bfile, write_bfile

FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class CacheEntry:
    payload_path: Path
    manifest: dict


def _paths(spec: SequenceSpec, cache_dir: str | os.PathLike) -> tuple[Path, Path]:
    """The one entry of spec's sequence, whatever its term count."""
    stem = f"p{spec.p}_v{FORMAT_VERSION}" if spec.variant == STANDARD else f"v{FORMAT_VERSION}"
    base = Path(cache_dir) / spec.variant / stem
    return base.with_suffix(".bfile.txt"), base.with_suffix(".manifest.json")


def _write_atomic(path: Path, data: str) -> None:
    """Write through a temporary file of this call's own, next to path, then
    rename it over path: concurrent writers of one entry never share it."""
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_run(run: SequenceRun, cache_dir: str | os.PathLike) -> CacheEntry:
    """Persist a run as its sequence's entry, replacing any earlier one;
    the payload is the b-file serialization of its a-values (offset 1)."""
    from . import __version__

    payload = write_bfile(run)
    manifest = {
        "variant": run.spec.variant,
        "p": run.spec.p,
        "term_count": run.spec.term_count,
        "format_version": FORMAT_VERSION,
        "engine_version": __version__,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    payload_path, manifest_path = _paths(run.spec, cache_dir)
    payload_path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(payload_path, payload)
    _write_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return CacheEntry(payload_path, manifest)


def _cached_values(
    spec: SequenceSpec, payload_path: Path, manifest_path: Path
) -> tuple[int, ...] | None:
    """a(1..N) of spec from its cache entry, or None when the entry is a
    shorter run.  Raises ValueError (malformed JSON and b-file text
    included) saying why the entry is damaged, stale or not a run of spec."""
    from . import __version__

    payload = payload_path.read_text(encoding="utf-8")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if not isinstance(manifest, dict) or digest != manifest.get("sha256"):
        raise ValueError("payload does not match the manifest's sha256 checksum")
    if manifest.get("engine_version") != __version__:
        raise ValueError(
            f"engine version {manifest.get('engine_version')!r}, expected {__version__!r}"
        )
    held = manifest.get("term_count")
    if not isinstance(held, int):
        raise ValueError(f"manifest term count {held!r} is not an integer")
    count = spec.term_count
    if held < count:
        return None
    if held > count:  # the checksum covered every line; parse only those served,
        # with the last one's newline, which keeps write_bfile's layout
        payload = "\n".join(payload.split("\n", count)[:count]) + "\n"
    bfile = parse_bfile(payload)
    if bfile.offset != 1 or len(bfile.values) < count:
        raise ValueError(f"payload does not hold terms 1..{count}")
    values = bfile.values[:count]
    if values[0] != 1:
        raise ValueError(f"a(1) = {values[0]}, expected 1")
    # Whole-sequence passes first; the per-term scan below applies the same
    # rules and runs only to name the first term that breaks one.  The
    # distinct values are counted as dict keys: at 10^4 terms the table is
    # about two thirds of a set's (430 against 640 KiB), and this transient,
    # not the chunked parse, sets a warm sweep's traced peak.
    bootstrap = spec.has_bootstrap and count > 1 and values[1] == 1
    if (min(values) >= 1 and not any(map(mod, spec.q_values(count), values))
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
    a shorter entry is a plain miss.  An entry that is damaged, written by
    another engine version or not a valid run is warned about and treated
    as absent."""
    payload_path, manifest_path = _paths(spec, cache_dir)
    if not payload_path.exists() or not manifest_path.exists():
        return None
    try:
        values = _cached_values(spec, payload_path, manifest_path)
    except ValueError as exc:
        warnings.warn(
            f"cache entry {payload_path} is damaged or invalid: {exc}; treating as absent",
            stacklevel=2,
        )
        return None
    return None if values is None else SequenceRun(spec, values)


# ---------------------------------------------------------------------------
# Report serialization


def report_to_json(report: ClassificationReport) -> str:
    """JSON mirror of ClassificationReport, field for field.  Rates are
    emitted as floats; the integer counts alongside stay exact."""
    doc = {
        name: float(value) if isinstance(value, Fraction) else value
        for name, value in asdict(report).items()
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def export_table2(sweep: SweepReport) -> str:
    """Success-rate table: matches, near matches, eligible-prime totals and
    the two-decimal percentage row, one column per p."""
    header = ["row"] + [f"p={p}" for p in sweep.p_list]
    if not sweep.p_list:
        return _csv_text([header])
    rows = [
        header,
        ["A) matches n=a(n)"] + [str(r.detected) for r in sweep.reports],
        ["B) matches n=a(n+1)"] + [str(r.near_matches) for r in sweep.reports],
        ["C) total primes"] + [str(r.total_eligible_primes) for r in sweep.reports],
        ["success rate (A/C)"] + [percent(r.success_rate) for r in sweep.reports],
    ]
    return _csv_text(rows)


def export_table3(sweep: SweepReport) -> str:
    """False-negative table: counts, nonprime totals, percentage row."""
    header = ["row"] + [f"p={p}" for p in sweep.p_list]
    if not sweep.p_list:
        return _csv_text([header])
    rows = [
        header,
        ["A) false negatives"] + [str(r.false_negatives) for r in sweep.reports],
        ["B) total nonprimes"] + [str(r.total_nonprimes) for r in sweep.reports],
        ["% (A/B)"] + [percent(r.false_negative_rate) for r in sweep.reports],
    ]
    return _csv_text(rows)


def export_figure2(sweep: SweepReport) -> str:
    """(p, success rate in percent) pairs, plot-ready."""
    rows = [["p", "success_rate_percent"]]
    for p, rate in sweep.figure2_series:
        rows.append([str(p), percent(rate).rstrip("%")])
    return _csv_text(rows)
