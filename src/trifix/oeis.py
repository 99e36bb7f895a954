"""OEIS b-file parsing/serialization and positionwise sequence comparison.

A b-file is plain text: one "index value" pair per line, '#' comment lines
allowed, indices consecutive from the offset.  No network access anywhere;
b-files come from local paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .engine import SequenceRun

_ID_PATTERN = re.compile(r"A\d{6}")
PLACEHOLDER_ID = "A000000"


class BFileParseError(ValueError):
    """Malformed b-file line (non-integer tokens or wrong arity)."""


class BFileStructureError(ValueError):
    """Syntactically valid b-file whose indices are not consecutive."""


@dataclass(frozen=True, slots=True)
class BFile:
    """Parsed b-file: entries are (index, value), indices consecutive
    from ``offset``."""

    sequence_id: str
    offset: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _ID_PATTERN.fullmatch(self.sequence_id):
            raise ValueError(f"bad OEIS id {self.sequence_id!r} (expected 'A' + 6 digits)")

    def value_at(self, index: int) -> int | None:
        i = index - self.offset
        if 0 <= i < len(self.entries):
            return self.entries[i][1]
        return None

    @property
    def last_index(self) -> int:
        return self.offset + len(self.entries) - 1


def parse_bfile(text: str, sequence_id: str = PLACEHOLDER_ID) -> BFile:
    """Parse b-file text.  The format does not carry the sequence id, so it
    is supplied by the caller (default placeholder A000000)."""
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer token in {raw!r}") from None
        if entries and index != entries[-1][0] + 1:
            raise BFileStructureError(
                f"line {lineno}: index {index} does not follow {entries[-1][0]}"
            )
        entries.append((index, value))
    if not entries:
        raise BFileParseError("b-file contains no entries")
    return BFile(sequence_id=sequence_id, offset=entries[0][0], entries=tuple(entries))


def write_bfile(run: SequenceRun) -> str:
    """Serialize a run's a-values as b-file text with offset 1.
    Round-trips through parse_bfile to identical entries."""
    return "".join(f"{n} {a}\n" for n, a in enumerate(run.a, start=1))


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Outcome of a positionwise comparison over the overlapping index
    range after applying the shift.  first_mismatch is (index, expected
    from the b-file, actual) or None for a clean match."""

    compared_length: int
    first_mismatch: tuple[int, int, int] | None
    applied_shift: int

    @property
    def matches(self) -> bool:
        return self.first_mismatch is None


def compare_values(
    pairs: list[tuple[int, int]],
    bfile: BFile,
    shift: int = 0,
) -> ComparisonResult:
    """Compare arbitrary (index, value) pairs against bfile entry
    (index - shift).  Shifts are always explicit: offset mismatches are
    never auto-detected, because shifting changes which values are fixed
    points."""
    compared = 0
    for index, value in pairs:
        expected = bfile.value_at(index - shift)
        if expected is None:
            continue
        compared += 1
        if expected != value:
            return ComparisonResult(compared, (index, expected, value), shift)
    if compared == 0:
        raise ValueError(
            f"no overlap: indices {pairs[0][0]}..{pairs[-1][0]} with shift {shift} "
            f"miss b-file range {bfile.offset}..{bfile.last_index}"
            if pairs
            else "no overlap: empty sequence"
        )
    return ComparisonResult(compared, None, shift)


def compare(run: SequenceRun, bfile: BFile, shift: int = 0) -> ComparisonResult:
    """Compare run term n against bfile entry (n - shift) over the overlap."""
    return compare_values(list(enumerate(run.a, start=1)), bfile, shift)
