"""OEIS b-file parsing/serialization and positionwise sequence comparison.

A b-file is plain text: one "index value" pair per line, '#' comment lines
allowed, indices consecutive from the offset.  No network access anywhere;
b-files come from local paths.
"""

from __future__ import annotations

from collections.abc import Sequence

from .engine import FrozenValue, SequenceRun


class BFileParseError(ValueError):
    """Malformed b-file line (non-integer tokens or wrong arity)."""


class BFileStructureError(ValueError):
    """Syntactically valid b-file whose indices are not consecutive."""


class BFile(FrozenValue):
    """Parsed b-file: ``values[i]`` is the entry at index ``offset + i``."""

    __slots__ = ("offset", "values")
    offset: int
    values: tuple[int, ...]


def parse_bfile(text: str) -> BFile:
    """Parse b-file text into its first index and its values, line by line.
    Raises BFileParseError or BFileStructureError naming the first bad line."""
    offset = 0
    values: list[int] = []
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
        if not values:
            offset = index
        elif index != offset + len(values):
            raise BFileStructureError(
                f"line {lineno}: index {index} does not follow {offset + len(values) - 1}"
            )
        values.append(value)
    if not values:
        raise BFileParseError("b-file contains no entries")
    return BFile(offset, tuple(values))


def write_bfile(run: SequenceRun) -> str:
    """Serialize a run's a-values as b-file text with offset 1.
    Round-trips through parse_bfile to identical values."""
    return "".join(f"{n} {a}\n" for n, a in enumerate(run.a, start=1))


class ComparisonResult(FrozenValue):
    """Outcome of a positionwise comparison over the overlapping index
    range after applying the shift.  first_mismatch is (index, expected
    from the b-file, actual) or None for a clean match."""

    __slots__ = ("compared_length", "first_mismatch")
    compared_length: int
    first_mismatch: tuple[int, int, int] | None

    @property
    def matches(self) -> bool:
        return self.first_mismatch is None


def compare(values: Sequence[int], bfile: BFile, shift: int = 0) -> ComparisonResult:
    """Compare ``values[n-1]`` (index n, counted from 1) with b-file entry
    n - shift wherever both exist.  Shifts are always explicit: offset
    mismatches are never auto-detected, because shifting changes which
    values are fixed points."""
    start = bfile.offset + shift  # the index that meets the first b-file entry
    first = max(1, start)
    last = min(len(values), start + len(bfile.values) - 1)
    if first > last:
        raise ValueError(
            f"no overlap: indices 1..{len(values)} with shift {shift} "
            f"miss b-file range {bfile.offset}..{bfile.offset + len(bfile.values) - 1}"
            if values
            else "no overlap: empty sequence"
        )
    for n in range(first, last + 1):
        expected, actual = bfile.values[n - start], values[n - 1]
        if expected != actual:
            return ComparisonResult(n - first + 1, (n, expected, actual))
    return ComparisonResult(last - first + 1, None)
