"""Command-line interface.

Subcommands: generate, analyze, sweep, conjecture, oeis-check, export.
Every one takes --terms and --out.  Data goes to stdout (or --out),
written by ``main`` alone once the command's other work has succeeded;
diagnostics go to stderr.  Exit codes: 0 success, 1 operational error
(bad flags, I/O, overflow, out of memory), 2 a checked conjecture was
falsified, 130 interrupted.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, count
from typing import TYPE_CHECKING

# Only what every subcommand uses is imported here; each command imports the
# rest: generate nothing more, analyze and conjecture the analysis layer,
# sweep and export the cache layer too, oeis-check the b-file parser.
from . import __version__
from .engine import NO_ZERO, SHIFTED, STANDARD, SequenceRun, SequenceSpec, fixed_points, generate
from .numtheory import CapacityError

if TYPE_CHECKING:  # annotations only: the commands import it when they run
    from . import analysis

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSIFIED = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

CACHE_ENV_VAR = "TRIFIX_CACHE_DIR"

CONJECTURE_IDS = ("3.1", "3.2", "5.1", "6.1")

# The tables a sweep exports, in order: export --what's choices, the CSV
# files of sweep --export-dir, and store's export_<name> functions.
TABLES = ("table2", "table3", "figure2")

# What a command returns: the pieces main writes to stdout (or --out) and
# the exit code.
Output = tuple[Iterable[str], int]


def _parse_p_list(text: str, flag: str = "--p-list") -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _spec_from_args(args, term_count: int) -> SequenceSpec:
    if args.variant in (None, STANDARD):
        if args.p is None:
            raise ValueError("standard variant requires --p")
        return SequenceSpec.standard(args.p, term_count)
    if args.p is not None:
        raise ValueError(f"--p is meaningless for variant {args.variant!r}")
    return SequenceSpec(args.variant, term_count)


def _refuse_unwritable(out_path: str | None, export_dir: str | None = None,
                       cache_dir: str | None = None) -> None:
    """Raise before the run the OSError that writing --out, or making
    --export-dir, would raise once it is done, in three cases: an --out
    that is a directory, an --out in a missing directory the run does not
    make, and an --export-dir that is a file.  A sweep makes its export
    directory and its cache's directory of standard runs, with the
    directories above them.  Creates nothing; any other failure is left to
    the write."""

    def refuse(code: int, name: str):
        raise OSError(code, os.strerror(code), name)

    if export_dir and os.path.exists(export_dir) and not os.path.isdir(export_dir):
        from pathlib import Path

        refuse(errno.EEXIST, str(Path(export_dir)))  # named as Path.mkdir names it
    if not out_path:
        return
    if os.path.isdir(out_path):
        refuse(errno.EISDIR, out_path)
    if out_path.endswith(os.sep):  # open() refuses it its own way
        return
    parent = os.path.dirname(out_path) or os.curdir
    try:
        os.stat(parent)
    except FileNotFoundError:
        real = os.path.realpath(parent)
        made = [export_dir, cache_dir and os.path.join(cache_dir, STANDARD)]  # as store files it
        if not any(d and os.path.commonpath([real, os.path.realpath(d)]) == real for d in made):
            refuse(errno.ENOENT, out_path)
    except OSError:  # ENOTDIR, EACCES: left to the write
        pass


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as out:
            out.writelines(pieces)
        return
    stdout = sys.stdout
    if not isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        stdout.writelines(pieces)
        return
    # Unbuffered stdout (python -u, PYTHONUNBUFFERED) hands each write to the
    # raw file, which may take only part of it: a reader that exits early
    # cuts the output short without an error.  A buffered writer retries
    # short writes, so a closed pipe raises BrokenPipeError instead.
    stdout.flush()
    with open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors,
              closefd=False) as out:
        out.writelines(pieces)


# ---------------------------------------------------------------------------
# generate


def _rows(run: SequenceRun) -> Iterator[tuple[int, int, int, int]]:
    """(n, q(n) - q(n-1), q(n), a(n)) for every term."""
    steps = run.spec.q_steps()
    return zip(count(1), steps, accumulate(steps), run.a)


# %d pads an int as {:>width} does, and widens the column the same way for
# a value wider than it; it formats a row tuple without unpacking it.
_TABLE_ROW = "%6d  %10d  %14d  %10d\n"
_TABLE_FIXED_POINT = "%6d  %10d  %14d  %10d  *\n"


def _format_table(run: SequenceRun) -> Iterator[str]:
    return chain(
        [f"{'n':>6}  {'mult':>10}  {'q(n)':>14}  {'a(n)':>10}  fixed point\n"],
        ((_TABLE_FIXED_POINT if row[0] == row[3] else _TABLE_ROW) % row for row in _rows(run)),
    )


def _format_csv(run: SequenceRun) -> Iterator[str]:
    return chain(
        ["n,mult,q,a,fixed_point\n"],
        (f"{n},{mult},{q},{a},{'true' if a == n else 'false'}\n"
         for n, mult, q, a in _rows(run)),
    )


_JSON_BOOL = ("false", "true")
_JSON_SEPARATOR = ("", ",")


def _format_json(run: SequenceRun) -> Iterator[str]:
    """json.dumps(doc, indent=2) of {"spec": ..., "terms": [...]}, one
    term at a time."""
    import json

    spec = run.spec
    bootstrap = spec.has_bootstrap
    return chain(
        ['{\n  "spec": {\n'
         f'    "variant": {json.dumps(spec.variant)},\n'
         f'    "p": {json.dumps(spec.p)},\n'
         f'    "term_count": {spec.term_count}\n'
         '  },\n  "terms": ['],
        (f'{_JSON_SEPARATOR[n > 1]}\n    {{\n'
         f'      "n": {n},\n      "q": {q},\n      "a": {a},\n'
         f'      "fixed_point": {_JSON_BOOL[a == n]},\n'
         f'      "near_match": {_JSON_BOOL[a == n - 1]},\n'
         f'      "bootstrap_duplicate": {_JSON_BOOL[bootstrap and n == 2 and a == 1]}\n'
         '    }'
         for n, _, q, a in _rows(run)),
        ["\n  ]\n}\n"],
    )


def _cmd_generate(args) -> Output:
    spec = _spec_from_args(args, args.terms)
    _refuse_unwritable(args.out)
    run = generate(spec)
    if args.format == "bfile":
        from .oeis import write_bfile

        return [write_bfile(run)], EXIT_OK
    formatter = {"table": _format_table, "csv": _format_csv, "json": _format_json}
    return formatter[args.format](run), EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _format_report(report: analysis.ClassificationReport, near_list: list[int] | None,
                   small_primes: list[int] | None, remaining: tuple[int, ...]) -> str:
    from .analysis import percent

    primes, nonprimes = report.total_eligible_primes, report.total_nonprimes
    rate, fn_rate = percent(report.detected, primes), percent(report.false_negatives, nonprimes)
    missed = percent(primes - report.detected, primes) if primes else "100.00%"  # complement of 0.00%
    lines = [
        f"sequence {report.spec.label()}, classified n <= {report.n_limit}",
        f"excluded primes: {', '.join(map(str, report.excluded_primes))}",
        f"A) matches n=a(n):    {report.detected}",
        f"B) matches n=a(n+1):  {report.near_matches}",
        f"C) total primes:      {primes}",
        f"success rate (A/C):   {rate}",
        f"false negatives:      {report.false_negatives}",
        f"total nonprimes:      {nonprimes}",
        f"false negative rate:  {fn_rate}",
        f"missed primes ({len(report.missed_primes)}): "
        + (", ".join(map(str, report.missed_primes)) if report.missed_primes else "none"),
        "classification matrix (columns prime, nonprime):",
        f"  detect:        {rate:>8}  {fn_rate:>8}",
        f"  don't detect:  {missed:>8}  {percent(nonprimes - report.false_negatives, nonprimes):>8}",
    ]
    if near_list is not None:
        lines.append(f"near-match primes ({len(near_list)}): {', '.join(map(str, near_list)) or 'none'}")
    if small_primes is not None:
        lines.append(
            f"false negatives not divisible by {{{', '.join(map(str, small_primes))}}}: "
            f"{len(remaining)} (removed {report.false_negatives - len(remaining)})"
        )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> Output:
    from . import analysis

    spec = _spec_from_args(args, args.terms + 1)
    if args.format == "json" and (args.near_matches or args.filter_small_primes is not None):
        # the JSON report mirrors ClassificationReport field for field
        raise ValueError(
            "--near-matches and --filter-small-primes add to the text report only; "
            "they cannot be combined with --format json"
        )
    small = None
    if args.filter_small_primes is not None:
        small = _parse_p_list(args.filter_small_primes, "--filter-small-primes")
        analysis.check_small_primes(small)  # before the run, which may be long
    _refuse_unwritable(args.out)
    run = generate(spec)
    report = analysis.classify(run)
    if args.format == "json":
        return [analysis.report_to_json(report)], EXIT_OK

    near_list = None
    if args.near_matches:
        near_list = [n for n in report.missed_primes if run.a[n] == n]
    remaining = () if small is None else analysis.filter_false_negatives(report, small)
    return [_format_report(report, near_list, small, remaining)], EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _format_sweep(reports: tuple[analysis.ClassificationReport, ...]) -> str:
    from .analysis import percent

    lines = [
        f"sweep over p = {', '.join(str(r.spec.p) for r in reports)} at N = {reports[0].n_limit}",
        f"{'p':>6}  {'detected':>8}  {'near':>5}  {'total':>6}  {'success':>8}  "
        f"{'false_neg':>9}  {'fn_rate':>8}  {'missed':>6}",
    ]
    for r in reports:
        lines.append(
            f"{r.spec.p:>6}  {r.detected:>8}  {r.near_matches:>5}  {r.total_eligible_primes:>6}  "
            f"{percent(r.detected, r.total_eligible_primes):>8}  {r.false_negatives:>9}  "
            f"{percent(r.false_negatives, r.total_nonprimes):>8}  {len(r.missed_primes):>6}"
        )
    missed = sorted(set.intersection(*(set(r.missed_primes) for r in reports)))
    lines.append(f"primes missed by every sequence: {', '.join(map(str, missed)) or 'none'}")
    return "\n".join(lines) + "\n"


def _sweep(args) -> tuple[analysis.ClassificationReport, ...]:
    """The sweep that sweep and export run.  Its cache is --cache, else
    $TRIFIX_CACHE_DIR (an empty value counts as unset); export requires one."""
    from . import analysis

    p_list = _parse_p_list(args.p_list)
    cache_dir = args.cache or os.environ.get(CACHE_ENV_VAR) or None
    if cache_dir is None and args.command == "export":
        raise ValueError(f"export needs --cache or ${CACHE_ENV_VAR}")
    _refuse_unwritable(args.out, getattr(args, "export_dir", None), cache_dir)
    return analysis.sweep(p_list, args.terms, jobs=args.jobs, cache_dir=cache_dir)


def _export(name: str, reports: tuple[analysis.ClassificationReport, ...]) -> str:
    """Table ``name`` of TABLES as CSV text, by store's exporter of that name."""
    from . import store

    return getattr(store, f"export_{name}")(reports)


def _cmd_sweep(args) -> Output:
    reports = _sweep(args)
    if args.export_dir:
        from pathlib import Path

        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in TABLES:
            (out / f"{name}.csv").write_text(_export(name, reports), encoding="utf-8")
        print(f"wrote {', '.join(f'{name}.csv' for name in TABLES)} to {out}", file=sys.stderr)
    return [_format_sweep(reports)], EXIT_OK


# ---------------------------------------------------------------------------
# conjecture


def _format_conjecture(result: analysis.ConjectureResult) -> str:
    seqs = ", ".join(result.sequences)
    if result.holds:
        return f"conjecture {result.conjecture_id} [{seqs}]: HOLDS up to N={result.n_limit}\n"
    first = result.counterexamples[0]
    return (
        f"conjecture {result.conjecture_id} [{seqs}]: FALSIFIED, "
        f"{len(result.counterexamples)} counterexample(s); "
        f"first: {first.sequence} n={first.n} ({first.detail})\n"
    )


def _cmd_conjecture(args) -> Output:
    from . import analysis

    if args.id == "5.1" and args.p_list is not None:
        raise ValueError("--p-list does not apply to --id 5.1, "
                         "which checks the shifted sequence")
    p_list = None if args.p_list is None else _parse_p_list(args.p_list)
    _refuse_unwritable(args.out)
    results = analysis.run_conjecture(args.id, args.terms, p_list)
    text = "".join(map(_format_conjecture, results))
    if args.id == "5.1":
        total = results[0].primes_checked
        text = (f"{total - len(results[0].counterexamples)}/{total} odd primes detected "
                f"as fixed points of the shifted sequence\n") + text
    return [text], EXIT_OK if all(r.holds for r in results) else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# oeis-check


_BFILE_NAME = re.compile(r"b(\d{6})\.txt")
_OEIS_ID = re.compile(r"A\d{6}")


def _cmd_oeis_check(args) -> Output:
    from pathlib import Path

    from . import oeis

    path = Path(args.bfile)
    bfile = oeis.parse_bfile(path.read_text(encoding="utf-8"))
    sequence_id = args.sequence_id
    if sequence_id is None:
        m = _BFILE_NAME.fullmatch(path.name)
        sequence_id = f"A{m.group(1)}" if m else "A000000"
    elif not _OEIS_ID.fullmatch(sequence_id):
        raise ValueError(f"bad OEIS id {sequence_id!r} (expected 'A' + 6 digits)")

    spec = _spec_from_args(args, args.terms)
    _refuse_unwritable(args.out)
    run = generate(spec)
    if args.field == "a":
        values = run.a
    elif args.field == "q":
        values = list(spec.q_values())
    else:  # fixed-points, compared as their own sequence (k-th fixed point)
        values = fixed_points(run)
    result = oeis.compare(values, bfile, args.shift)

    if result.matches:
        verdict = f"MATCH over {result.compared_length} position(s)"
    else:
        idx, expected, actual = result.first_mismatch
        verdict = f"MISMATCH at index {idx}: expected {expected}, got {actual}"
    return [f"{spec.label()} [{args.field}] vs {sequence_id} shift {args.shift}: {verdict}\n"], EXIT_OK


# ---------------------------------------------------------------------------
# export


def _cmd_export(args) -> Output:
    return [_export(args.what, _sweep(args))], EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trifix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags commands share, each declared once in a parent parser
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--terms", type=int, default=10_000, metavar="N",
                        help="number of term indices (default %(default)s)")
    shared.add_argument("--out", default=None, help="write to file instead of stdout")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--p", type=int, default=None, help="multiplier for the standard variant")
    spec.add_argument("--variant", choices=(STANDARD, NO_ZERO, SHIFTED), default=None,
                      help="sequence variant (default standard, which requires --p)")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--p-list", required=True, metavar="LIST", help="comma-separated p values")
    family.add_argument("--jobs", type=int, default=1, help="parallel workers across p values")
    family.add_argument("--cache", default=None,
                        help=f"run cache directory (default ${CACHE_ENV_VAR})")

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=[shared, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    g = command("generate", _cmd_generate, [spec], "generate a sequence and print its terms")
    g.add_argument("--format", choices=("table", "csv", "json", "bfile"), default="table")

    a = command("analyze", _cmd_analyze, [spec], "classification report for one sequence")
    a.add_argument("--near-matches", action="store_true",
                   help="also list primes appearing one position late")
    a.add_argument("--filter-small-primes", metavar="LIST", default=None,
                   help="comma-separated primes; report false negatives not divisible by any")
    a.add_argument("--format", choices=("text", "json"), default="text")

    s = command("sweep", _cmd_sweep, [family], "classify a family of standard sequences")
    s.add_argument("--export-dir", default=None,
                   help=f"also write {'/'.join(TABLES)} CSV files here")

    c = command("conjecture", _cmd_conjecture, [],
                "check a stated conjecture; exit 2 if falsified")
    c.add_argument("--id", choices=CONJECTURE_IDS, required=True)
    c.add_argument("--p-list", metavar="LIST", default=None,
                   help="p values for 3.1/3.2/6.1 (defaults: family / 541)")

    o = command("oeis-check", _cmd_oeis_check, [spec],
                "compare a generated sequence against a local b-file")
    o.add_argument("--bfile", required=True, help="path to a b-file (bNNNNNN.txt)")
    o.add_argument("--shift", type=int, default=0,
                   help="compare run index n against b-file index n-shift")
    o.add_argument("--field", choices=("a", "q", "fixed-points"), default="a")
    o.add_argument("--sequence-id", default=None, help="override the id derived from the filename")

    e = command("export", _cmd_export, [family], "rebuild a table/figure CSV from cached runs")
    e.add_argument("--what", choices=TABLES, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a bad flag,
        # but 2 means a falsified conjecture: a bad flag is an error
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        least = 2 if args.command in ("sweep", "export") else 1  # analysis.sweep's least N
        if args.terms < least:
            raise ValueError(f"--terms must be >= {least}, got {args.terms}")
        pieces, code = args.func(args)
        _emit(pieces, args.out)
        return code
    except BrokenPipeError:
        return EXIT_ERROR
    except (ValueError, OverflowError, CapacityError, OSError) as exc:
        print(f"trifix: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print(f"trifix: error: out of memory at --terms {args.terms}; try fewer terms", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("trifix: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
