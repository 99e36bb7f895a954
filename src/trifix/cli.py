"""Command-line interface.

Subcommands: generate, analyze, sweep, conjecture, oeis-check, export.
Data goes to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 1 operational error (bad flags, I/O, overflow, out of memory),
2 a checked conjecture was falsified, 130 interrupted.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, count
from typing import TYPE_CHECKING

# Only what every subcommand uses is imported here.  The rest is imported by
# the commands that use it, so `generate` never loads the analysis and cache
# layers (nor hashlib, json, decimal or fractions with them).
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


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 is reserved for
    falsified conjectures, so flag errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_p_list(text: str, flag: str = "--p-list") -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} is empty")
    return values


def _cache_dir(args) -> str | None:
    """--cache, else $TRIFIX_CACHE_DIR; an empty value counts as unset."""
    return args.cache or os.environ.get(CACHE_ENV_VAR) or None


def _spec_from_args(args, term_count: int) -> SequenceSpec:
    variant = getattr(args, "variant", None)
    p = getattr(args, "p", None)
    if variant in (None, STANDARD):
        if p is None:
            raise ValueError("standard variant requires --p")
        return SequenceSpec.standard(p, term_count)
    if p is not None:
        raise ValueError(f"--p is meaningless for variant {variant!r}")
    return SequenceSpec(variant, term_count)


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


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args, args.terms)
    run = generate(spec)
    if args.format == "bfile":
        from .oeis import write_bfile

        pieces = [write_bfile(run)]
    else:
        formatter = {"table": _format_table, "csv": _format_csv, "json": _format_json}
        pieces = formatter[args.format](run)
    _emit(pieces, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _format_report(report: analysis.ClassificationReport, near_list: list[int] | None,
                   small_primes: list[int] | None, remaining: tuple[int, ...]) -> str:
    from .analysis import classification_matrix, percent

    matrix = classification_matrix(report)
    lines = [
        f"sequence {report.spec.label()}, classified n <= {report.n_limit}",
        f"excluded primes: {', '.join(map(str, report.excluded_primes))}",
        f"A) matches n=a(n):    {report.detected}",
        f"B) matches n=a(n+1):  {report.near_matches}",
        f"C) total primes:      {report.total_eligible_primes}",
        f"success rate (A/C):   {percent(report.success_rate)}",
        f"false negatives:      {report.false_negatives}",
        f"total nonprimes:      {report.total_nonprimes}",
        f"false negative rate:  {percent(report.false_negative_rate)}",
        f"missed primes ({len(report.missed_primes)}): "
        + (", ".join(map(str, report.missed_primes)) if report.missed_primes else "none"),
        "classification matrix (columns prime, nonprime):",
        f"  detect:        {percent(matrix[0][0]):>8}  {percent(matrix[0][1]):>8}",
        f"  don't detect:  {percent(matrix[1][0]):>8}  {percent(matrix[1][1]):>8}",
    ]
    if near_list is not None:
        lines.append(
            f"near-match primes ({len(near_list)}): "
            + (", ".join(map(str, near_list)) if near_list else "none")
        )
    if small_primes is not None:
        lines.append(
            f"false negatives not divisible by {{{', '.join(map(str, small_primes))}}}: "
            f"{len(remaining)} (removed {report.false_negatives - len(remaining)})"
        )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
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
    run = generate(spec)
    report = analysis.classify(run, args.terms)
    if args.format == "json":
        _emit([analysis.report_to_json(report)], args.out)
        return EXIT_OK

    near_list = None
    if args.near_matches:
        near_list = [n for n in report.missed_primes if run.a[n] == n]
    remaining = () if small is None else analysis.filter_false_negatives(report, small)
    _emit([_format_report(report, near_list, small, remaining)], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _format_sweep(sweep: analysis.SweepReport) -> str:
    from .analysis import percent

    lines = [
        f"sweep over p = {', '.join(map(str, sweep.p_list))} at N = {sweep.n_limit}",
        f"{'p':>6}  {'detected':>8}  {'near':>5}  {'total':>6}  {'success':>8}  "
        f"{'false_neg':>9}  {'fn_rate':>8}  {'missed':>6}",
    ]
    for p, r in zip(sweep.p_list, sweep.reports):
        lines.append(
            f"{p:>6}  {r.detected:>8}  {r.near_matches:>5}  {r.total_eligible_primes:>6}  "
            f"{percent(r.success_rate):>8}  {r.false_negatives:>9}  "
            f"{percent(r.false_negative_rate):>8}  {len(r.missed_primes):>6}"
        )
    union = ", ".join(map(str, sweep.union_missed)) if sweep.union_missed else "none"
    lines.append(f"primes missed by every sequence: {union}")
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    from . import analysis, store

    p_list = _parse_p_list(args.p_list)
    sweep = analysis.sweep(p_list, args.terms, jobs=args.jobs, cache_dir=_cache_dir(args))
    _emit([_format_sweep(sweep)], args.out)
    if args.export_dir:
        from pathlib import Path

        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "table2.csv").write_text(store.export_table2(sweep), encoding="utf-8")
        (out / "table3.csv").write_text(store.export_table3(sweep), encoding="utf-8")
        (out / "figure2.csv").write_text(store.export_figure2(sweep), encoding="utf-8")
        print(f"wrote table2.csv, table3.csv, figure2.csv to {out}", file=sys.stderr)
    return EXIT_OK


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


def _cmd_conjecture(args) -> int:
    from . import analysis

    if args.terms < 1:
        raise ValueError(f"--terms must be >= 1, got {args.terms}")
    if args.id == "5.1" and args.p_list is not None:
        raise ValueError("--p-list does not apply to --id 5.1, "
                         "which checks the shifted sequence")
    p_list = None if args.p_list is None else _parse_p_list(args.p_list)
    results = analysis.run_conjecture(args.id, args.terms, p_list)
    text = "".join(map(_format_conjecture, results))
    if args.id == "5.1":
        total = results[0].primes_checked
        text = (f"{total - len(results[0].counterexamples)}/{total} odd primes detected "
                f"as fixed points of the shifted sequence\n") + text
    _emit([text], args.out)
    return EXIT_OK if all(r.holds for r in results) else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# oeis-check


_BFILE_NAME = re.compile(r"b(\d{6})\.txt")
_OEIS_ID = re.compile(r"A\d{6}")


def _cmd_oeis_check(args) -> int:
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
    _emit([f"{spec.label()} [{args.field}] vs {sequence_id} shift {args.shift}: {verdict}\n"],
          args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# export


def _cmd_export(args) -> int:
    from . import analysis, store

    p_list = _parse_p_list(args.p_list)
    cache_dir = _cache_dir(args)
    if cache_dir is None:
        raise ValueError(f"export needs --cache or ${CACHE_ENV_VAR}")
    sweep = analysis.sweep(p_list, args.terms, jobs=args.jobs, cache_dir=cache_dir)
    exporter = {
        "table2": store.export_table2,
        "table3": store.export_table3,
        "figure2": store.export_figure2,
    }[args.what]
    _emit([exporter(sweep)], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trifix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_spec_flags(p):
        p.add_argument("--p", type=int, default=None, help="multiplier for the standard variant")
        p.add_argument(
            "--variant",
            choices=(STANDARD, NO_ZERO, SHIFTED),
            default=None,
            help="sequence variant (default standard, which requires --p)",
        )
        p.add_argument("--terms", type=int, default=10_000, metavar="N",
                       help="number of term indices (default %(default)s)")

    g = sub.add_parser("generate", help="generate a sequence and print its terms")
    add_spec_flags(g)
    g.add_argument("--format", choices=("table", "csv", "json", "bfile"), default="table")
    g.add_argument("--out", default=None, help="write to file instead of stdout")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="classification report for one sequence")
    add_spec_flags(a)
    a.add_argument("--near-matches", action="store_true",
                   help="also list primes appearing one position late")
    a.add_argument("--filter-small-primes", metavar="LIST", default=None,
                   help="comma-separated primes; report false negatives not divisible by any")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.add_argument("--out", default=None)
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="classify a family of standard sequences")
    s.add_argument("--p-list", required=True, metavar="LIST", help="comma-separated p values")
    s.add_argument("--terms", type=int, default=10_000, metavar="N")
    s.add_argument("--jobs", type=int, default=1, help="parallel workers across p values")
    s.add_argument("--cache", default=None, help=f"run cache directory (default ${CACHE_ENV_VAR})")
    s.add_argument("--export-dir", default=None,
                   help="also write table2/table3/figure2 CSV files here")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_sweep)

    c = sub.add_parser("conjecture", help="check a stated conjecture; exit 2 if falsified")
    c.add_argument("--id", choices=CONJECTURE_IDS, required=True)
    c.add_argument("--terms", type=int, default=10_000, metavar="N")
    c.add_argument("--p-list", metavar="LIST", default=None,
                   help="p values for 3.1/3.2/6.1 (defaults: family / 541)")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_conjecture)

    o = sub.add_parser("oeis-check", help="compare a generated sequence against a local b-file")
    o.add_argument("--bfile", required=True, help="path to a b-file (bNNNNNN.txt)")
    add_spec_flags(o)
    o.add_argument("--shift", type=int, default=0,
                   help="compare run index n against b-file index n-shift")
    o.add_argument("--field", choices=("a", "q", "fixed-points"), default="a")
    o.add_argument("--sequence-id", default=None, help="override the id derived from the filename")
    o.add_argument("--out", default=None)
    o.set_defaults(func=_cmd_oeis_check)

    e = sub.add_parser("export", help="rebuild a table/figure CSV from cached runs")
    e.add_argument("--cache", default=None, help=f"run cache directory (default ${CACHE_ENV_VAR})")
    e.add_argument("--what", choices=("table2", "table3", "figure2"), required=True)
    e.add_argument("--p-list", required=True, metavar="LIST")
    e.add_argument("--terms", type=int, default=10_000, metavar="N")
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/flag errors
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
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
