"""Classification statistics, conjecture checks, and multi-p sweeps.

Terminology warning: this package follows the hypothesis-testing convention
of its subject matter, with "the number n is prime" as the null hypothesis.
A FALSE NEGATIVE is a nonprime detected as a fixed point (Type II error); a
FALSE POSITIVE is a prime that is not detected (Type I error).  This is the
opposite of common machine-learning usage.
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .engine import FrozenValue, SequenceRun, SequenceSpec, fixed_points, generate_runs
from .numtheory import prime_flags


def percent(rate: Fraction) -> str:
    """Format a rate in [0,1] as a percentage string with two decimals,
    round-half-up, e.g. Fraction(1160, 1227) -> '94.54%'."""
    d = Decimal(rate.numerator) / Decimal(rate.denominator)
    return f"{(d * 100).quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}%"


class ClassificationReport(FrozenValue):
    """Prime-detection statistics for one run over indices 1..n_limit.

    Rates are exact Fractions; use :func:`percent` for two-decimal display.
    ``false_negatives`` counts nonprime n > 1 with a(n) = n (n = 1 is a
    fixed point by definition and never counted).
    """

    __slots__ = ("spec", "n_limit", "excluded_primes", "detected", "near_matches",
                 "total_eligible_primes", "success_rate", "false_negatives",
                 "total_nonprimes", "false_negative_rate", "missed_primes",
                 "false_negative_values")
    spec: SequenceSpec
    n_limit: int
    excluded_primes: tuple[int, ...]
    detected: int
    near_matches: int
    total_eligible_primes: int
    success_rate: Fraction
    false_negatives: int
    total_nonprimes: int
    false_negative_rate: Fraction
    missed_primes: tuple[int, ...]
    false_negative_values: tuple[int, ...]


def report_to_json(report: ClassificationReport) -> str:
    """JSON mirror of ClassificationReport, field for field in field order,
    with the spec as a nested object of its own fields.  Rates are emitted
    as floats; the integer counts alongside stay exact."""
    import json  # here, so the text report and the conjecture checks never load it

    fields = {name: getattr(report, name) for name in report.__slots__}
    fields["spec"] = {name: getattr(report.spec, name) for name in report.spec.__slots__}
    doc = {
        name: float(value) if isinstance(value, Fraction) else value
        for name, value in fields.items()
    }
    return json.dumps(doc, indent=2) + "\n"


def classify(run: SequenceRun, n_limit: int | None = None) -> ClassificationReport:
    """Classify indices 1..n_limit of a run.

    The run must hold at least n_limit + 1 terms: deciding whether prime n
    is a near match (a(n+1) = n) needs term n + 1.
    """
    if n_limit is None:
        n_limit = len(run.a) - 1
    if n_limit < 1:
        raise ValueError(f"n_limit must be >= 1, got {n_limit}")
    if len(run.a) < n_limit + 1:
        raise ValueError(
            f"run holds {len(run.a)} terms; classifying up to n={n_limit} "
            f"needs {n_limit + 1} (near matches at n={n_limit} are undecidable)"
        )

    prime = prime_flags(n_limit)

    p = run.spec.multiplier  # 1 outside the standard variant: never prime
    excluded = [2]
    if p != 2 and p <= n_limit and prime[p]:
        excluded.append(p)
    excluded_set = set(excluded)

    a = run.a
    detected = 0
    near = 0
    missed = []
    fn_values = []
    prime_count = 0
    # a memoryview's iterator, not a[n - 1]: indexing the array is ~25% slower
    for n, a_n in enumerate(memoryview(a)[1:n_limit], 2):
        if prime[n]:
            prime_count += 1
            if n in excluded_set:
                continue
            if a_n == n:
                detected += 1
            else:
                missed.append(n)
                if a[n] == n:  # a[n] is a(n+1)
                    near += 1
        elif a_n == n:
            fn_values.append(n)

    total_eligible = prime_count - sum(1 for e in excluded if e <= n_limit)
    total_nonprimes = n_limit - prime_count  # 1 counts as a nonprime
    return ClassificationReport(
        spec=run.spec,
        n_limit=n_limit,
        excluded_primes=tuple(excluded),
        detected=detected,
        near_matches=near,
        total_eligible_primes=total_eligible,
        success_rate=Fraction(detected, total_eligible) if total_eligible else Fraction(0),
        false_negatives=len(fn_values),
        total_nonprimes=total_nonprimes,
        false_negative_rate=Fraction(len(fn_values), total_nonprimes),
        missed_primes=tuple(missed),
        false_negative_values=tuple(fn_values),
    )


def classification_matrix(report: ClassificationReport) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """2x2 matrix of exact rates, columns (prime, nonprime) each summing to 1:

        [[detected | prime,  false negative | nonprime],
         [missed   | prime,  correct        | nonprime]]
    """
    det = report.success_rate
    fn = report.false_negative_rate
    return ((det, fn), (1 - det, 1 - fn))


class Counterexample(FrozenValue):
    __slots__ = ("sequence", "n", "detail")
    sequence: str
    n: int
    detail: str


class ConjectureResult(FrozenValue):
    """Outcome of one conjecture check; holds iff no counterexamples.
    ``primes_checked`` counts the eligible primes tested over all sequences
    (3.2, 5.1 and 6.1)."""

    __slots__ = ("conjecture_id", "sequences", "n_limit", "counterexamples", "primes_checked")
    conjecture_id: str
    sequences: tuple[str, ...]
    n_limit: int
    counterexamples: tuple[Counterexample, ...]
    primes_checked: int

    @property
    def holds(self) -> bool:
        return not self.counterexamples


# Each conjecture's default p list: the paper's family for 3.1/3.2 and
# p = 541 for 6.1; 5.1 is stated for the shifted sequence alone.
_PAPER_FAMILY = (3, 5, 7, 11, 41, 97, 199)
_DEFAULT_P_LISTS = {"3.1": _PAPER_FAMILY, "3.2": _PAPER_FAMILY, "5.1": None, "6.1": (541,)}


def _check_conjecture_id(conjecture_id: str) -> None:
    if conjecture_id not in _DEFAULT_P_LISTS:
        raise ValueError(f"unknown conjecture {conjecture_id!r}")


def check_conjecture(conjecture_id: str, run: SequenceRun,
                     n_limit: int | None = None) -> ConjectureResult:
    """Check one run at indices 1..n_limit for conjecture 3.1 (every fixed
    point is odd; n_limit defaults to every term), 3.2 (every eligible
    prime n is a(n) or a(n+1)), or 5.1 and 6.1 (every eligible prime is a
    fixed point, for the shifted sequence and for a large p).  3.2, 5.1 and
    6.1 need term n_limit + 1.  Reports raw facts: a run outside a
    conjecture's scope (e.g. A(2) for 3.1) simply fails."""
    _check_conjecture_id(conjecture_id)
    a = run.a
    if conjecture_id == "3.1":
        n_limit = len(a) if n_limit is None else n_limit
        if len(a) < n_limit:
            raise ValueError(f"checking up to n={n_limit} needs {n_limit} terms")
        bad = {n: f"even fixed point a({n}) = {n}"
               for n in fixed_points(run) if n % 2 == 0 and n <= n_limit}
        checked = 0
    else:
        report = classify(run, n_limit)
        n_limit, checked, missed = report.n_limit, report.total_eligible_primes, report.missed_primes
        if conjecture_id == "3.2":
            bad = {n: f"a({n}) = {a[n - 1]}, a({n + 1}) = {a[n]}" for n in missed if a[n] != n}
        elif conjecture_id == "5.1":
            bad = {n: f"odd prime not a fixed point; a({n}) = {a[n - 1]}" for n in missed}
        else:
            bad = dict.fromkeys(missed, "eligible prime not a fixed point")
    label = run.spec.label()
    return ConjectureResult(conjecture_id, (label,), n_limit,
                            tuple(Counterexample(label, n, d) for n, d in bad.items()), checked)


def run_conjecture(conjecture_id: str, n_limit: int,
                   p_list: list[int] | tuple[int, ...] | None = None) -> tuple[ConjectureResult, ...]:
    """Check a conjecture at indices 1..n_limit on A(p) for each p in p_list
    (default: the conjecture's own list), or on the shifted sequence for
    5.1, which takes no p list.  3.1 and 3.2 give one result per listed p;
    5.1 and 6.1 give one result over every listed sequence."""
    from functools import partial

    _check_conjecture_id(conjecture_id)
    if conjecture_id == "5.1":
        if p_list is not None:
            raise ValueError("conjecture 5.1 checks the shifted sequence and takes no p list")
        specs = [SequenceSpec.shifted(n_limit + 1)]
    else:
        p_list = _DEFAULT_P_LISTS[conjecture_id] if p_list is None else p_list
        specs = [SequenceSpec.standard(p, n_limit + 1) for p in p_list]
    results = _each_run(specs, partial(check_conjecture, conjecture_id, n_limit=n_limit))
    if conjecture_id in ("3.1", "3.2"):
        return tuple(results)
    return (ConjectureResult(conjecture_id, tuple(spec.label() for spec in specs), n_limit,
                             tuple(c for r in results for c in r.counterexamples),
                             sum(r.primes_checked for r in results)),)


def check_small_primes(small_primes: list[int]) -> None:
    """Raise ValueError unless every small prime to filter by is >= 2."""
    for s in small_primes:
        if s < 2:
            raise ValueError(f"small primes must be >= 2, got {s}")


def filter_false_negatives(report: ClassificationReport, small_primes: list[int]) -> tuple[int, ...]:
    """The false negatives not divisible by any of ``small_primes``; the
    others are cheap to re-test externally.  Each must be >= 2."""
    check_small_primes(small_primes)
    return tuple(
        v for v in report.false_negative_values
        if not any(v % s == 0 for s in small_primes)
    )


class SweepReport(FrozenValue):
    """Per-p classification over a family of standard sequences.

    ``union_missed`` lists the primes missed by every tested sequence;
    ``figure2_series`` pairs each p with its exact success rate.
    """

    __slots__ = ("p_list", "n_limit", "reports", "union_missed", "figure2_series")
    p_list: tuple[int, ...]
    n_limit: int
    reports: tuple[ClassificationReport, ...]
    union_missed: tuple[int, ...]
    figure2_series: tuple[tuple[int, Fraction], ...]

    def report_for(self, p: int) -> ClassificationReport:
        return self.reports[self.p_list.index(p)]


def _checked_runs(specs: list[SequenceSpec], check: Callable[[SequenceRun], object],
                  cache_dir: str | None) -> dict:
    """check(run) on the run of each spec, by spec.  Cached runs are loaded
    and checked one at a time; the rest are generated together
    (generate_runs), and each is saved and checked as it comes out."""
    done = {}
    if cache_dir is not None:
        from . import store

        for spec in specs:
            run = store.load_run(spec, cache_dir)
            if run is not None:
                done[spec] = check(run)
            del run  # not held through the next load
    for run in generate_runs([spec for spec in specs if spec not in done]):
        if cache_dir is not None:
            store.save_run(run, cache_dir)
        done[run.spec] = check(run)
        del run  # nor through the next run
    return done


def _each_run(specs: list[SequenceSpec], check: Callable[[SequenceRun], object], *,
              jobs: int = 1, cache_dir: str | None = None) -> list:
    """check(run) on the run of each spec, in spec order, after checking
    every q(N) against the 63-bit ceiling.  A repeated spec is run once, and
    no run is kept once checked.  jobs > 1 splits the distinct specs into at
    most jobs contiguous chunks, each checked in a process of its own."""
    for spec in specs:
        spec.q(spec.term_count)
    distinct = list(dict.fromkeys(specs))
    k = min(jobs, len(distinct))
    if k > 1:
        import concurrent.futures  # only here: a one-job loop never pays for it
        from functools import partial

        chunks = [distinct[i * len(distinct) // k:(i + 1) * len(distinct) // k]
                  for i in range(k)]
        done = {}
        with concurrent.futures.ProcessPoolExecutor(max_workers=k) as pool:
            for results in pool.map(partial(_checked_runs, check=check, cache_dir=cache_dir),
                                    chunks):
                done.update(results)
    else:
        done = _checked_runs(distinct, check, cache_dir)
    return [done[spec] for spec in specs]


def sweep(
    p_list: list[int] | tuple[int, ...],
    n_limit: int,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> SweepReport:
    """Classify A(p) for each p in p_list at the same n_limit.

    Workers may run concurrently (``jobs`` > 1) but the report is assembled
    in p_list order, so output is independent of scheduling.
    """
    if n_limit < 2:
        raise ValueError(f"n_limit must be >= 2, got {n_limit}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    from functools import partial

    specs = [SequenceSpec.standard(p, n_limit + 1) for p in p_list]
    reports = tuple(_each_run(specs, partial(classify, n_limit=n_limit),
                              jobs=jobs, cache_dir=cache_dir))

    missed = [set(r.missed_primes) for r in reports]
    union = set.intersection(*missed) if missed else set()
    return SweepReport(
        p_list=tuple(p_list),
        n_limit=n_limit,
        reports=reports,
        union_missed=tuple(sorted(union)),
        figure2_series=tuple((p, r.success_rate) for p, r in zip(p_list, reports)),
    )
