"""Classification statistics, conjecture checks, and multi-p sweeps.

Terminology warning: this package follows the hypothesis-testing convention
of its subject matter, with "the number n is prime" as the null hypothesis.
A FALSE NEGATIVE is a nonprime detected as a fixed point (Type II error); a
FALSE POSITIVE is a prime that is not detected (Type I error).  This is the
opposite of common machine-learning usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .engine import SequenceRun, SequenceSpec, fixed_points, generate
from .numtheory import prime_flags


def percent(rate: Fraction) -> str:
    """Format a rate in [0,1] as a percentage string with two decimals,
    round-half-up, e.g. Fraction(1160, 1227) -> '94.54%'."""
    d = Decimal(rate.numerator) / Decimal(rate.denominator)
    return f"{(d * 100).quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}%"


@dataclass(frozen=True, slots=True)
class ClassificationReport:
    """Prime-detection statistics for one run over indices 1..n_limit.

    Rates are exact Fractions; use :func:`percent` for two-decimal display.
    ``false_negatives`` counts nonprime n > 1 with a(n) = n (n = 1 is a
    fixed point by definition and never counted).
    """

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
    for n in range(2, n_limit + 1):
        a_n = a[n - 1]
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


@dataclass(frozen=True, slots=True)
class Counterexample:
    sequence: str
    n: int
    detail: str


@dataclass(frozen=True, slots=True)
class ConjectureResult:
    """Outcome of one conjecture check; holds iff no counterexamples."""

    conjecture_id: str
    sequences: tuple[str, ...]
    n_limit: int
    counterexamples: tuple[Counterexample, ...]
    primes_checked: int = 0  # eligible primes tested over all sequences (5.1, 6.1)

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def check_conjecture_3_1(run: SequenceRun, n_limit: int | None = None) -> ConjectureResult:
    """All fixed points n <= n_limit (default: every term) are odd.  Reports
    raw facts: sequences outside the conjecture's odd-p scope (e.g. p = 2)
    simply fail."""
    if n_limit is None:
        n_limit = len(run.a)
    if len(run.a) < n_limit:
        raise ValueError(f"checking up to n={n_limit} needs {n_limit} terms")
    label = run.spec.label()
    bad = tuple(
        Counterexample(label, n, f"even fixed point a({n}) = {n}")
        for n in fixed_points(run)
        if n % 2 == 0 and n <= n_limit
    )
    return ConjectureResult("3.1", (label,), n_limit, bad)


def check_conjecture_3_2(run: SequenceRun, n_limit: int | None = None) -> ConjectureResult:
    """Every eligible prime n appears as a(n) or as a(n+1)."""
    report = classify(run, n_limit)
    label = run.spec.label()
    a = run.a
    bad = tuple(
        Counterexample(label, n, f"a({n}) = {a[n - 1]}, a({n + 1}) = {a[n]}")
        for n in report.missed_primes
        if a[n] != n
    )
    return ConjectureResult("3.2", (label,), report.n_limit, bad)


def _check_primes_fixed(conjecture_id: str, specs: list[SequenceSpec], n_limit: int,
                        detail: str) -> ConjectureResult:
    """Every eligible prime n <= n_limit is a fixed point of each spec's run;
    a prime that is not is described by ``detail`` formatted with n and
    a(n).  A repeated spec is generated and checked once, and one run is in
    memory at a time."""
    checked, bad = {}, {}
    for spec in dict.fromkeys(specs):
        run = generate(spec)
        report = classify(run, n_limit)
        checked[spec] = report.total_eligible_primes
        bad[spec] = [Counterexample(spec.label(), n, detail.format(n=n, a=run.a[n - 1]))
                     for n in report.missed_primes]
        del run  # one run in memory at a time
    return ConjectureResult(conjecture_id, tuple(spec.label() for spec in specs), n_limit,
                            tuple(c for spec in specs for c in bad[spec]),
                            sum(checked[spec] for spec in specs))


def check_conjecture_5_1(n_limit: int) -> ConjectureResult:
    """The shifted sequence detects every odd prime <= n_limit as a fixed
    point (generates n_limit + 1 terms itself)."""
    return _check_primes_fixed("5.1", [SequenceSpec.shifted(n_limit + 1)], n_limit,
                               "odd prime not a fixed point; a({n}) = {a}")


def check_conjecture_6_1(p_list: tuple[int, ...] = (541,), n_limit: int = 10_000) -> ConjectureResult:
    """For each listed p, every eligible prime <= n_limit is a fixed point
    of A(p) (the large-p perfect-detection claim; default p = 541)."""
    specs = [SequenceSpec.standard(p, n_limit + 1) for p in p_list]
    return _check_primes_fixed("6.1", specs, n_limit, "eligible prime not a fixed point")


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


@dataclass(frozen=True, slots=True)
class SweepReport:
    """Per-p classification over a family of standard sequences.

    ``union_missed`` lists the primes missed by every tested sequence;
    ``figure2_series`` pairs each p with its exact success rate.
    """

    p_list: tuple[int, ...]
    n_limit: int
    reports: tuple[ClassificationReport, ...]
    union_missed: tuple[int, ...]
    figure2_series: tuple[tuple[int, Fraction], ...]

    def report_for(self, p: int) -> ClassificationReport:
        return self.reports[self.p_list.index(p)]


def _sweep_one(args: tuple[int, int, str | None]) -> ClassificationReport:
    from . import store

    p, n_limit, cache_dir = args
    spec = SequenceSpec.standard(p, n_limit + 1)
    run = None if cache_dir is None else store.load_run(spec, cache_dir)
    if run is None:
        run = generate(spec)
        if cache_dir is not None:
            store.save_run(run, cache_dir)
    return classify(run, n_limit)


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
    for p in p_list:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")

    distinct = list(dict.fromkeys(p_list))  # a repeated p is classified once
    work = [(p, n_limit, cache_dir) for p in distinct]
    if jobs > 1 and len(work) > 1:
        import concurrent.futures  # only here: a one-job sweep never pays for it

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_sweep_one, work))
    else:
        done = [_sweep_one(w) for w in work]
    report_of = dict(zip(distinct, done))
    reports = tuple(report_of[p] for p in p_list)

    union: set[int] | None = None
    for r in reports:
        missed = set(r.missed_primes)
        union = missed if union is None else union & missed
    return SweepReport(
        p_list=tuple(p_list),
        n_limit=n_limit,
        reports=reports,
        union_missed=tuple(sorted(union or ())),
        figure2_series=tuple((p, r.success_rate) for p, r in zip(p_list, reports)),
    )
