import concurrent.futures
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from oracle import naive_divisors, naive_is_prime, oracle_terms
from trifix import analysis, numtheory
from trifix.analysis import (
    check_conjecture,
    classify,
    filter_false_negatives,
    percent,
    sweep,
)
from trifix.cli import _format_report, _format_sweep
from trifix.engine import SequenceRun, SequenceSpec, generate, generate_runs


@pytest.fixture(scope="module")
def a3_run():
    return generate(SequenceSpec.standard(3, 201))


@pytest.fixture(scope="module")
def a3_report(a3_run):
    return classify(a3_run)


class TestPercent:
    def test_table_value(self):
        assert percent(1160, 1227) == "94.54%"

    def test_round_half_up(self):
        assert percent(1, 800) == "0.13%"  # 0.125% rounds up, not to even
        assert percent(1, 1) == "100.00%"
        assert percent(0, 0) == "0.00%"

    def test_equals_the_decimal_formula(self):
        """For every 0 <= k <= d <= 400, percent(k, d) is the Decimal
        round-half-up formula rates were once shown by, and k / d (the JSON
        report's rate) is float(Fraction(k, d))."""
        cent, hundredth = Decimal(100), Decimal("0.01")
        for d in range(1, 401):
            whole, parts = Decimal(d), range(d + 1)
            assert [percent(k, d) for k in parts] == [
                f"{(Decimal(k) / whole * cent).quantize(hundredth, rounding=ROUND_HALF_UP)}%"
                for k in parts], d
            assert [k / d for k in parts] == [float(Fraction(k, d)) for k in parts], d


class TestClassify:
    def test_a3_counts(self, a3_report):
        r = a3_report
        assert r.excluded_primes == (2, 3)
        assert r.detected == 42
        assert r.near_matches == 2
        assert r.total_eligible_primes == 44
        assert r.missed_primes == (17, 193)
        assert r.false_negatives == 10
        assert r.total_nonprimes == 154
        assert r.false_negative_values == (55, 77, 95, 99, 115, 119, 121, 125, 143, 155)

    def test_matches_oracle_pipeline(self):
        # classification recomputed from scratch: oracle terms + naive primality
        n_limit = 150
        a = oracle_terms("standard", 3, n_limit + 1)
        primes = [n for n in range(2, n_limit + 1) if naive_is_prime(n)]
        eligible = [n for n in primes if n not in (2, 3)]
        expected_detected = sum(1 for n in eligible if a[n - 1] == n)
        expected_near = sum(1 for n in eligible if a[n - 1] != n and a[n] == n)
        expected_fn = [n for n in range(2, n_limit + 1)
                       if not naive_is_prime(n) and a[n - 1] == n]

        report = classify(generate(SequenceSpec.standard(3, n_limit + 1)))
        assert report.detected == expected_detected
        assert report.near_matches == expected_near
        assert report.false_negative_values == tuple(expected_fn)
        assert report.total_eligible_primes == len(eligible)
        assert report.total_nonprimes == n_limit - len(primes)

    def test_counts_are_consistent(self, a3_report):
        r = a3_report
        assert r.detected + len(r.missed_primes) == r.total_eligible_primes
        assert r.false_negatives == len(r.false_negative_values) <= r.total_nonprimes
        assert r.total_eligible_primes + len(r.excluded_primes) + r.total_nonprimes == r.n_limit

    def test_near_match_example(self, a3_run):
        # the earliest miss for p=3: prime 17 appears at a(18)
        assert a3_run.term(17).a != 17
        assert a3_run.term(18).a == 17

    def test_one_is_never_a_false_negative(self, a3_report):
        assert 1 not in a3_report.false_negative_values

    def test_bootstrap_duplicate_not_a_false_negative(self):
        report = classify(generate(SequenceSpec.shifted(101)))
        assert 2 not in report.false_negative_values
        assert report.excluded_primes == (2,)

    def test_requires_one_extra_term(self):
        """The last term only decides near matches: a run of 100 terms
        classifies n <= 99, and a run of one term classifies nothing."""
        assert classify(generate(SequenceSpec.standard(3, 100))).n_limit == 99
        with pytest.raises(ValueError, match=r"^run holds 1 term\(s\); a check needs at least 2$"):
            classify(generate(SequenceSpec.standard(3, 1)))

    def test_n_limit_is_the_term_count_less_one(self, a3_report):
        """A prefix is classified from a run of its own N + 1 terms."""
        assert a3_report.n_limit == 200
        assert classify(generate(SequenceSpec.standard(3, 101))).missed_primes == (17,)

    def test_excluded_primes_variants(self):
        assert classify(generate(SequenceSpec.standard(2, 51))).excluded_primes == (2,)
        assert classify(generate(SequenceSpec.standard(9, 51))).excluded_primes == (2,)
        assert classify(generate(SequenceSpec.no_zero(51))).excluded_primes == (2,)
        # p beyond the classified range is not excluded
        assert classify(generate(SequenceSpec.standard(199, 51))).excluded_primes == (2,)

    def test_determinism(self, a3_run):
        assert classify(a3_run) == classify(a3_run)


def matrix_cells(report):
    """The text report's classification matrix: rows detect and don't
    detect, columns prime and nonprime."""
    lines = _format_report(report, None, None, ()).splitlines()
    top = lines.index("classification matrix (columns prime, nonprime):")
    return [line.split()[-2:] for line in lines[top + 1:top + 3]]


class TestClassificationMatrix:
    """Each cell of the text report's matrix is a count over its column's
    whole: eligible primes, or nonprimes."""

    def test_columns_sum_to_one(self, a3_report):
        r = a3_report
        assert matrix_cells(r) == [
            [percent(r.detected, r.total_eligible_primes),
             percent(r.false_negatives, r.total_nonprimes)],
            [percent(len(r.missed_primes), r.total_eligible_primes),
             percent(r.total_nonprimes - r.false_negatives, r.total_nonprimes)],
        ] == [["95.45%", "6.49%"], ["4.55%", "93.51%"]]

    def test_zero_miss_structure(self):
        report = classify(generate(SequenceSpec.standard(2, 101)))
        assert [row[0] for row in matrix_cells(report)] == ["100.00%", "0.00%"]


def shifted_run(n_limit):
    return generate(SequenceSpec.shifted(n_limit + 1))


def standard_run(p, n_limit):
    return generate(SequenceSpec.standard(p, n_limit + 1))


class TestConjecture31:
    def test_holds_for_a7(self):
        result = check_conjecture("3.1", generate(SequenceSpec.standard(7, 25)))
        assert result.holds and result.counterexamples == ()

    def test_identity_sequence_fails(self):
        result = check_conjecture("3.1", generate(SequenceSpec.standard(2, 100)))
        assert not result.holds
        assert [c.n for c in result.counterexamples[:3]] == [2, 4, 6]

    def test_n_limit_bounds_the_check(self):
        """The library and run_conjecture check the same indices: n <= N
        of a run of N + 1 terms, so A(2)'s a(8) = 8 is not checked at N = 7."""
        run = generate(SequenceSpec.standard(2, 8))  # a(n) = n for every n
        result = check_conjecture("3.1", run)
        assert result.n_limit == 7
        assert [c.n for c in result.counterexamples] == [2, 4, 6]
        assert analysis.run_conjecture("3.1", 7, [2]) == (result,)
        with pytest.raises(ValueError, match="run holds 1 term"):
            check_conjecture("3.1", generate(SequenceSpec.standard(2, 1)))

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_family_at_moderate_depth(self, p):
        assert check_conjecture("3.1", generate(SequenceSpec.standard(p, 500))).holds


class TestConjecture32:
    def test_a3_holds(self, a3_run, a3_report):
        result = check_conjecture("3.2", a3_run)
        assert result.holds
        assert a3_report.detected + a3_report.near_matches == a3_report.total_eligible_primes

    def test_a7_prefix_has_no_near_matches(self):
        run = generate(SequenceSpec.standard(7, 26))
        report = classify(generate(SequenceSpec.standard(7, 25)))
        assert report.near_matches == 0
        assert report.detected == report.total_eligible_primes == 7
        assert check_conjecture("3.2", run).holds

    def test_requires_one_extra_term(self):
        assert check_conjecture("3.2", generate(SequenceSpec.standard(3, 100))).n_limit == 99
        with pytest.raises(ValueError, match="run holds 1 term"):
            check_conjecture("3.2", generate(SequenceSpec.standard(3, 1)))


class TestConjecture51:
    def test_small(self):
        assert check_conjecture("5.1", shifted_run(7)).holds

    def test_vacuous(self):
        assert check_conjecture("5.1", shifted_run(1)).holds

    def test_moderate(self):
        result = check_conjecture("5.1", shifted_run(500))
        assert result.holds and result.n_limit == 500

    @pytest.mark.parametrize("n_limit, odd_primes", [(1, 0), (2, 0), (3, 1), (100, 24), (500, 94)])
    def test_counts_the_odd_primes_checked(self, n_limit, odd_primes):
        assert check_conjecture("5.1", shifted_run(n_limit)).primes_checked == odd_primes

    def test_counterexample_detail(self):
        good = shifted_run(100)
        broken = SequenceRun(good.spec, (*good.a[:16], 999, *good.a[17:]))  # a(17) = 999
        result = check_conjecture("5.1", broken)
        assert not result.holds and result.sequences == ("shifted",)
        assert [(c.sequence, c.n, c.detail) for c in result.counterexamples] == [
            ("shifted", 17, "odd prime not a fixed point; a(17) = 999")
        ]


class TestConjecture61:
    def test_large_p_small_range_holds(self):
        assert check_conjecture("6.1", standard_run(541, 100)).holds

    def test_small_p_fails_at_17(self):
        result = check_conjecture("6.1", standard_run(3, 100))
        assert not result.holds
        assert result.counterexamples[0].n == 17

    def test_counts_the_eligible_primes_of_each_sequence(self):
        # 25 primes <= 100: A(3) excludes 2 and 3, A(541) only 2
        (result,) = analysis.run_conjecture("6.1", 100, [3, 541])
        assert result.sequences == ("A(3)", "A(541)")
        assert result.primes_checked == 23 + 24
        assert [(c.sequence, c.n, c.detail) for c in result.counterexamples] == [
            ("A(3)", 17, "eligible prime not a fixed point")
        ]


class TestCheckConjecture:
    @pytest.mark.parametrize("cid", ["3.1", "3.2", "5.1", "6.1"])
    def test_checks_the_given_run_without_generating(self, monkeypatch, a3_run, cid):
        def no_generate(specs):
            raise AssertionError("check_conjecture must not generate")

        monkeypatch.setattr(analysis, "generate_runs", no_generate)
        result = check_conjecture(cid, a3_run)
        assert (result.conjecture_id, result.sequences, result.n_limit) == (cid, ("A(3)",), 200)

    def test_unknown_id(self, a3_run):
        with pytest.raises(ValueError, match="unknown conjecture '7.1'"):
            check_conjecture("7.1", a3_run)
        with pytest.raises(ValueError, match="unknown conjecture '7.1'"):
            analysis.run_conjecture("7.1", 100, [3])


def generated_specs(monkeypatch):
    """The spec of every run that analysis generates, in order."""
    calls = []

    def counting(specs):
        for run in generate_runs(specs):
            calls.append(run.spec)
            yield run

    monkeypatch.setattr(analysis, "generate_runs", counting)
    return calls


class TestRunConjecture:
    @pytest.mark.parametrize("cid, specs", [
        ("3.1", [SequenceSpec.standard(p, 101) for p in (3, 5, 7, 11, 41, 97, 199)]),
        ("3.2", [SequenceSpec.standard(p, 101) for p in (3, 5, 7, 11, 41, 97, 199)]),
        ("5.1", [SequenceSpec.shifted(101)]),
        ("6.1", [SequenceSpec.standard(541, 101)]),
    ])
    def test_default_runs(self, monkeypatch, cid, specs):
        calls = generated_specs(monkeypatch)
        results = analysis.run_conjecture(cid, 100)
        assert calls == specs
        labels = [(spec.label(),) for spec in specs]
        if cid in ("5.1", "6.1"):  # one result over every sequence
            labels = [sum(labels, ())]
        assert [r.sequences for r in results] == labels

    @pytest.mark.parametrize("cid", ["3.1", "3.2"])
    def test_one_result_per_listed_p(self, monkeypatch, cid):
        calls = generated_specs(monkeypatch)
        results = analysis.run_conjecture(cid, 300, [3, 2, 3, 3])
        assert calls == [SequenceSpec.standard(3, 301), SequenceSpec.standard(2, 301)]
        by_p = {p: check_conjecture(cid, generate(SequenceSpec.standard(p, 301)))
                for p in (2, 3)}
        assert results == tuple(by_p[p] for p in (3, 2, 3, 3))

    def test_6_1_repeats_the_label_and_counterexamples_of_a_repeated_p(self, monkeypatch):
        calls = generated_specs(monkeypatch)
        (result,) = analysis.run_conjecture("6.1", 100, [3, 541, 3])
        assert [spec.p for spec in calls] == [3, 541]
        assert result.sequences == ("A(3)", "A(541)", "A(3)")
        assert [(c.sequence, c.n) for c in result.counterexamples] == [("A(3)", 17), ("A(3)", 17)]
        assert result.primes_checked == 23 + 24 + 23

    def test_5_1_takes_no_p_list(self, monkeypatch):
        calls = generated_specs(monkeypatch)
        with pytest.raises(ValueError, match="takes no p list"):
            analysis.run_conjecture("5.1", 100, [3])
        assert calls == []

    @pytest.mark.parametrize("cid", ["3.1", "6.1"])
    def test_overflow_is_refused_before_the_first_run(self, monkeypatch, cid):
        calls = generated_specs(monkeypatch)
        with pytest.raises(OverflowError, match=r"^q\(3001\) = .* for p=1000000000000000003 "):
            analysis.run_conjecture(cid, 3000, [199, 10**18 + 3])
        assert calls == []


def test_a3_fixes_every_prime_3_mod_4_and_misses_only_1_mod_4():
    # a prime n > 3 is missed only for a free divisor of 3(n-1)/2 strictly
    # between (n-1)/2 and n; the only one is 3(n-1)/4, which needs 4 | n - 1
    run = generate(SequenceSpec.standard(3, 10_000))
    primes = [n for n in range(5, 10_001) if naive_is_prime(n)]
    assert all(run.a[n - 1] == n for n in primes if n % 4 == 3)
    missed = [n for n in primes if run.a[n - 1] != n]
    assert missed[:3] == [17, 193, 257]
    assert all(n % 4 == 1 for n in missed)


PRIMES_TO_10_4 = [n for n in range(3, 10_001) if naive_is_prime(n)]


def first_uses(run):
    """{v: the least n with a(n) = v}."""
    first = {}
    for n, a in enumerate(run.a, start=1):
        first.setdefault(a, n)
    return first


@pytest.mark.parametrize("p", [3, 5, 7, 11, 41, 97, 199])
def test_miss_criterion_gives_a_at_every_prime(p):
    # miss criterion: at a prime n with n ∤ p, a(n) is the least divisor of
    # p(n-1)/2 strictly between (n-1)/2 and n not among a(1..n-1), else n;
    # near-match criterion: when a(n) != n, a(n+1) is the least divisor of
    # p(n+1)/2 strictly between (n-1)/2 and n not among a(1..n), else n
    run = generate(SequenceSpec.standard(p, 10_000))
    first = first_uses(run)
    for n in PRIMES_TO_10_4:
        if p % n == 0:
            continue
        half = (n - 1) // 2
        free = [d for z in naive_divisors(p) for e in naive_divisors(half)
                if half < (d := z * e) < n and first.get(d, n) >= n]
        assert run.a[n - 1] == min(free, default=n), n
        if run.a[n - 1] != n:
            free = [d for z in naive_divisors(p) for e in naive_divisors(half + 1)
                    if half < (d := z * e) < n and first.get(d, n + 1) > n]
            assert run.a[n] == min(free, default=n), n


@pytest.mark.parametrize("p", [3, 199])
def test_composite_fixed_point_criterion(p):
    # an odd n divides q(n) = p(n-1)n/2 and the values up to (n-1)/2 are
    # used before step n, so a(n) = n exactly when n is unused before step
    # n and every divisor of q(n) strictly between (n-1)/2 and n is used
    run = generate(SequenceSpec.standard(p, 10_000))
    first = first_uses(run)
    composites = [n for n in range(9, 10_001, 2) if not naive_is_prime(n)]
    assert len(composites) == 3771
    for n in composites:
        half = (n - 1) // 2
        between = [d for z in naive_divisors(p) for x in naive_divisors(half)
                   for y in naive_divisors(n) if half < (d := z * x * y) < n]
        fixed = first.get(n, n) >= n and all(first.get(d, n) < n for d in between)
        assert (run.a[n - 1] == n) == fixed, n


@pytest.mark.parametrize("p, first_miss", [(127, ()), (131, ()), (9, (3,)), (15, (3,))],
                         ids=["127", "131", "9", "15"])
def test_landscape_at_10_4(p, first_miss):
    # A(127) and A(131) miss no eligible prime up to 10^4; a composite p
    # misses 3, which a(2) = 3, the least divisor of q(2) = p above 1, takes
    report = classify(standard_run(p, 10_000))
    assert report.missed_primes[:1] == first_miss


class TestFilterFalseNegatives:
    def test_a3_filter(self, a3_report):
        remaining = filter_false_negatives(a3_report, [3, 5])
        assert remaining == (77, 119, 121, 143)
        assert a3_report.false_negatives - len(remaining) == 6

    def test_empty_filter_is_identity(self, a3_report):
        assert filter_false_negatives(a3_report, []) == a3_report.false_negative_values

    @pytest.mark.parametrize("bad", [0, 1, -3])
    def test_rejects_values_below_2(self, a3_report, bad):
        with pytest.raises(ValueError, match=f"must be >= 2, got {bad}"):
            filter_false_negatives(a3_report, [3, bad])

    def test_multiples_removed(self):
        report = classify(generate(SequenceSpec.no_zero(101)))
        assert 9 in report.false_negative_values
        remaining = filter_false_negatives(report, [3])
        assert 9 not in remaining
        assert 25 in remaining  # not divisible by 3


class TestSweep:
    def test_small_family(self):
        result = sweep([3, 5], 300)
        assert result == (classify(standard_run(3, 300)), classify(standard_run(5, 300)))

    def test_union_is_subset_of_each(self):
        result = sweep([3, 5, 7], 300)
        line = _format_sweep(result).splitlines()[-1]
        union = {int(n) for n in line.removeprefix("primes missed by every sequence: ").split(", ")}
        assert union
        for r in result:
            assert union <= set(r.missed_primes)

    def test_jobs_do_not_change_results(self):
        assert sweep([3, 5, 7], 200, jobs=3) == sweep([3, 5, 7], 200)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_jobs_split_repeated_p_without_changing_results(self, jobs):
        p_list = [7, 3, 199, 3, 5, 7, 11, 7]
        alone = {p: classify(generate(SequenceSpec.standard(p, 301)))
                 for p in set(p_list)}
        result = sweep(p_list, 300, jobs=jobs)
        assert result == tuple(alone[p] for p in p_list)
        assert result == sweep(p_list, 300)

    def test_a_family_sieves_each_block_once(self, monkeypatch):
        """Seven uncached p at N = 3,000 sieve as often as one run does:
        their engines step in lockstep over one stream of divisor lists."""
        calls = []
        sieve = numtheory._sieved_divisors

        def counting(*args):
            calls.append(args)
            return sieve(*args)

        monkeypatch.setattr(numtheory, "_sieved_divisors", counting)
        sweep(analysis._PAPER_FAMILY, 3000)
        swept = len(calls)
        generate(SequenceSpec.standard(199, 3001))
        assert swept == len(calls) - swept == 6  # three blocks, two progressions each

    def test_repeated_p_generated_once(self, monkeypatch):
        calls = generated_specs(monkeypatch)
        result = sweep([199, 5, 199, 199], 500)
        assert calls == [SequenceSpec.standard(199, 501), SequenceSpec.standard(5, 501)]
        monkeypatch.undo()
        a199, a5 = sweep([199, 5], 500)
        assert result == (a199, a5, a199, a199)

    @pytest.mark.parametrize("p_list, jobs, workers", [
        ([3, 5, 3], 64, 2), ([3, 5, 7], 2, 2), ([3, 5, 7, 11], 3, 3),
    ])
    def test_pool_has_at_most_one_worker_per_distinct_p(self, monkeypatch, p_list, jobs,
                                                         workers):
        """Each worker locksteps one chunk of the distinct p: the chunks
        are contiguous, in order, and differ in size by at most one."""
        alone = sweep(p_list, 100)
        chunks = []

        def recording(specs):
            chunks.append([spec.p for spec in specs])
            return generate_runs(specs)

        monkeypatch.setattr(analysis, "generate_runs", recording)
        made = []

        class InProcessPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert sweep(p_list, 100, jobs=jobs) == alone
        assert made == [workers]
        assert sum(chunks, []) == list(dict.fromkeys(p_list)) and len(chunks) == workers
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        sweep([3, 3], 100, jobs=jobs)  # one distinct p: no pool
        assert made == [workers]

    def test_overflow_is_refused_before_the_first_run(self, monkeypatch, tmp_path):
        calls = generated_specs(monkeypatch)
        with pytest.raises(OverflowError, match=r"^q\(3001\) = .* for p=1000000000000000003 "):
            sweep([199, 10**18 + 3], 3000, cache_dir=str(tmp_path / "cache"))
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([0], 100)
        with pytest.raises(ValueError):
            sweep([3], 1)

    def test_empty_p_list(self):
        assert sweep([], 100) == ()
