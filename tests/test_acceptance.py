"""Acceptance suite: every quantitative claim the package must reproduce,
checked at full scale (N = 10,000) with zero tolerance on counts and on
two-decimal percentages.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one line per criterion.
"""

import time

import pytest

from oracle import oracle_terms
from trifix import analysis, oeis, store
from trifix.analysis import classify, percent
from trifix.cli import EXIT_OK, _format_report, _format_sweep, main
from trifix.engine import SequenceSpec, fixed_points, generate
from trifix.numtheory import q_value

from test_engine import A7_FIXED_POINTS, A7_PREFIX

FAMILY = (3, 5, 7, 11, 41, 97, 199)
N = 10_000

TABLE2_MATCHES = (1160, 1145, 1166, 1176, 1220, 1226, 1226)
TABLE2_NEAR = (67, 82, 61, 51, 7, 1, 1)
TABLE2_RATES = ("94.54%", "93.32%", "95.03%", "95.84%", "99.43%", "99.92%", "99.92%")
TABLE3_FALSE_NEGATIVES = (1179, 1233, 1248, 1415, 1478, 1518, 1526)


def note(criterion, text):
    print(f"[acceptance] criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def sweep7():
    t0 = time.perf_counter()
    result = analysis.sweep(FAMILY, N)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def family_runs():
    return {p: generate(SequenceSpec.standard(p, N + 1)) for p in FAMILY}


@pytest.fixture(scope="module")
def shifted_run():
    return generate(SequenceSpec.shifted(N + 1))


def test_criterion_1_table1_golden(capsys):
    t0 = time.perf_counter()
    code = main(["generate", "--p", "7", "--terms", "25"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == EXIT_OK

    rows, markers = [], []
    for line in out.splitlines()[1:]:
        fields = line.split()
        rows.append(tuple(int(x) for x in fields[:4]))
        markers.append(len(fields) == 5 and fields[4] == "*")
    assert rows == A7_PREFIX
    assert [n for (n, *_), m in zip(rows, markers) if m] == A7_FIXED_POINTS
    assert elapsed < 0.1, f"generate took {elapsed:.3f}s"
    with capsys.disabled():
        note(1, f"PASS — 25 rows + 8 fixed-point markers, {elapsed * 1000:.0f} ms")


def test_criterion_2_table2_regression(sweep7):
    result, elapsed = sweep7
    assert tuple(r.detected for r in result) == TABLE2_MATCHES
    assert tuple(r.near_matches for r in result) == TABLE2_NEAR
    assert all(r.total_eligible_primes == 1227 for r in result)
    assert tuple(percent(r.detected, r.total_eligible_primes) for r in result) == TABLE2_RATES
    # the CSV export carries the same percentage row
    last_row = store.export_table2(result).splitlines()[-1].split(",")
    assert tuple(last_row[1:]) == TABLE2_RATES
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    note(2, f"PASS — detected/near/rate columns exact for 7 sequences, {elapsed:.1f}s")


def test_criterion_3_table3_regression(sweep7):
    result, _ = sweep7
    assert tuple(r.false_negatives for r in result) == TABLE3_FALSE_NEGATIVES
    assert all(r.total_nonprimes == 8771 for r in result)
    # n = 1 is a fixed point everywhere but never a false negative
    assert all(1 not in r.false_negative_values for r in result)
    percent_row = store.export_table3(result).splitlines()[-1].split(",")
    assert tuple(percent_row[1:]) == (
        "13.44%", "14.06%", "14.23%", "16.13%", "16.85%", "17.31%", "17.40%"
    )
    note(3, "PASS — false-negative columns and percentage row exact over 8771 nonprimes")


def test_criterion_4_figure3_matrix(sweep7):
    result, _ = sweep7
    a3_report = result[FAMILY.index(3)]
    text = _format_report(a3_report, None, None, ())
    assert "\n  detect:          94.54%    13.44%\n  don't detect:     5.46%    86.56%\n" in text
    # each column is one whole: eligible primes, then nonprimes
    assert a3_report.detected + len(a3_report.missed_primes) == a3_report.total_eligible_primes
    note(4, "PASS — A(3) matrix [94.54, 13.44; 5.46, 86.56], columns sum to 100%")


def test_criterion_5_missed_prime_identity(sweep7, family_runs):
    result, _ = sweep7
    assert result[FAMILY.index(97)].missed_primes == (6529,)
    assert result[FAMILY.index(199)].missed_primes == (6529,)
    a3_report = result[FAMILY.index(3)]
    assert min(a3_report.missed_primes) == 17
    assert family_runs[3].a[16] != 17
    assert family_runs[3].a[17] == 17
    # every prime missed by one sequence is detected by another in the family
    assert _format_sweep(result).endswith("\nprimes missed by every sequence: none\n")
    note(5, "PASS — A(97)/A(199) miss exactly 6529; A(3) first misses 17, caught at a(18); "
            "no prime missed by all seven")


def test_criterion_6_triangular_variants(shifted_run):
    no_zero = generate(SequenceSpec.no_zero(70))
    assert tuple(no_zero.a[:12]) == (1, 3, 2, 5, 15, 7, 4, 6, 9, 11, 22, 13)
    assert fixed_points(no_zero)[:6] == [1, 9, 25, 49, 57, 65]

    report = classify(shifted_run)
    assert report.excluded_primes == (2,)
    assert report.detected == report.total_eligible_primes == 1228
    assert report.missed_primes == ()
    assert report.false_negatives == 1532
    assert percent(report.false_negatives, report.total_nonprimes) == "17.47%"
    note(6, "PASS — no-zero prefix + fixed points; shifted 1228/1228 with 1532 false negatives")


def test_criterion_7_small_multiplier_identities():
    for p in (2, 4, 6):
        run = generate(SequenceSpec.standard(p, 1000))
        assert tuple(run.a) == tuple(range(1, 1001)), f"A({p}) is not the identity"
    note("7a", "PASS — A(2), A(4), A(6) are the identity over 1000 terms")


def test_criterion_7_a9_equals_a3_full_range(family_runs):
    a3 = list(family_runs[3].a[:N])
    a9 = list(generate(SequenceSpec.standard(9, N)).a)
    first_diff = next((i + 1 for i in range(N) if a3[i] != a9[i]), None)
    observed = (
        f"A(9) equals A(3) over all {N} terms"
        if first_diff is None
        else f"first divergence at n={first_diff}: "
        f"a3({first_diff})={a3[first_diff - 1]}, a9({first_diff})={a9[first_diff - 1]}"
    )
    # The greedy rule forces the split at n=35: 63 = 3^2*7 divides
    # 9*T(34) = 5355 but not 3*T(34) = 1785, and A(3) has not used 63 yet.
    assert first_diff == 35, f"expected A(9) and A(3) to split at n=35; {observed}"
    assert a9[:34] == a3[:34], observed
    assert (a3[34], a9[34]) == (85, 63), f"expected a3(35)=85, a9(35)=63; {observed}"
    assert a3[:35] == oracle_terms("standard", 3, 35), (
        f"A(3) disagrees with the oracle; {observed}"
    )
    assert a9[:35] == oracle_terms("standard", 9, 35), (
        f"A(9) disagrees with the oracle; {observed}"
    )
    t34 = 34 * 35 // 2
    assert (9 * t34) % 63 == 0 and (3 * t34) % 63 != 0
    assert 63 not in a3[:34]
    note("7b", "PASS — A(9) agrees with A(3) through n=34 and splits at n=35 (a3=85, a9=63)")


def test_criterion_8_large_multiplier_full_detection():
    report = classify(generate(SequenceSpec.standard(541, N + 1)))
    assert report.excluded_primes == (2, 541)
    assert report.detected == report.total_eligible_primes == 1227
    assert report.missed_primes == ()
    assert percent(report.detected, report.total_eligible_primes) == "100.00%"
    note(8, "PASS — A(541) detects all 1227 eligible primes (100.00%)")


# --- criterion 9: property suites -----------------------------------------


def test_criterion_9_oracle_equivalence():
    specs = [SequenceSpec.standard(p, 200) for p in (1, 2, 3, 4, 5, 6, 7, 9, 11, 41, 97, 199, 541)]
    specs += [SequenceSpec.no_zero(200), SequenceSpec.shifted(200)]
    for spec in specs:
        assert list(generate(spec).a) == oracle_terms(spec.variant, spec.p, 200), spec.label()
    note("9.oracle", f"PASS — {len(specs)} specs match the brute-force oracle at N=200")


def test_criterion_9_run_invariants(family_runs, shifted_run):
    for p, run in family_runs.items():
        values = run.a
        assert len(set(values)) == len(values), f"duplicate value in A({p})"
        for n, a in enumerate(values[1:], start=2):
            assert run.spec.q(n) % a == 0
    # the sanctioned duplicate is the only exception, in the shifted variant
    assert shifted_run.a.count(1) == 2
    note("9.invariants", "PASS — distinctness + divisibility over the 7-sequence family at N=10,001")


def test_criterion_9_prefix_stability(family_runs):
    for p in (3, 199):
        assert family_runs[p].a[:300] == generate(SequenceSpec.standard(p, 300)).a
    note("9.prefix", "PASS — 10,001-term runs agree with fresh 300-term runs")


def test_criterion_9_fixed_points_are_odd(family_runs):
    for p, run in family_runs.items():
        result = analysis.check_conjecture("3.1", run)
        assert result.holds, f"A({p}): {result.counterexamples[:3]}"
    note("9.parity", "PASS — all fixed points odd across the family at N=10,001")


def test_criterion_9_bfile_round_trip(family_runs):
    run = family_runs[7]
    parsed = oeis.parse_bfile(oeis.write_bfile(run))
    assert parsed.offset == 1 and parsed.values == tuple(run.a)
    note("9.bfile", "PASS — parse(write(run)) is the identity on 10,001 terms")


def test_criterion_9_cache_round_trip(tmp_path):
    for spec in (SequenceSpec.standard(7, 25), SequenceSpec.shifted(30)):
        run = generate(spec)
        store.save_run(run, tmp_path)
        assert store.load_run(spec, tmp_path) == run
    note("9.cache", "PASS — load(save(run)) is the identity")


def test_criterion_9_overflow_is_loud():
    with pytest.raises(OverflowError):
        q_value(2**62, 3)
    with pytest.raises(OverflowError):
        generate(SequenceSpec.standard(2**61, 10))
    note("9.overflow", "PASS — out-of-range q-values raise instead of wrapping")
