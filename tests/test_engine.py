import sys
import tracemalloc
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trifix.engine as engine_module
import trifix.numtheory as numtheory_module
from oracle import (
    naive_divisors,
    naive_factorize,
    naive_is_prime,
    oracle_fixed_points,
    oracle_terms,
    q_of,
)
from trifix.engine import (
    NO_ZERO,
    SHIFTED,
    STANDARD,
    ExhaustedDivisorsError,
    SequenceEngine,
    SequenceRun,
    SequenceSpec,
    fixed_points,
    generate,
    generate_runs,
)
from trifix.numtheory import CapacityError, _halved_divisor_blocks, is_prime
from trifix.store import load_run, save_run

# Published golden prefix of A(7): (n, mult, q, a), fixed points marked below.
A7_PREFIX = [
    (1, 0, 0, 1), (2, 7, 7, 7), (3, 14, 21, 3), (4, 21, 42, 2), (5, 28, 70, 5),
    (6, 35, 105, 15), (7, 42, 147, 21), (8, 49, 196, 4), (9, 56, 252, 6),
    (10, 63, 315, 9), (11, 70, 385, 11), (12, 77, 462, 14), (13, 84, 546, 13),
    (14, 91, 637, 49), (15, 98, 735, 35), (16, 105, 840, 8), (17, 112, 952, 17),
    (18, 119, 1071, 51), (19, 126, 1197, 19), (20, 133, 1330, 10),
    (21, 140, 1470, 30), (22, 147, 1617, 33), (23, 154, 1771, 23),
    (24, 161, 1932, 12), (25, 168, 2100, 20),
]
A7_FIXED_POINTS = [1, 3, 5, 11, 13, 17, 19, 23]


class TestSpec:
    def test_rejects_bad_values(self):
        for make, message in [
            (lambda: SequenceSpec.standard(0, 10), "standard variant requires p >= 1, got 0"),
            (lambda: SequenceSpec.standard(7, 0), "term_count must be >= 1, got 0"),
            (lambda: SequenceSpec("bogus", 10),
             "unknown variant 'bogus'; expected one of ('standard', 'no-zero', 'shifted')"),
            (lambda: SequenceSpec(NO_ZERO, 10, p=3), "variant 'no-zero' does not take p"),
            (lambda: SequenceSpec(STANDARD, 10), "standard variant requires p >= 1, got None"),
        ]:
            with pytest.raises(ValueError) as caught:
                make()
            assert str(caught.value) == message

    def test_labels(self):
        assert SequenceSpec.standard(7, 5).label() == "A(7)"
        assert SequenceSpec.no_zero(5).label() == NO_ZERO
        assert SequenceSpec.shifted(5).label() == SHIFTED

    def test_bootstrap_flagging(self):
        assert SequenceSpec.standard(1, 5).has_bootstrap
        assert SequenceSpec.shifted(5).has_bootstrap
        assert not SequenceSpec.standard(3, 5).has_bootstrap
        assert not SequenceSpec.no_zero(5).has_bootstrap

    def test_variant_rule(self):
        # every variant is q(n) = m*T(n+o-1) at its (multiplier m, offset o)
        for spec, rule in ((SequenceSpec.standard(7, 5), (7, 0)),
                           (SequenceSpec.shifted(5), (1, 0)),
                           (SequenceSpec.no_zero(5), (1, 1))):
            assert (spec.multiplier, spec.offset) == rule
            qs = [spec.q(n) for n in range(1, 51)]
            assert qs == [q_of(spec.variant, spec.p, n) for n in range(1, 51)]

    @pytest.mark.parametrize("spec", [
        SequenceSpec.standard(1, 1), SequenceSpec.standard(7, 1), SequenceSpec.standard(199, 1),
        SequenceSpec.no_zero(1), SequenceSpec.shifted(1),
    ], ids=lambda s: s.label())
    def test_q_values_are_the_summed_q(self, spec):
        for count in (1, 2, 300):
            sized = SequenceSpec(spec.variant, count, spec.p)
            qs = [sized.q(n) for n in range(1, count + 1)]
            assert list(accumulate(sized.q_steps())) == list(sized.q_values()) == qs

    def test_q_values_overflow_is_eager(self):
        # q(3) = 3 * 2**62 overflows: the spec is refused, so no q_values exist
        with pytest.raises(OverflowError, match=r"^q\(3\) = "):
            SequenceSpec.standard(2**62, 3)

    def test_the_offset_counts_against_the_sieve_ceiling(self):
        with pytest.raises(CapacityError, match=r"^sieve limit 50000001 exceeds the ceiling "):
            SequenceSpec.no_zero(50_000_000)
        assert SequenceSpec.standard(3, 50_000_000).term_count == 50_000_000


class TestGoldenPrefixes:
    def test_a7_terms_and_q(self):
        run = generate(SequenceSpec.standard(7, 25))
        terms = [run.term(n) for n in range(1, 26)]
        assert [(t.n, t.q, t.a) for t in terms] == [(n, q, a) for n, _, q, a in A7_PREFIX]

    def test_a7_fixed_points(self):
        run = generate(SequenceSpec.standard(7, 25))
        assert fixed_points(run) == A7_FIXED_POINTS

    def test_a3_prefix(self):
        run = generate(SequenceSpec.standard(3, 11))
        assert tuple(run.a) == (1, 3, 9, 2, 5, 15, 7, 4, 6, 27, 11)

    def test_no_zero_prefix(self):
        run = generate(SequenceSpec.no_zero(12))
        assert tuple(run.a) == (1, 3, 2, 5, 15, 7, 4, 6, 9, 11, 22, 13)
        assert run.term(1).q == 1 and run.term(1).a == 1

    def test_no_zero_fixed_points(self):
        run = generate(SequenceSpec.no_zero(70))
        assert fixed_points(run) == [1, 9, 25, 49, 57, 65]

    def test_no_zero_places_each_odd_prime_one_step_early(self):
        """a(n - 1) = n, so a(n) != n, at each of the 1,228 odd primes
        n <= 10^4: the values up to (n - 1)/2 are used by step n - 2, the
        divisors of q(n - 1) = n(n - 1)/2 below n divide (n - 1)/2, and n
        divides no earlier q."""
        run = generate(SequenceSpec.no_zero(10_000))
        primes = [n for n in range(3, 10_001, 2) if naive_is_prime(n)]
        assert len(primes) == 1228
        assert [n for n in primes if run.a[n - 2] != n or run.a[n - 1] == n] == []

    def test_shifted_prefix(self):
        run = generate(SequenceSpec.shifted(7))
        assert tuple(run.a) == (1, 1, 3, 2, 5, 15, 7)

    def test_identity_sequences(self):
        assert tuple(generate(SequenceSpec.standard(2, 8)).a) == tuple(range(1, 9))
        run = generate(SequenceSpec.standard(2, 100))
        assert fixed_points(run) == list(range(1, 101))

    def test_a9_matches_a3_prefix(self):
        a9 = generate(SequenceSpec.standard(9, 11)).a
        a3 = generate(SequenceSpec.standard(3, 11)).a
        assert a9 == a3


class TestBootstrap:
    def test_standard_1_duplicate(self):
        run = generate(SequenceSpec.standard(1, 2))
        first, second = run.term(1), run.term(2)
        assert (first.n, first.q, first.a) == (1, 0, 1)
        assert (second.n, second.q, second.a) == (2, 1, 1)
        assert second.is_bootstrap_duplicate and not first.is_bootstrap_duplicate

    def test_shifted_equals_standard_1(self):
        assert generate(SequenceSpec.shifted(50)).a == generate(SequenceSpec.standard(1, 50)).a

    def test_only_one_duplicate(self):
        run = generate(SequenceSpec.shifted(200))
        values = run.a
        assert values.count(1) == 2
        assert len(values) - len(set(values)) == 1
        flagged = [n for n in range(1, 201) if run.term(n).is_bootstrap_duplicate]
        assert flagged == [2]

    def test_no_bootstrap_elsewhere(self):
        for spec in (SequenceSpec.standard(3, 200), SequenceSpec.no_zero(200)):
            run = generate(spec)
            assert not any(run.term(n).is_bootstrap_duplicate for n in range(1, 201))


# a(1) = 1 is the search's own result at n = 1, where nothing is used yet:
# (spec at N = 2, its a(1..2), q(1)).
FIRST_TERMS = [
    (SequenceSpec.shifted(2), (1, 1), 0),
    (SequenceSpec.no_zero(2), (1, 3), 1),
    (SequenceSpec.standard(1, 2), (1, 1), 0),
    (SequenceSpec.standard(2, 2), (1, 2), 0),
    (SequenceSpec.standard(3, 2), (1, 3), 0),
    (SequenceSpec.standard(2**62, 2), (1, 2), 0),
    (SequenceSpec.standard(10**18 + 3, 2), (1, 10**18 + 3), 0),  # a prime p
]


@pytest.mark.parametrize("spec, a, q1", FIRST_TERMS, ids=[t[0].label() for t in FIRST_TERMS])
def test_first_terms_come_from_the_search(spec, a, q1):
    assert tuple(generate(spec).a) == a
    t = SequenceEngine(spec).next_term()
    assert (t.n, t.q, t.a) == (1, q1, 1)


class TestEngineStepping:
    def test_first_emitted_term(self):
        engine = SequenceEngine(SequenceSpec.standard(7, 25))
        t = engine.next_term()
        assert (t.n, t.q, t.a) == (1, 0, 1)
        assert t.is_fixed_point

    def test_exhausting_term_budget(self):
        engine = SequenceEngine(SequenceSpec.standard(7, 3))
        for _ in range(3):
            engine.next_term()
        with pytest.raises(IndexError):
            engine.next_term()

    def test_run_accessors(self):
        run = generate(SequenceSpec.standard(7, 25))
        assert run.term(14).a == 49
        with pytest.raises(IndexError):
            run.term(0)
        with pytest.raises(IndexError):
            run.term(26)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 50])
    @pytest.mark.parametrize("spec", [SequenceSpec.shifted(300), SequenceSpec.standard(9, 300)],
                             ids=lambda s: s.label())
    def test_stepping_then_run_equals_generate(self, spec, k):
        engine = SequenceEngine(spec)
        records = [engine.next_term() for _ in range(k)]
        run = engine.run()
        assert run == generate(spec)
        assert records == [run.term(n) for n in range(1, k + 1)]

    def test_next_term_flags_the_bootstrap(self):
        engine = SequenceEngine(SequenceSpec.shifted(5))
        first, second, third = (engine.next_term() for _ in range(3))
        assert (second.n, second.q, second.a, second.is_bootstrap_duplicate) == (2, 1, 1, True)
        assert not first.is_bootstrap_duplicate and not third.is_bootstrap_duplicate

    def test_overflow_is_raised_before_any_term(self):
        # q increases, so q(N) alone is checked, once, when the spec is
        # built: q(4) = 6 * 2**62 overflows though q(2) = 2**62 fits
        with pytest.raises(OverflowError, match=r"^q\(4\) = "):
            SequenceSpec.standard(2**62, 4)
        assert tuple(generate(SequenceSpec.standard(2**62, 2)).a) == (1, 2)

    def test_sieve_ceiling_is_checked_before_overflow(self):
        with pytest.raises(CapacityError, match=r"^sieve limit 50000001 exceeds"):
            SequenceSpec.standard(2**62, 50_000_001)

    def test_exhausted_divisors_leave_the_engine_unchanged(self):
        engine = SequenceEngine(SequenceSpec.standard(7, 5))
        engine.next_term()
        engine._used[7] = 1  # q(2) = 7: both of its divisors now taken
        for _ in range(2):
            with pytest.raises(ExhaustedDivisorsError, match=r"q\(2\) = 7"):
                engine.next_term()

    def test_the_shared_search_exhausts_as_the_pair_scan_does(self):
        """Stepped with the shared divisors of T, as in a lockstep chunk, an
        engine fails where the pair scan does, with its error, and keeps the
        terms before the step, their carried list and the mex."""
        [lists] = _halved_divisor_blocks(2, 5)  # h(2), h(3), h(4)
        ends = []
        for shared in (None, engine_module._triangular_divisors([1], lists)):
            engine = SequenceEngine(SequenceSpec.standard(7, 5))
            engine.next_term()
            # a(2) = 7 and a(3) = 3 take the rest of q(4) = 42's divisors
            for v in (2, 6, 14, 21):
                engine._used[v] = 1
            engine._spill.add(42)
            for skip in (0, 2):  # the failing call, then a retry of n = 4
                with pytest.raises(ExhaustedDivisorsError, match=r"^A\(7\): all divisors of q\(4\) = 42 in use$"):
                    engine._extend(lists[skip:], shared and shared[skip:])
                ends.append((engine._a.tolist(), engine._xs, engine._mex))
        assert ends == [([1, 7, 3], [1, 3], 4)] * 4

    @pytest.mark.parametrize("spec", [SequenceSpec.shifted(3000), SequenceSpec.no_zero(3000),
                                      SequenceSpec.standard(199, 3000)], ids=lambda s: s.label())
    def test_stepping_across_a_sieved_block_then_run_equals_generate(self, spec):
        # generate sieves divisor lists in blocks of 1024 or more: 1030
        # single steps, each sieving its own list, cross the first block's end
        engine = SequenceEngine(spec)
        records = [engine.next_term() for _ in range(1030)]
        run = engine.run()
        assert run == generate(spec)
        assert records == [run.term(n) for n in range(1, 1031)]

    def test_run_after_manual_stepping_keeps_all_terms(self):
        engine = SequenceEngine(SequenceSpec.standard(7, 10))
        engine.next_term()
        engine.next_term()
        run = engine.run()
        assert len(run.a) == 10
        assert run == generate(SequenceSpec.standard(7, 10))


class TestSearchRange:
    """a(n) is looked for between the mex and q(n), the product of the
    largest divisors of m and h(n+o-1), which the engine carries, and of
    h(n+o), the list step n is fed."""

    @staticmethod
    def search_of_term(spec, n):
        """((mex, q(n)) before step n, read off the engine, and a(n))."""
        engine = SequenceEngine(spec)
        for _ in range(n - 1):
            engine.next_term()
        o = spec.offset
        [[ys]] = _halved_divisor_blocks(n + o, n + o + 1)
        top = engine._p_divisors[-1] * engine._xs[-1] * ys[-1]
        assert top == spec.q(n)
        return (engine._mex, top), engine.next_term().a

    def test_a199_second_term(self):
        # q(2) = 199 is prime: its one unused divisor is q itself
        assert self.search_of_term(SequenceSpec.standard(199, 2), 2) == ((2, 199), 199)

    def test_no_zero_term_equal_to_q(self):
        spec = SequenceSpec.no_zero(277)
        assert spec.q(277) == 38503
        # 140 is the least value unused after a(276)
        assert self.search_of_term(spec, 277) == ((140, 38503), 38503)

    def test_term_far_below_q(self):
        # A(7): 8 is the least value unused after a(10), q(11) = 385 = 7*5*11
        assert self.search_of_term(SequenceSpec.standard(7, 11), 11) == ((8, 385), 11)

    def test_bootstrap_after_a_search_that_finds_nothing(self):
        # shifted: q(2) = 1 is below the mex 2 and its one divisor is used
        assert self.search_of_term(SequenceSpec.shifted(2), 2) == ((2, 1), 1)


def is_used(engine, value):
    """Whether the engine has marked ``value`` used."""
    return engine._used[value] if value < len(engine._used) else value in engine._spill


class TestMex:
    @staticmethod
    def assert_mex_is_a_lower_bound(engine):
        assert all(is_used(engine, v) for v in range(1, engine._mex))

    @pytest.mark.parametrize("spec", [SequenceSpec.standard(7, 300), SequenceSpec.no_zero(300),
                                      SequenceSpec.shifted(300)], ids=lambda s: s.label())
    def test_mex_is_the_least_unused_value(self, spec):
        engine = SequenceEngine(spec)
        for _ in range(spec.term_count):
            engine.next_term()
            assert not is_used(engine, engine._mex)
            self.assert_mex_is_a_lower_bound(engine)

    @given(st.sampled_from([SequenceSpec.standard(p, 150) for p in (1, 3, 7, 12, 199)]
                           + [SequenceSpec.no_zero(150)]),
           st.dictionaries(st.integers(1, 149), st.sets(st.integers(1, 300), max_size=4),
                           max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_values_used_by_hand_keep_the_mex_a_lower_bound(self, spec, planted):
        # values marked used between steps (all below the 4N + 8 = 608 of
        # the used map): the mex may now be used itself, yet each step
        # still takes the least unused divisor
        engine = SequenceEngine(spec)
        used = set()
        for n in range(1, spec.term_count + 1):
            for value in planted.get(n - 1, ()):
                engine._used[value] = 1
                used.add(value)
            self.assert_mex_is_a_lower_bound(engine)
            q = spec.q(n)
            free = [d for d in naive_divisors(q) if d not in used] if q else [1]
            if not free and not (n == 2 and spec.has_bootstrap):
                with pytest.raises(ExhaustedDivisorsError):
                    engine.next_term()
                return
            a = free[0] if free else 1
            assert engine.next_term().a == a
            used.add(a)

    def test_values_past_the_used_map_are_kept_aside(self):
        # A(199): a(2) = 199 is past the 4N + 8 = 16 bytes of a 2-term
        # engine's used map
        engine = SequenceEngine(SequenceSpec.standard(199, 2))
        engine.run()
        assert len(engine._used) == 16 and engine._spill == {199}
        assert is_used(engine, 199) and not is_used(engine, 198)


ORACLE_SPECS = [
    SequenceSpec.standard(1, 200),
    SequenceSpec.standard(2, 200),
    SequenceSpec.standard(3, 200),
    SequenceSpec.standard(4, 200),
    SequenceSpec.standard(5, 200),
    SequenceSpec.standard(6, 200),
    SequenceSpec.standard(7, 200),
    SequenceSpec.standard(9, 200),
    SequenceSpec.standard(11, 200),
    SequenceSpec.standard(41, 200),
    SequenceSpec.standard(199, 200),
    SequenceSpec.no_zero(200),
    SequenceSpec.shifted(200),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_matches_brute_force_oracle(spec):
    expected = oracle_terms(spec.variant, spec.p, spec.term_count)
    assert list(generate(spec).a) == expected


def sorted_scan_greedy(spec: SequenceSpec) -> tuple[int, ...]:
    """The greedy rule stepped on the oracle alone: factor q(n) by trial
    division, list every product of its prime powers in ascending order and
    take the first unused one (1 when none is left, which only the bootstrap
    at n = 2 needs).  ``naive_divisors`` would scan up to sqrt(q(n)), about
    10^5 here."""
    values, used = [1], {1}  # a(1) = 1: q(1) is 0, or 1 for no-zero
    for n in range(2, spec.term_count + 1):
        products = [1]
        for prime, e in naive_factorize(q_of(spec.variant, spec.p, n)):
            products = [d * prime**k for d in products for k in range(e + 1)]
        a = next((d for d in sorted(products) if d not in used), 1)
        values.append(a)
        used.add(a)
    return tuple(values)


REFERENCE_SPECS = [SequenceSpec.standard(p, 10_000) for p in (1, 2, 9, 12, 199)] + [
    SequenceSpec.no_zero(10_000),
    SequenceSpec.shifted(10_000),
]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
def test_matches_sorted_scan_reference(spec):
    assert tuple(generate(spec).a) == sorted_scan_greedy(spec)


# p = 2^a 3^b 5^c shares primes with (n-1)n/2, so the search meets the same
# product more than once; a prime p up to 2000 makes a(2) = q(2) = p, far
# above n.
SMOOTH_P = st.builds(lambda a, b, c: 2**a * 3**b * 5**c,
                     st.integers(0, 6), st.integers(0, 4), st.integers(0, 3))
PRIME_P = st.integers(2, 2000).filter(is_prime)


@given(st.one_of(
    st.builds(SequenceSpec.standard, st.one_of(SMOOTH_P, PRIME_P), st.integers(2, 400)),
    st.builds(SequenceSpec.no_zero, st.integers(2, 400)),
    st.builds(SequenceSpec.shifted, st.integers(2, 400)),
))
@settings(max_examples=150, deadline=None)
def test_matches_sorted_scan_reference_on_drawn_specs(spec):
    assert tuple(generate(spec).a) == sorted_scan_greedy(spec)


# Mex lemma: h(2v) = v divides q(2v), and by induction every u < v is used
# by step 2u <= 2v - 2, so an unused v is the least unused divisor at step
# 2v.  It keeps the mex above (n - 1)/2, the lower end of the step's search.
COMPOSITE_P = st.builds(lambda a, b: a * b, PRIME_P, PRIME_P)


@given(st.one_of(
    st.builds(SequenceSpec.standard,
              st.one_of(st.integers(1, 30), SMOOTH_P, PRIME_P, COMPOSITE_P,
                        st.sampled_from([403, 541, 10**9 + 7])),
              st.integers(1, 2000)),
    st.builds(SequenceSpec.no_zero, st.integers(1, 2000)),
    st.builds(SequenceSpec.shifted, st.integers(1, 2000)),
))
@settings(max_examples=40, deadline=None)
def test_each_value_v_is_among_the_first_2v_terms(spec):
    first = {}
    for n, a in enumerate(generate(spec).a, start=1):
        first.setdefault(a, n)
    late = [v for v in range(1, spec.term_count // 2 + 1) if first.get(v, 2 * v + 1) > 2 * v]
    assert late == []



# Families for generate_runs: term counts around the 256-step sub-block
# and 1,024-list block ends, p of every kind (1 is the bootstrap), repeats,
# and no-zero specs, whose offset puts them in a lockstep group of their own.
@st.composite
def families(draw):
    sizes = draw(st.lists(st.one_of(st.integers(1, 3000),
                                    st.sampled_from([255, 256, 257, 1023, 1024, 1025, 2048, 2049])),
                          min_size=1, max_size=2))
    size = st.sampled_from(sizes)
    spec = st.one_of(
        st.builds(SequenceSpec.standard,
                  st.one_of(st.sampled_from([1, 3, 5, 7, 11, 41, 97, 199]), PRIME_P,
                            COMPOSITE_P, SMOOTH_P), size),
        st.builds(SequenceSpec.no_zero, size),
        st.builds(SequenceSpec.shifted, size),
    )
    family = draw(st.lists(spec, min_size=1, max_size=5))
    return draw(st.permutations(family + draw(st.lists(st.sampled_from(family), max_size=2))))


# Chunks on each side of SHARED_SEARCH_MIN take shifted and the first of
# these p: prime, the bootstrap's 1 (so a chunk of K holds both bootstraps),
# composite, and smooth (720720 and 648000 = 2^6 3^4 5^3).
MIXED_P = (199, 1, 9, 12, 720720, 648000)
K = engine_module.SHARED_SEARCH_MIN


class TestGenerateRuns:
    """generate_runs steps the engines of consecutive specs of one offset
    and term count in lockstep over one stream of divisor lists.  A chunk
    of at least SHARED_SEARCH_MIN engines also shares each step's sorted
    divisors of the triangular number T and searches them by bisection;
    a smaller one, and ``generate``'s lone engine, keep the pair scan.
    Either way each run equals its spec's own."""

    @given(families())
    @settings(max_examples=25, deadline=None)
    def test_each_run_equals_its_spec_alone(self, specs):
        assert list(generate_runs(specs)) == [generate(spec) for spec in specs]

    @pytest.mark.parametrize("count", [255, 256, 257, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("size", [2, K, 7])
    def test_a_chunk_of_each_size_equals_its_specs_alone(self, size, count):
        specs = [SequenceSpec.shifted(count)] + [SequenceSpec.standard(p, count) for p in MIXED_P]
        specs = specs[:size]
        assert list(generate_runs(specs)) == [generate(spec) for spec in specs]

    @staticmethod
    def calls_to(monkeypatch, module, name):
        """The arguments of every call to module.name, in order."""
        calls = []
        function = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return function(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_only_a_chunk_of_k_builds_the_divisors_of_t(self, monkeypatch):
        """One build per 256-step sub-block of a chunk of K, none for a
        lone engine or a chunk of K - 1."""
        calls = self.calls_to(monkeypatch, engine_module, "_triangular_divisors")
        generate(SequenceSpec.standard(199, 1000))
        list(generate_runs([SequenceSpec.standard(p, 1000) for p in MIXED_P[:K - 1]]))
        assert calls == []
        list(generate_runs([SequenceSpec.standard(p, 1000) for p in MIXED_P[:K]]))
        assert len(calls) == 4
        assert [len(lists) for xs, lists in calls] == [256, 256, 256, 232]

    # small state the peaks below may hold beyond what they count: the
    # engine objects and carried lists, and the sieve's scratch (its marks
    # and one progression's list of lists) beside the block it builds
    SLACK = 32 * 1024

    @staticmethod
    def held(lists):
        """Bytes of a list of lists of ints, less the cached small ints."""
        return sys.getsizeof(lists) + sum(
            sys.getsizeof(ds) + sum(sys.getsizeof(d) for d in ds if d > 256) for ds in lists)

    @staticmethod
    def traced(specs):
        """The bytes the engines of ``specs`` hold once run (term arrays,
        used maps and spills), and the peak of generate_runs(specs) above
        its start."""
        engines = [SequenceEngine(spec) for spec in specs]
        for engine in engines:
            engine.run()
        own = sum(sys.getsizeof(engine._a) + sys.getsizeof(engine._used) + sys.getsizeof(engine._spill)
                  + sum(map(sys.getsizeof, engine._spill)) for engine in engines)
        del engines
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for run in generate_runs(specs):
                del run
            return own, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_a_shared_chunk_holds_one_sub_block_of_products(self):
        """The family at N = 10^4 peaks at its engines' own state (12 bytes
        per term and the arrays' headroom), one block of divisor lists and
        one sub-block of their products, at most."""
        family = [SequenceSpec.standard(p, 10_000) for p in (3, 5, 7, 11, 41, 97, 199)]
        xs, block_bytes, sub_block_bytes = [1], 0, 0
        for block in _halved_divisor_blocks(1, 10_001):
            block_bytes = max(block_bytes, self.held(block))
            for j in range(0, len(block), engine_module.SUB_BLOCK):
                lists = block[j:j + engine_module.SUB_BLOCK]
                sub_block_bytes = max(sub_block_bytes, self.held(engine_module._triangular_divisors(xs, lists)))
                xs = lists[-1]
        own, peak = self.traced(family)
        assert peak <= own + block_bytes + sub_block_bytes + self.SLACK

    def test_a_lone_engine_holds_one_block_of_lists(self):
        """A(199) at N = 10^4 peaks at its engine's own state and one block
        of divisor lists: the last block is dropped before the stream sieves
        the next."""
        block_bytes = max(map(self.held, _halved_divisor_blocks(1, 10_001)))
        own, peak = self.traced([SequenceSpec.standard(199, 10_000)])
        assert peak <= own + block_bytes + self.SLACK

    def test_one_stream_per_batch(self, monkeypatch):
        # one block of 1,024 lists holds all 1,000: two progressions, each
        # sieved once per stream
        specs = [SequenceSpec.standard(p, 1000) for p in (3, 5, 7, 11)]
        calls = self.calls_to(monkeypatch, numtheory_module, "_sieved_divisors")
        runs = list(generate_runs(specs))
        assert len(calls) == 2
        assert runs == [generate(spec) for spec in specs]
        assert len(calls) == 2 + 4 * 2

    @pytest.fixture
    def room_for_two(self, monkeypatch):
        """A budget with room for two engines of 1,000 terms."""
        budget = engine_module._BYTES_PER_TERM * 2000 + 11
        monkeypatch.setattr(engine_module, "LOCKSTEP_BUDGET", budget)

    def test_a_run_of_like_specs_steps_in_chunks_that_fit(self, monkeypatch, room_for_two):
        """A(3) and A(5) step together, then A(7) alone: two streams, and
        never more than two engines alive."""
        specs = [SequenceSpec.standard(p, 1000) for p in (3, 5, 7)]
        alone = [generate(spec) for spec in specs]
        built = []

        class Counting(SequenceEngine):
            def __init__(self, spec):
                built.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(engine_module, "SequenceEngine", Counting)
        calls = self.calls_to(monkeypatch, numtheory_module, "_sieved_divisors")
        runs, alive = [], []
        for run in generate_runs(specs):
            alive.append(len(built) - len(runs))  # built, less those yielded before
            runs.append(run)
        assert runs == alone
        assert alive == [2, 1, 1]
        assert len(calls) == 2 * 2

    def test_interleaved_specs_step_apart(self, monkeypatch, room_for_two):
        """Only consecutive specs of one offset and term count share a
        stream: A(3), no-zero, A(5) sieve three."""
        specs = [SequenceSpec.standard(3, 1000), SequenceSpec.no_zero(1000),
                 SequenceSpec.standard(5, 1000)]
        alone = [generate(spec) for spec in specs]
        calls = self.calls_to(monkeypatch, numtheory_module, "_sieved_divisors")
        assert list(generate_runs(specs)) == alone
        assert len(calls) == 2 * 3

    def test_one_engine_always_steps(self, monkeypatch):
        monkeypatch.setattr(engine_module, "LOCKSTEP_BUDGET", 0)
        specs = [SequenceSpec.standard(3, 500), SequenceSpec.standard(5, 500)]
        assert list(generate_runs(specs)) == [generate(spec) for spec in specs]


class TestWorkPins:
    """The work a run does, pinned: a change to the search that keeps every
    term but does more (or less) work shows here.  Each count is read by a
    test-side shadow of a name the engine module looks up, so the engine
    itself counts nothing.  A pinned count changes only with a CHANGES.md
    line saying why."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """reads(make) runs make() and returns the used-map reads it made,
        counted by a bytearray subclass shadowing the engine module's."""

        class Counting(bytearray):
            count = 0

            def __getitem__(self, index):
                Counting.count += 1
                return super().__getitem__(index)

        monkeypatch.setattr(engine_module, "bytearray", Counting, raising=False)

        def reads(make):
            Counting.count = 0
            make()
            return Counting.count

        return reads

    def test_a_lone_engine(self, reads):
        """The pair scan, through generate and through run()."""
        spec = SequenceSpec.standard(199, 10_000)
        assert reads(lambda: generate(spec)) == 59_975
        assert reads(lambda: SequenceEngine(spec).run()) == 59_975

    def test_the_family_in_one_shared_chunk(self, reads):
        """The shared search a sweep of the paper's family runs."""
        specs = [SequenceSpec.standard(p, 10_001) for p in (3, 5, 7, 11, 41, 97, 199)]
        assert reads(lambda: list(generate_runs(specs))) == 380_888

    def test_a_lockstep_pair(self, reads):
        """A chunk below SHARED_SEARCH_MIN keeps the pair scan."""
        specs = [SequenceSpec.standard(p, 10_001) for p in (3, 5)]
        assert reads(lambda: list(generate_runs(specs))) == 145_525

    def test_the_pair_scans_downward_scans(self, monkeypatch):
        """One reversed() call per downward scan of a lone engine."""
        scans = []

        def counting(seq):
            scans.append(None)
            return reversed(seq)

        monkeypatch.setattr(engine_module, "reversed", counting, raising=False)
        generate(SequenceSpec.standard(199, 10_000))
        assert len(scans) == 19_193

    def test_the_pair_scans_divisors_of_m(self, monkeypatch):
        """The divisors z of m = 9 that a lone A(9)'s pair scan takes: all
        three at every step but two, where a hit below the next z ends it."""

        class Counting(list):
            count = 0

            def __iter__(self):
                for z in super().__iter__():
                    Counting.count += 1
                    yield z

        divisors = engine_module.divisors
        monkeypatch.setattr(engine_module, "divisors", lambda factors: Counting(divisors(factors)))
        generate(SequenceSpec.standard(9, 10_000))
        assert Counting.count == 29_998


def test_oracle_fixed_points_agree():
    run = generate(SequenceSpec.no_zero(200))
    assert fixed_points(run) == oracle_fixed_points(NO_ZERO, None, 200)


class TestInvariants:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
    def test_divisibility_and_bounds(self, spec):
        run = generate(spec)
        for t in map(run.term, range(1, spec.term_count + 1)):
            if t.q > 0:
                assert t.q % t.a == 0
                assert t.a <= t.q
            assert t.is_fixed_point == (t.a == t.n)
            assert t.is_near_match == (t.a == t.n - 1)

    @pytest.mark.parametrize("p", [2, 3, 7, 9, 199])
    def test_distinctness(self, p):
        values = generate(SequenceSpec.standard(p, 500)).a
        assert len(set(values)) == len(values)

    def test_first_term_is_always_1(self):
        for spec in ORACLE_SPECS:
            assert generate(spec).a[0] == 1

    def test_second_term_is_p_for_prime_p(self):
        # q(2) = p, so for prime p the only fresh divisor is p itself
        for p in (2, 3, 5, 7, 11, 199):
            assert generate(SequenceSpec.standard(p, 2)).a[1] == p

    def test_second_term_for_composite_p_is_smallest_fresh_divisor(self):
        # q(2) = p; composite p yields its smallest prime factor, not p
        assert generate(SequenceSpec.standard(4, 2)).a[1] == 2
        assert generate(SequenceSpec.standard(9, 2)).a[1] == 3

    @pytest.mark.parametrize("spec", ORACLE_SPECS[:6], ids=lambda s: s.label())
    def test_prefix_stability(self, spec):
        longer = generate(SequenceSpec(spec.variant, 120, spec.p))
        shorter = generate(SequenceSpec(spec.variant, 50, spec.p))
        assert longer.a[:50] == shorter.a

    def test_determinism(self):
        spec = SequenceSpec.standard(11, 300)
        assert generate(spec) == generate(spec)

    def test_runs_hold_one_array_and_are_unhashable(self, tmp_path):
        spec = SequenceSpec.standard(11, 300)
        run = generate(spec)
        save_run(run, tmp_path)
        for held in (run, load_run(spec, tmp_path)):
            assert type(held.a) is array and held.a.typecode == "q"
            assert held == run
        assert SequenceRun(spec, tuple(run.a)) == run == SequenceRun(spec, run.a.tolist())
        assert SequenceRun(spec, run.a).a is run.a
        with pytest.raises(OverflowError):
            SequenceRun(SequenceSpec.standard(11, 2), (1, 2**63))
        with pytest.raises(TypeError):
            hash(run)

    @pytest.mark.parametrize("how", ["generate", "load_run"])
    def test_a_run_holds_at_most_10_bytes_per_term(self, tmp_path, how):
        """A 3*10^4-term A(199) run is its 8-byte words and little more,
        whether the engine made it or a cache hit decoded it."""
        spec = SequenceSpec.standard(199, 30_000)
        if how == "load_run":
            save_run(generate(spec), tmp_path)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = generate(spec) if how == "generate" else load_run(spec, tmp_path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(run.a) == 30_000
        assert held <= 10 * 30_000

    @pytest.mark.parametrize("count", [10_000, 100_000])
    def test_an_engine_holds_at_most_the_budgeted_bytes_per_term(self, count):
        """A(541) spills hundreds of values past its used map by 10^4; its
        terms, used map, spill set and spilled ints fit the per-term share
        of LOCKSTEP_BUDGET."""
        engine = SequenceEngine(SequenceSpec.standard(541, count))
        engine.run()
        held = sum(map(sys.getsizeof, (engine._a, engine._used, engine._spill, *engine._spill)))
        assert engine._spill and held <= engine_module._BYTES_PER_TERM * count

    def test_no_exhaustion_at_depth(self):
        # q(n) exceeds every prior term, so a fresh divisor always exists
        for p in (3, 199):
            run = generate(SequenceSpec.standard(p, 2000))
            assert not any(run.term(n).is_bootstrap_duplicate for n in range(1, 2001))


def test_overflow_propagates_from_q():
    with pytest.raises(OverflowError):
        generate(SequenceSpec.standard(2**62, 4))
