from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import naive_divisors, naive_factorize, naive_is_prime, naive_spf
from trifix.numtheory import (
    MAX_SUPPORTED_VALUE,
    SIEVE_CEILING,
    CapacityError,
    _halved_divisor_blocks,
    build_spf,
    divisors,
    factorize_q,
    factorize_trial,
    halve_even,
    is_prime,
    prime_flags,
    q_value,
    sieve_factors,
    sorted_divisors,
)


@pytest.fixture(scope="module")
def big_table():
    # large enough to factorize q(1000) = 7*999*1000/2 directly
    return build_spf(3_500_000)


def sieved_primes(spf):
    """The primes < len(spf): the m whose smallest factor is m itself."""
    return [m for m in range(2, len(spf)) if spf[m] == m]


class TestPrimeFlags:
    @pytest.mark.parametrize("limit", range(1, 65))
    def test_every_small_limit(self, limit):
        # marks start at i*i and the sieving i end at sqrt(limit)
        assert list(prime_flags(limit)) == [naive_is_prime(m) for m in range(limit + 1)]

    def test_agrees_with_the_factor_table_at_10k(self, spf_10k):
        flags = prime_flags(10_000)
        assert len(flags) == len(spf_10k)
        assert [m for m in range(len(flags)) if flags[m]] == sieved_primes(spf_10k)

    def test_rejects_limit_over_ceiling_before_any_work(self):
        with pytest.raises(CapacityError, match=r"^sieve limit 50000001 exceeds the ceiling "
                                                r"of 50000000 entries$"):
            prime_flags(SIEVE_CEILING + 1)


class TestBuildSpf:
    def test_limit_10(self):
        spf = build_spf(10)
        expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
        assert {m: spf[m] for m in range(2, 11)} == expected

    def test_smallest_valid_table(self):
        spf = build_spf(2)
        assert len(spf) - 1 == 2
        assert spf[2] == 2

    def test_spot_checks_at_10k(self, spf_10k):
        assert spf_10k[9999] == 3
        assert spf_10k[9973] == 9973

    def test_matches_trial_division(self, spf_10k):
        for m in range(2, 2000):
            assert spf_10k[m] == naive_spf(m)

    @pytest.mark.parametrize("limit", range(2, 65))
    def test_every_small_limit(self, limit):
        # marks start at p*p and the primes that mark end at sqrt(limit)
        assert list(build_spf(limit)) == [0, 0] + [naive_spf(m) for m in range(2, limit + 1)]

    def test_invariants(self, spf_10k):
        for m in range(2, 3000):
            s = spf_10k[m]
            assert m % s == 0
            assert naive_is_prime(s)
            assert all(m % d for d in range(2, s))

    def test_rejects_limit_below_2(self):
        with pytest.raises(ValueError):
            build_spf(1)

    def test_rejects_limit_over_ceiling(self):
        with pytest.raises(CapacityError):
            build_spf(10**9)

    def test_primes_iterator(self, spf_10k):
        primes = sieved_primes(spf_10k)
        assert primes[:5] == [2, 3, 5, 7, 11]
        assert len(primes) == 1229


class TestFactorize:
    def test_one_has_empty_factorization(self, spf_10k):
        assert sieve_factors(1, spf_10k) == []

    def test_84(self, spf_10k):
        assert sieve_factors(84, spf_10k) == [(2, 2), (3, 1), (7, 1)]

    def test_prime(self, spf_10k):
        assert sieve_factors(9973, spf_10k) == [(9973, 1)]

    def test_matches_trial_division_oracle(self, spf_10k):
        for m in range(2, 10_001, 7):
            assert sieve_factors(m, spf_10k) == naive_factorize(m)

    def test_product_and_primality_invariants(self, spf_10k):
        for m in range(2, 10_001):
            product = 1
            for p, e in sieve_factors(m, spf_10k):
                assert is_prime(p)
                product *= p**e
            assert product == m

    def test_trial_variant_agrees(self, spf_10k):
        for m in (1, 2, 84, 541, 9409, 9973):
            assert factorize_trial(m) == sieve_factors(m, spf_10k)

    @pytest.mark.parametrize("m, factors", [
        (10**18 + 3, [(10**18 + 3, 1)]),
        (2 * (10**18 + 3), [(2, 1), (10**18 + 3, 1)]),
        (9 * (10**9 + 7), [(3, 2), (10**9 + 7, 1)]),
    ])
    def test_trial_stops_at_a_prime_cofactor(self, m, factors, time_limit):
        # dividing up to isqrt(m) would take ~1e9 steps for the first two
        with time_limit(5):
            assert factorize_trial(m) == factors

    @given(st.integers(min_value=1, max_value=10**7))
    def test_trial_matches_oracle(self, m):
        assert factorize_trial(m) == naive_factorize(m)


class TestFactorizeQ:
    def test_table_values(self, spf_10k):
        p7 = factorize_trial(7)
        assert factorize_q(p7, 5, spf_10k) == [(2, 1), (5, 1), (7, 1)]  # q(5) = 70
        assert factorize_q(p7, 2, spf_10k) == [(7, 1)]  # q(2) = 7

    def test_sum_of_multiples_of_3(self, spf_10k):
        # 0 + 3 + 6 + ... + 27 = 135 = 3^3 * 5
        assert sum(3 * k for k in range(10)) == 135
        assert factorize_q(factorize_trial(3), 10, spf_10k) == [(3, 3), (5, 1)]

    def test_rejects_n_below_2(self, spf_10k):
        with pytest.raises(ValueError):
            factorize_q(factorize_trial(7), 1, spf_10k)

    def test_rejects_n_past_the_sieve(self, spf_10k):
        # q(10000) needs 9999 and 5000; q(10001) needs 10001, past the sieve
        assert factorize_q([], 10_000, spf_10k) == naive_factorize(9999 * 5000)
        with pytest.raises(ValueError, match=r"^q\(10001\) needs 10001, past the sieve limit 10000$"):
            factorize_q([], 10_001, spf_10k)

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_matches_direct_factorization(self, p, spf_10k, big_table):
        p_fact = factorize_trial(p)
        for n in range(2, 1001):
            assert factorize_q(p_fact, n, spf_10k) == sieve_factors(q_value(p, n), big_table)


class TestSortedDivisors:
    def test_21(self, spf_10k):
        assert sorted_divisors(sieve_factors(21, spf_10k)) == [1, 3, 7, 21]

    def test_identity_case(self, spf_10k):
        assert sorted_divisors(sieve_factors(1, spf_10k)) == [1]

    def test_105(self, spf_10k):
        assert sorted_divisors(sieve_factors(105, spf_10k)) == [1, 3, 5, 7, 15, 21, 35, 105]

    @given(st.integers(min_value=1, max_value=10_000))
    def test_matches_brute_force(self, m):
        factors = factorize_trial(m)
        divs = sorted_divisors(factors)
        assert divs == naive_divisors(m)
        count = 1
        for _, e in factors:
            count *= e + 1
        assert len(divs) == count
        assert divs[0] == 1 and divs[-1] == m


class TestDivisors:
    @given(
        # m <= 7**3 * 11**3 * 13**3 ~ 1e9 keeps the sqrt(m) brute force fast
        st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3), max_size=3),
    )
    def test_ascending_list_matches_brute_force(self, exponents):
        m = 1
        for p, e in exponents.items():
            m *= p**e
        assert divisors(sorted(exponents.items())) == naive_divisors(m)


def flattened(start, stop):
    """The lists of _halved_divisor_blocks(start, stop), blocks joined."""
    return [ds for block in _halved_divisor_blocks(start, stop) for ds in block]


class TestHalvedDivisorLists:
    # Blocks hold max(1024, 4*isqrt(stop)) values of m; every window below
    # spans more than two of them.
    @pytest.mark.parametrize("start", [1, 2, 1601, 1800])
    def test_lists_match_the_oracle_across_blocks(self, start):
        stop = start + 2 * 1024 + 301
        lists = flattened(start, stop)
        assert lists == [naive_divisors(halve_even(m)) for m in range(start, stop)]

    def test_lists_match_the_oracle_in_larger_blocks(self):
        # 4*isqrt(stop) = 4016 here
        start = 10**6 - 7
        stop = start + 2 * 4016 + 3
        lists = flattened(start, stop)
        assert lists == [naive_divisors(halve_even(m)) for m in range(start, stop)]

    @pytest.mark.parametrize("start, stop", [(1, 2), (2, 3), (1, 4), (1024, 1026), (1025, 1026)])
    def test_short_ranges(self, start, stop):
        assert flattened(start, stop) == [
            naive_divisors(halve_even(m)) for m in range(start, stop)]


class TestHalveEven:
    @given(st.integers(2, 10**6))
    def test_q_splits_into_coprime_halves(self, m):
        lower, upper = halve_even(m - 1), halve_even(m)
        assert lower * upper == (m - 1) * m // 2
        assert gcd(lower, upper) == 1


class TestQValue:
    def test_table_row(self):
        assert q_value(7, 11) == 385

    @pytest.mark.parametrize("p", [1, 2, 7, 541])
    def test_empty_sum(self, p):
        assert q_value(p, 1) == 0

    def test_large_exact(self):
        assert q_value(541, 10_000) == 541 * 9999 * 10_000 // 2 == 27_047_295_000

    def test_overflow_is_raised_not_wrapped(self):
        with pytest.raises(OverflowError):
            q_value(2**62, 3)
        # the largest representable values still work
        assert q_value(1, 3_000_000_000) <= MAX_SUPPORTED_VALUE

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            q_value(0, 5)
        with pytest.raises(ValueError):
            q_value(5, 0)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=2, max_value=10_000))
    def test_telescoping(self, p, n):
        assert q_value(p, n) - q_value(p, n - 1) == p * (n - 1)


class TestIsPrime:
    def test_definitional(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)

    def test_6529(self):
        assert is_prime(6529)

    def test_6529_is_the_844th_prime(self, spf_10k):
        primes = sieved_primes(spf_10k)
        assert primes.index(6529) + 1 == 844

    def test_1229_primes_below_10k(self):
        assert sum(1 for m in range(10_001) if is_prime(m)) == 1229

    def test_matches_trial_division(self):
        for m in range(3000):
            assert is_prime(m) == naive_is_prime(m)

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**61 + 1)  # divisible by 3
        assert is_prime(9_223_372_036_854_775_783)  # largest prime below 2**63
