"""Integer utilities: prime flag and smallest-prime-factor sieves,
factorization, sorted divisor lists (one number at a time, or sieved in
blocks of consecutive numbers), primality, and the q(n) = p*(n-1)*n/2
partial-sum formula.

A factorization is a list of (prime, exponent) pairs in ascending prime
order; 1 factors as the empty list.  Everything here is a pure function of
its inputs.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from math import isqrt

# Values (q-values, terms) are guaranteed to fit a signed 64-bit word so that
# exports and cache payloads stay portable.  Python ints never wrap, so the
# ceiling is enforced explicitly: exceeding it is a loud OverflowError.
MAX_SUPPORTED_VALUE = 2**63 - 1

# The ceiling bounds a run's term count and keeps classify's prime flag
# table (one byte per entry) near 50 MB.  A run's divisor lists are sieved a
# block at a time and build no table; build_spf, which no run calls, would
# take four bytes per entry.
SIEVE_CEILING = 50_000_000


class CapacityError(Exception):
    """Requested sieve limit exceeds SIEVE_CEILING."""


def _check_sieve_limit(limit: int) -> None:
    if limit > SIEVE_CEILING:
        raise CapacityError(
            f"sieve limit {limit} exceeds the ceiling of {SIEVE_CEILING} entries"
        )


def prime_flags(limit: int) -> bytearray:
    """One byte per m in 0..limit: ``flags[m]`` is 1 when m is prime, else 0.

    Requires limit >= 1; raises CapacityError when limit exceeds
    SIEVE_CEILING.
    """
    _check_sieve_limit(limit)
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return flags


# Kept only for factorize_q, the tests and bench/tracer.py's TARGETS, which
# wraps it by name: classify reads prime_flags instead.
def build_spf(limit: int) -> array:
    """Smallest prime factors of 0..limit: ``spf[m]`` is the smallest prime
    factor of m (m itself exactly when m is prime); ``spf[0] == spf[1] == 0``.

    Raises ValueError for limit < 2 and CapacityError when limit exceeds
    SIEVE_CEILING (memory guard, 4 bytes per entry).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    _check_sieve_limit(limit)
    # spf[m] = m until a prime p <= sqrt(m) dividing m claims it.  The
    # smallest prime factor p of a composite m has p*p <= m, so marking from
    # the largest prime down leaves the smallest one's write in place.
    spf = array("i", range(limit + 1))
    spf[1] = 0
    root = isqrt(limit)
    is_root_prime = prime_flags(root)
    for p in range(root, 1, -1):
        if is_root_prime[p]:
            spf[p * p::p] = array("i", [p]) * len(range(p * p, limit + 1, p))
    return spf


def sieve_factors(m: int, spf: array) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of 1 <= m < len(spf), unchecked."""
    factors = []
    while m > 1:
        p = spf[m]
        m //= p
        e = 1
        while spf[m] == p:  # spf[1] == 0 ends the run at m = 1
            m //= p
            e += 1
        factors.append((p, e))
    return factors


def factorize_trial(m: int) -> list[tuple[int, int]]:
    """Factor m by trial division (no sieve). Intended for the single
    multiplier p of a sequence, which may exceed any term-sized sieve.
    Stops at a prime cofactor, so only two prime factors above ~1e8 are slow."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    factors = []
    p = 2
    limit = 1 if is_prime(m) else isqrt(m)
    while p <= limit:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
            limit = 1 if is_prime(m) else isqrt(m)
        p += 1
    if m > 1:
        factors.append((m, 1))
    return factors


def halve_even(k: int) -> int:
    """k // 2 for even k, k itself for odd k: q(m) = p*(m-1)*m/2 is
    p*halve_even(m-1)*halve_even(m), whose last two factors are coprime."""
    return k >> 1 if k % 2 == 0 else k


# Kept only because bench/tracer.py's TARGETS wraps it by name.
def factorize_q(p_factors: list[tuple[int, int]], n: int, spf: array) -> list[tuple[int, int]]:
    """Factorization of q(n) = p*(n-1)*n/2 composed from the factorizations
    of p, halve_even(n-1) and halve_even(n).

    q(n) itself can be far larger than any sieve; composing keeps the sieve
    sized to the term index n.  Requires n >= 2 (q(1) = 0 has no
    factorization) and both halves within the sieve.
    """
    if n < 2:
        raise ValueError(f"q({n}) has no factorization (need n >= 2)")
    halves = halve_even(n - 1), halve_even(n)
    if max(halves) >= len(spf):
        raise ValueError(f"q({n}) needs {max(halves)}, past the sieve limit {len(spf) - 1}")
    # the two halves are coprime: only p's primes can overlap
    counts = dict(sieve_factors(halves[0], spf) + sieve_factors(halves[1], spf))
    for prime, e in p_factors:
        counts[prime] = counts.get(prime, 0) + e
    return sorted(counts.items())


def _halved_divisor_blocks(start: int, stop: int) -> Iterator[list[list[int]]]:
    """The ascending divisors of halve_even(m) for m = start, ..., stop - 1,
    in blocks of about max(1024, 4*isqrt(stop)) consecutive m, each sieved
    when it is read, so no factorization is stored.  The engine's feed is
    the one caller: it starts at an index n + offset >= 1, and its spec has
    checked stop - 1 against SIEVE_CEILING, so neither is checked here."""
    size = max(1024, 4 * isqrt(stop))
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        block = [None] * (hi - lo)
        # odd m give the odd k = m and even m the consecutive k = m/2: two
        # progressions, each sieved on its own
        for m in range(lo, min(lo + 2, hi)):
            odd = m & 1
            count = len(range(m, hi, 2))
            block[m - lo::2] = _sieved_divisors(m if odd else m >> 1, count, 1 + odd)
        yield block


def _sieved_divisors(first: int, count: int, step: int) -> list[list[int]]:
    """The ascending divisors of k = first + step*i for 0 <= i < count, with
    step 1, or step 2 and first odd."""
    small = [[] for _ in range(count)]
    last = first + step * (count - 1)
    # An odd k has only odd divisors.  d marks its multiples from d*d on:
    # the first is the least k >= max(first, d*d) with k % d == 0 (and
    # k % 2d == d when step is 2), and either way the next is d places on.
    marked = []
    for d in range(1, isqrt(last) + 1, step):
        k = max(first, d * d)
        k += ((step - 1) * d - k) % (step * d)
        i = (k - first) // step
        for ds in small[i::d]:
            ds.append(d)
        marked.append((d, k, i))
    # small[i] now holds the divisors up to sqrt(k).  Their co-divisors k/d
    # follow, largest d first so that they ascend; for one d they are the
    # progression k/d, k/d + step, ...  A square k = d*d has d once.
    for d, k, i in reversed(marked):
        if k == d * d:
            k += step * d
            i += d
        for ds, co in zip(small[i::d], range(k // d, last // d + 1, step)):
            ds.append(co)
    return small


def divisors(factors) -> list[int]:
    """The divisors of the product of (prime, exponent) pairs, ascending."""
    result = [1]
    for p, e in factors:
        block = result
        for _ in range(e):
            block = [d * p for d in block]
            result += block
    result.sort()
    return result


# Kept only because bench/tracer.py's TARGETS wraps it by name (hence no alias).
def sorted_divisors(factors: list[tuple[int, int]]) -> list[int]:
    """All divisors of the product of (prime, exponent) pairs, ascending."""
    return divisors(factors)


def q_value(p: int, n: int) -> int:
    """Evaluate q(n) = p*(n-1)*n/2, the n-th partial sum of multiples of p,
    exactly (0 exactly when n == 1), rejecting values beyond the supported
    63-bit range instead of growing silently."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    value = p * (n - 1) * n // 2
    if value > MAX_SUPPORTED_VALUE:
        raise OverflowError(
            f"q({n}) = {value} for p={p} exceeds the supported value range "
            f"(2**63 - 1)"
        )
    return value


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Miller-Rabin with the fixed witness set {2,3,...,37}, which is proven
    exact for all m < 3.3e24 -- far beyond the supported 63-bit value range.
    """
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
