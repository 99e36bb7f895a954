"""Integer utilities: smallest-prime-factor sieve, factorization, sorted
divisor lists, primality, and the q(n) = p*(n-1)*n/2 partial-sum formula.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt

# Values (q-values, terms) are guaranteed to fit a signed 64-bit word so that
# exports and cache payloads stay portable.  Python ints never wrap, so the
# ceiling is enforced explicitly: exceeding it is a loud OverflowError.
MAX_SUPPORTED_VALUE = 2**63 - 1

# Sieve entries are 32-bit; the ceiling keeps a sieve under ~200 MB.
SIEVE_CEILING = 50_000_000


class CapacityError(Exception):
    """Requested sieve limit exceeds SIEVE_CEILING."""


def build_spf(limit: int) -> array:
    """Smallest prime factors of 0..limit: ``spf[m]`` is the smallest prime
    factor of m (m itself exactly when m is prime); ``spf[0] == spf[1] == 0``.

    Raises ValueError for limit < 2 and CapacityError when limit exceeds
    SIEVE_CEILING (memory guard, 4 bytes per entry).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise CapacityError(
            f"sieve limit {limit} exceeds the ceiling of {SIEVE_CEILING} entries"
        )
    # spf[m] = m until a prime p <= sqrt(m) dividing m claims it.  The
    # smallest prime factor p of a composite m has p*p <= m, so marking from
    # the largest prime down leaves the smallest one's write in place.
    spf = array("i", range(limit + 1))
    spf[1] = 0
    root = isqrt(limit)
    is_root_prime = bytearray([1]) * (root + 1)
    is_root_prime[:2] = b"\0\0"
    for i in range(2, isqrt(root) + 1):
        if is_root_prime[i]:
            is_root_prime[i * i::i] = bytes(len(range(i * i, root + 1, i)))
    for p in range(root, 1, -1):
        if is_root_prime[p]:
            spf[p * p::p] = array("i", [p]) * len(range(p * p, limit + 1, p))
    return spf


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime-power decomposition: value = prod(p**e for p, e in factors).

    ``factors`` is sorted by prime; 1 factors as the empty product.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"malformed factorization of {self.value}: {self.factors}")
            prev = p


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


def factorize(m: int, spf: array) -> Factorization:
    """Factor m using the sieve. Requires 1 <= m < len(spf)."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    if m >= len(spf):
        raise ValueError(f"m={m} exceeds sieve limit {len(spf) - 1}")
    return Factorization(m, tuple(sieve_factors(m, spf)))


def factorize_trial(m: int) -> Factorization:
    """Factor m by trial division (no sieve). Intended for the single
    multiplier p of a sequence, which may exceed any term-sized sieve.
    Stops at a prime cofactor, so only two prime factors above ~1e8 are slow."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    value = m
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
    return Factorization(value, tuple(factors))


def halve_even(k: int) -> int:
    """k // 2 for even k, k itself for odd k: q(m) = p*(m-1)*m/2 is
    p*halve_even(m-1)*halve_even(m), whose last two factors are coprime."""
    return k >> 1 if k % 2 == 0 else k


def factorize_q(p_fact: Factorization, n: int, spf: array) -> Factorization:
    """Factorization of q(n) = p*(n-1)*n/2 composed from the factorizations
    of p, halve_even(n-1) and halve_even(n).

    q(n) itself can be far larger than any sieve; composing keeps the sieve
    sized to the term index n.  Requires n >= 2 (q(1) = 0 has no
    factorization).
    """
    if n < 2:
        raise ValueError(f"q({n}) has no factorization (need n >= 2)")
    # the two halves are coprime: only p's primes can overlap
    counts = dict(factorize(halve_even(n - 1), spf).factors
                  + factorize(halve_even(n), spf).factors)
    for prime, e in p_fact.factors:
        counts[prime] = counts.get(prime, 0) + e
    value = p_fact.value * (n - 1) * n // 2
    return Factorization(value, tuple(sorted(counts.items())))


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


def sorted_divisors(f: Factorization) -> list[int]:
    """All divisors of f.value in ascending order."""
    return divisors(f.factors)


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
