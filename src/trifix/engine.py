"""Sequence generator: a(1) = 1 and a(n) is the smallest positive integer
not yet in the sequence that divides q(n).

Three variants share the machinery; each is q(n) = m*(n+o-1)*(n+o)/2 at
the (multiplier m, index offset o) that :class:`SequenceSpec` owns:

* ``standard`` p: m = p, o = 0 (partial sums of multiples of p).
* ``shifted``:    m = 1, o = 0, i.e. standard with p = 1.  Its n = 2
  step (q = 1, sole divisor 1 already used) emits a sanctioned duplicate
  a(2) = 1, flagged as the bootstrap.
* ``no-zero``:    m = 1, o = 1: q(n) = n*(n+1)/2 (triangular numbers
  starting at 1).

A term index n with a(n) = n is a fixed point; fixed points of these
sequences are the prime-candidate signal downstream analysis classifies.

The step reads q(n) off its divisor lists: q(n) = m*h(n+o-1)*h(n+o) with
h(k) = k/2 for even k and k for odd, a(n) is searched among products of
one divisor of each factor, and the largest such product is q(n).  Only
q(N) can pass the 63-bit ceiling; the engine checks it once, when built.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from .numtheory import (
    build_spf,
    divisors,
    factorize_trial,
    halve_even,
    q_value,
    sieve_factors,
)

STANDARD = "standard"
NO_ZERO = "no-zero"
SHIFTED = "shifted"
VARIANTS = (STANDARD, NO_ZERO, SHIFTED)


class ExhaustedDivisorsError(Exception):
    """Every divisor of q(n) was already used outside the sanctioned
    bootstrap position -- an internal invariant violation, not a user error."""


@dataclass(frozen=True, slots=True)
class SequenceSpec:
    """Which sequence to generate and how many terms.

    ``p`` is required for the standard variant (p >= 1) and must be omitted
    for the others.  standard p=1 and the shifted variant denote the same
    sequence.
    """

    variant: str
    term_count: int
    p: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.term_count < 1:
            raise ValueError(f"term_count must be >= 1, got {self.term_count}")
        if self.variant == STANDARD:
            if self.p is None or self.p < 1:
                raise ValueError(f"standard variant requires p >= 1, got {self.p}")
        elif self.p is not None:
            raise ValueError(f"variant {self.variant!r} does not take p")

    @classmethod
    def standard(cls, p: int, term_count: int) -> "SequenceSpec":
        return cls(STANDARD, term_count, p)

    @classmethod
    def no_zero(cls, term_count: int) -> "SequenceSpec":
        return cls(NO_ZERO, term_count)

    @classmethod
    def shifted(cls, term_count: int) -> "SequenceSpec":
        return cls(SHIFTED, term_count)

    def label(self) -> str:
        if self.variant == STANDARD:
            return f"A({self.p})"
        return self.variant

    @property
    def multiplier(self) -> int:
        """The p of q(n) = p*(n-1)*n/2: p for standard, 1 otherwise."""
        return self.p if self.variant == STANDARD else 1

    @property
    def offset(self) -> int:
        """Index shift of q: no-zero reads T(n) = q(n+1) at p = 1."""
        return 1 if self.variant == NO_ZERO else 0

    def q(self, n: int) -> int:
        """q(n) of this sequence; OverflowError past the 63-bit range."""
        return q_value(self.multiplier, n + self.offset)

    def q_values(self, count: int) -> Iterator[int]:
        """q(1..count) of this sequence, summed lazily from the steps
        q(n) - q(n-1) = multiplier*(n+offset-1).  q is increasing, so the
        OverflowError of a q(count) past the 63-bit range is raised here,
        before any value exists."""
        self.q(count)
        m, o = self.multiplier, self.offset
        return accumulate(range(m * o, m * (count + o), m))

    @property
    def has_bootstrap(self) -> bool:
        """True when n=2 legitimately re-emits 1 (q(2) = 1, divisor exhausted)."""
        return self.multiplier == 1 and self.offset == 0


@dataclass(frozen=True, slots=True)
class TermRecord:
    """One term, derived from (spec, n, a(n)).

    ``is_near_match`` marks a(n) = n - 1, i.e. this term realizes
    "value n-1 appears one position late"; primality of n-1 is judged by
    the analysis layer, not here.
    """

    n: int
    q: int
    a: int
    is_bootstrap_duplicate: bool

    @property
    def is_fixed_point(self) -> bool:
        return self.a == self.n

    @property
    def is_near_match(self) -> bool:
        return self.a == self.n - 1

    @classmethod
    def of(cls, spec: SequenceSpec, n: int, a: int) -> "TermRecord":
        """Term n of ``spec`` given a(n)."""
        return cls(n, spec.q(n), a, n == 2 and a == 1 and spec.has_bootstrap)


@dataclass(frozen=True, slots=True)
class SequenceRun:
    """A materialized run: the spec plus a(1..N).  Every other per-term
    field is derived on demand by :meth:`term`."""

    spec: SequenceSpec
    a: tuple[int, ...]

    def term(self, n: int) -> TermRecord:
        if not 1 <= n <= len(self.a):
            raise IndexError(f"term index {n} outside 1..{len(self.a)}")
        return TermRecord.of(self.spec, n, self.a[n - 1])


def _least_unused_product(used, zs, xs, ys, lo: int, hi: int) -> int:
    """The least z*x*y in [lo, hi] not in ``used``, with z, x and y drawn
    from the ascending lists zs, xs and ys, or 0 when there is none.  A
    product reached twice (zs sharing a prime with xs or ys) is harmless."""
    if len(xs) > len(ys):
        xs, ys = ys, xs  # the outer loop runs over the shorter list
    least = 0
    for z in zs:
        if z > hi:
            break
        for x in xs:
            zx = z * x
            if zx > hi:
                break
            # ys ascend, so the first unused product in the window is this
            # zx's least, and any later hit must lie below it.  The lists
            # are short: a plain scan beats two bisections here.
            for y in ys:
                v = zx * y
                if v > hi:
                    break
                if v >= lo and v not in used:
                    least = v
                    hi = v - 1
                    break
    return least


class SequenceEngine:
    """Strictly sequential term emitter (each term depends on the full
    used-set history).  Distinct engines are independent."""

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self._spf = build_spf(max(spec.term_count + spec.offset, 2))
        spec.q(spec.term_count)  # q increases: only q(N) can overflow
        self._p_divisors = divisors(factorize_trial(spec.multiplier).factors)
        # divisors of halve_even(n + offset - 1), carried; n = 1 never reads it
        self._prev_divisors = [1]
        self._used: set[int] = set()
        self._mex = 1  # every value below it is used
        self._a: list[int] = []

    def _step(self) -> None:
        """Append a(n), the least unused divisor of q(n), for the next n."""
        n = len(self._a) + 1
        zs, xs = self._p_divisors, self._prev_divisors
        ys = divisors(sieve_factors(halve_even(n + self.spec.offset), self._spf))
        if n == 1:
            a = 1  # by definition; q(1) is 0, or 1 for no-zero
        else:
            # Every value below the mex is used.  a(n) is usually near n, so
            # the first window is [mex, 2n]; on a miss the next one runs up to
            # 8 times as far, until a window reaches q(n), the largest product.
            q = zs[-1] * xs[-1] * ys[-1]
            lo, hi = self._mex, 2 * n
            while True:
                a = _least_unused_product(self._used, zs, xs, ys, lo, hi)
                if a or hi >= q:
                    break
                lo, hi = hi + 1, 8 * hi
            if a == 0:
                if n == 2 and self.spec.has_bootstrap:
                    a = 1
                else:
                    raise ExhaustedDivisorsError(
                        f"{self.spec.label()}: all divisors of q({n}) = {q} in use"
                    )
        self._prev_divisors = ys
        self._used.add(a)
        self._a.append(a)
        while self._mex in self._used:
            self._mex += 1

    def next_term(self) -> TermRecord:
        if len(self._a) >= self.spec.term_count:
            raise IndexError(f"all {self.spec.term_count} terms already emitted")
        self._step()
        return TermRecord.of(self.spec, len(self._a), self._a[-1])

    def run(self) -> SequenceRun:
        for _ in range(len(self._a), self.spec.term_count):
            self._step()
        return SequenceRun(self.spec, tuple(self._a))


def generate(spec: SequenceSpec) -> SequenceRun:
    """Generate the full run for ``spec``.  Deterministic: identical specs
    yield identical runs."""
    return SequenceEngine(spec).run()


def fixed_points(run: SequenceRun) -> list[int]:
    """Indices n with a(n) = n, ascending."""
    return [n for n, a in enumerate(run.a, start=1) if a == n]
