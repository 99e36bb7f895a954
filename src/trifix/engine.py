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

from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate, groupby

from .numtheory import divisors, factorize_trial, halved_divisor_blocks, halved_divisor_lists, q_value

STANDARD = "standard"
NO_ZERO = "no-zero"
SHIFTED = "shifted"
VARIANTS = (STANDARD, NO_ZERO, SHIFTED)


class ExhaustedDivisorsError(Exception):
    """Every divisor of q(n) was already used outside the sanctioned
    bootstrap position -- an internal invariant violation, not a user error."""


class FrozenValue:
    """Base of trifix's immutable values.  A subclass names its fields, in
    order, in ``__slots__``; they are set once, positionally or by keyword,
    and never again.  Instances are equal only to instances of the same
    class with equal fields, hash by their fields, pickle by construction
    and repr as ``Name(field=value, ...)``.  Its methods are plain
    functions, so defining a class compiles no generated source (which no
    .pyc could cache): every launch imports these classes."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(names)}; got "
                f"{len(args)} positional and {sorted(kwargs)} keyword argument(s)"
            )
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SequenceSpec(FrozenValue):
    """Which sequence to generate and how many terms.

    ``p`` is required for the standard variant (p >= 1) and must be omitted
    for the others.  standard p=1 and the shifted variant denote the same
    sequence.
    """

    __slots__ = ("variant", "term_count", "p")
    variant: str
    term_count: int
    p: int | None

    def __init__(self, variant: str, term_count: int, p: int | None = None):
        super().__init__(variant, term_count, p)
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


class TermRecord(FrozenValue):
    """One term, derived from (spec, n, a(n)).

    ``is_near_match`` marks a(n) = n - 1, i.e. this term realizes
    "value n-1 appears one position late"; primality of n-1 is judged by
    the analysis layer, not here.
    """

    __slots__ = ("n", "q", "a", "is_bootstrap_duplicate")
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


class SequenceRun(FrozenValue):
    """The spec plus a(1..N), an ``array('q')`` kept as given or converted
    (OverflowError past 63 bits).  ``==`` compares spec and terms; ``a`` is
    read-only by convention; unhashable.  :meth:`term` derives the rest."""

    __slots__ = ("spec", "a")
    spec: SequenceSpec
    a: array

    def __init__(self, spec: SequenceSpec, a: Iterable[int]):
        super().__init__(spec, a if isinstance(a, array) and a.typecode == "q" else array("q", a))

    def term(self, n: int) -> TermRecord:
        if not 1 <= n <= len(self.a):
            raise IndexError(f"term index {n} outside 1..{len(self.a)}")
        return TermRecord.of(self.spec, n, self.a[n - 1])


# A chunk of engines stepped in lockstep by generate_runs keeps its combined
# state within this many bytes: 12 per term each, 8 for the term and 4 of
# used map.  Only one chunk exists at a time.
LOCKSTEP_BUDGET = 64 * 2**20
_BYTES_PER_TERM = 12


class SequenceEngine:
    """Strictly sequential term emitter (each term depends on the full
    used-set history).  Distinct engines are independent.

    Its one input is ``_extend``'s divisor lists, so its position is its
    term count.  ``run`` sieves the lists of the remaining terms in blocks;
    ``next_term`` sieves its one list per call: stepping A(199) takes
    80-135 µs per term at N = 2*10^4 and 310 at 2*10^5, ``generate`` 3.5-5
    (Python 3.11.7, two shared vCPUs)."""

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self._a = array("q")
        self._lists(spec.term_count)  # CapacityError past the sieve ceiling
        spec.q(spec.term_count)  # q increases: only q(N) can overflow
        self._p_divisors = divisors(factorize_trial(spec.multiplier))
        # The ascending divisors of h(n + offset - 1) for the next n.  At
        # n = 1, [1] stands in for the divisors of h(offset) (h(0) = 0 has
        # them all): nothing is used yet, so the search finds 1*1*1 = 1 =
        # a(1) at once.
        self._xs = [1]
        # _used[v] marks a used v below 4N + 8, _spill holds the larger ones
        self._used = bytearray(4 * spec.term_count + 8)
        self._spill: set[int] = set()
        self._mex = 1  # every value below it is used

    def _extend(self, lists: Iterable[list[int]]) -> None:
        """Append one term per list: a(n) is the least unused divisor of
        q(n), and ``lists`` holds the ascending divisors of h(n + offset)
        for the next n in turn.  On an error the engine keeps the terms
        before it and their carried list."""
        zs, xs = self._p_divisors, self._xs
        used, spill, mex, a = self._used, self._spill, self._mex, self._a
        size = len(used)
        n = len(a)
        try:
            for ys in lists:
                n += 1
                # The least unused z*x*y in [mex, q(n)], z, x and y drawn from
                # the divisors of m, h(n+o-1) and h(n+o); q(n) is the largest
                # such product.  Each hit lowers hi to just below itself.  A
                # product reached twice (zs sharing a prime with xs or ys) is
                # harmless.
                lo = mex
                hi = q = zs[-1] * xs[-1] * ys[-1]
                short, long = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
                v = 0
                for z in zs:
                    if z > hi:
                        break
                    for x in short:
                        zx = z * x
                        if zx > hi:
                            break
                        if zx * zx < lo:
                            # a y with zx*y >= lo is above sqrt(lo), near the
                            # top of the list: scan down, keeping the last
                            # unused product
                            for y in reversed(long):
                                w = zx * y
                                if w < lo:
                                    break
                                if w <= hi and not (used[w] if w < size else w in spill):
                                    v = w
                                    hi = w - 1
                        else:
                            # the first unused product is this zx's least
                            for y in long:
                                w = zx * y
                                if w > hi:
                                    break
                                if w >= lo and not (used[w] if w < size else w in spill):
                                    v = w
                                    hi = w - 1
                                    break
                if v == 0:
                    if n == 2 and self.spec.has_bootstrap:
                        v = 1
                    else:
                        raise ExhaustedDivisorsError(
                            f"{self.spec.label()}: all divisors of q({n}) = {q} in use"
                        )
                if v < size:
                    used[v] = 1
                else:
                    spill.add(v)
                a.append(v)
                while used[mex]:
                    mex += 1
                xs = ys
        finally:
            self._xs, self._mex = xs, mex

    def _lists(self, count: int) -> Iterator[list[int]]:
        """The divisors of h(n + offset) for the next ``count`` n, sieved
        afresh: the engine's position is its term count alone."""
        m = len(self._a) + 1 + self.spec.offset
        return halved_divisor_lists(m, m + count)

    def next_term(self) -> TermRecord:
        if len(self._a) >= self.spec.term_count:
            raise IndexError(f"all {self.spec.term_count} terms already emitted")
        self._extend(self._lists(1))
        return TermRecord.of(self.spec, len(self._a), self._a[-1])

    def run(self) -> SequenceRun:
        self._extend(self._lists(self.spec.term_count - len(self._a)))
        return SequenceRun(self.spec, self._a)


def generate_runs(specs: Iterable[SequenceSpec]) -> Iterator[SequenceRun]:
    """The run of each spec, in order.  Consecutive specs of one offset and
    term count are generated together, in chunks of as many as keep their
    engines' state within LOCKSTEP_BUDGET (one always fits): a chunk's
    engines step in lockstep over one stream of divisor lists, so each
    block is sieved once for all of them.  Only one chunk's engines exist
    at a time, and each is dropped as its run is yielded."""
    for (offset, count), like in groupby(specs, key=lambda spec: (spec.offset, spec.term_count)):
        like = list(like)
        fit = max(1, LOCKSTEP_BUDGET // (_BYTES_PER_TERM * count))
        for i in range(0, len(like), fit):
            engines = [SequenceEngine(spec) for spec in like[i:i + fit]]
            for block in halved_divisor_blocks(1 + offset, 1 + offset + count):
                for engine in engines:
                    engine._extend(block)
            engines.reverse()
            while engines:
                yield engines.pop().run()


def generate(spec: SequenceSpec) -> SequenceRun:
    """Generate the full run for ``spec``: generate_runs of spec alone.
    Deterministic: identical specs yield identical runs."""
    return next(generate_runs([spec]))


def fixed_points(run: SequenceRun) -> list[int]:
    """Indices n with a(n) = n, ascending."""
    return [n for n, a in enumerate(run.a, start=1) if a == n]
