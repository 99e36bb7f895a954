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

The step works from divisor lists: q(n) = m*h(n+o-1)*h(n+o) with
h(k) = k/2 for even k and k for odd, and a(n) is searched among products
of one divisor of each factor (or of m and of the triangular number
T = h(n+o-1)*h(n+o), when engines share T's sorted divisors), the largest
of which is q(n).  The step computes q(n) only to report exhausted
divisors.  A spec is a run the engine can make: it checks N against the
sieve ceiling and q(N) against the 63-bit one when it is built.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import accumulate, groupby

from .numtheory import _check_sieve_limit, _halved_divisor_blocks, divisors, factorize_trial, q_value

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
    sequence.  A spec is a run the engine can make: past the sieve ceiling
    (term_count + offset) it raises CapacityError, then past the 63-bit one
    (q(term_count), its largest q(n)) OverflowError.
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
        _check_sieve_limit(self.term_count + self.offset)
        self.q(self.term_count)

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

    def q_steps(self) -> range:
        """q(n) - q(n-1) = multiplier*(n+offset-1) for n = 1..term_count,
        with q(0) = 0."""
        m, o = self.multiplier, self.offset
        return range(m * o, m * (self.term_count + o), m)

    def q_values(self) -> Iterator[int]:
        """q(1..term_count) of this sequence, summed lazily from q_steps."""
        return accumulate(self.q_steps())

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
# state within this many bytes, at most _BYTES_PER_TERM per term each: 8 for
# the term, 4 of used map and the spill set with its ints.  After run(),
# sys.getsizeof of those measured 12.1 bytes per term for A(3) and 13.7,
# 14.2 and 14.9 for A(541) at N = 10^4, 10^5 and 10^6 (Python 3.11.7).
# Only one chunk exists at a time.  Beside it, a chunk holds one
# block of divisor lists, at most 215 KiB at N = 10^4 and 346 KiB at 10^5,
# and a shared chunk one sub-block of SUB_BLOCK steps' divisors of T, at
# most 420 KiB and 655 KiB.
LOCKSTEP_BUDGET = 64 * 2**20
_BYTES_PER_TERM = 16
# A chunk of at least SHARED_SEARCH_MIN engines shares each step's sorted
# divisors of T; a smaller one keeps the pair scan.  The list costs 3.3 µs
# a step to build at N = 10^4 and 4.8 at 10^5, which two engines do not
# win back at both: in-process (CPU time, best of 9, p = 3, 5, 7, ...),
# 2 engines took 60 ms with the pair scan against 55 shared at N = 10^4
# but 730 against 781 at 10^5, and 3 took 89 against 62 and 1131 against
# 893 (Python 3.11.7, two shared vCPUs).
SHARED_SEARCH_MIN = 3
SUB_BLOCK = 256
# Ends each shared list, above every product z*t, so that a scan up a list
# stops without an index check.
_TOP = 1 << 64


class SequenceEngine:
    """Strictly sequential term emitter (each term depends on the full
    used-set history).  Distinct engines are independent.  Its spec has
    checked both ceilings, so the engine checks neither.

    Its one input is ``_extend``'s divisor lists, so its position is its
    term count.  One feed, ``_feed``, hands them to every engine: chunks of
    like specs from ``generate_runs``, this engine alone for its remaining
    terms from ``run`` and for one term, whose list it sieves alone, from
    ``next_term`` (A(199): 80-310 µs a term, ``generate`` 3.5-5; Python 3.11.7).

    A step searches one of two ways, with the same result, each in a loop
    of its own.  In a chunk below SHARED_SEARCH_MIN it scans pairs x*y of
    divisors of h(n+o-1) and h(n+o) for each divisor z of m; in a larger
    one it bisects the sorted divisors of T = h(n+o-1)*h(n+o), built once
    per step for the chunk, at mex for z = 1 and at ceil(mex/z) for z > 1."""

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self._a = array("q")
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

    def _extend(self, lists: Iterable[list[int]], shared: Iterable[list[int]] | None = None) -> None:
        """Append one term per list: a(n) is the least unused divisor of
        q(n), and ``lists`` holds the ascending divisors of h(n + offset)
        for the next n in turn.  ``shared``, when given, holds for each n
        the ascending divisors of T = h(n+o-1)*h(n+o), ended by _TOP; the
        step then searches them instead of scanning pairs, in a loop of its
        own that reads ``lists`` (a list) only for the carried list.  On an
        error the engine keeps the terms before it and their carried list."""
        zs, xs = self._p_divisors, self._xs
        used, spill, mex, a = self._used, self._spill, self._mex, self._a
        size, start = len(used), len(a)
        # The least unused divisor of q(n) in [mex, q(n)] is a product of a
        # divisor z of m and one of T.  Each hit lowers hi to just below
        # itself.  Every product is at most q(n) < 2^63, so hi starts just
        # below _TOP, which a scan must never take.  A product reached twice
        # (zs sharing a prime with T) is harmless.
        top = _TOP - 1
        try:
            if shared is None:
                for ys in lists:
                    # pairs x*y of divisors of h(n+o-1) and h(n+o)
                    lo, hi, v = mex, top, 0
                    short, long = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
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
                        v = self._none_unused()
                    if v < size:
                        used[v] = 1
                    else:
                        spill.add(v)
                    a.append(v)
                    while used[mex]:
                        mex += 1
                    xs = ys
            else:
                # each z's first unused z*t from ceil(mex/z) on is its least;
                # z = 1 comes first
                zs = zs[1:]
                for ts in shared:
                    hi, v = top, 0
                    j = bisect_left(ts, mex)
                    while True:
                        w = ts[j]
                        if w > hi:
                            break
                        if not (used[w] if w < size else w in spill):
                            v = w
                            hi = w - 1
                            break
                        j += 1
                    for z in zs:
                        if z > hi:
                            break
                        j = bisect_left(ts, -(-mex // z))
                        while True:
                            w = z * ts[j]
                            if w > hi:
                                break
                            if not (used[w] if w < size else w in spill):
                                v = w
                                hi = w - 1
                                break
                            j += 1
                    if v == 0:
                        v = self._none_unused()
                    if v < size:
                        used[v] = 1
                    else:
                        spill.add(v)
                    a.append(v)
                    while used[mex]:
                        mex += 1
        finally:
            if shared is not None and len(a) > start:
                xs = lists[len(a) - start - 1]
            self._xs, self._mex = xs, mex

    def _none_unused(self) -> int:
        """a(n) when every divisor of q(n) is used: the bootstrap's 1 at
        n = 2, else ExhaustedDivisorsError."""
        n = len(self._a) + 1
        if n == 2 and self.spec.has_bootstrap:
            return 1
        raise ExhaustedDivisorsError(f"{self.spec.label()}: all divisors of q({n}) = {self.spec.q(n)} in use")

    def next_term(self) -> TermRecord:
        if len(self._a) >= self.spec.term_count:
            raise IndexError(f"all {self.spec.term_count} terms already emitted")
        _feed([self], 1)
        return TermRecord.of(self.spec, len(self._a), self._a[-1])

    def run(self) -> SequenceRun:
        _feed([self], self.spec.term_count - len(self._a))
        return SequenceRun(self.spec, self._a)


def _feed(engines: list[SequenceEngine], count: int) -> None:
    """Step ``engines``, of one offset and at one position (their term count),
    through their next ``count`` terms in lockstep over one stream of
    divisor lists, each block sieved once for all of them and dropped before
    the next.  A chunk of at least SHARED_SEARCH_MIN also shares each step's
    sorted divisors of T, built SUB_BLOCK steps at a time, which each engine
    bisects in place of its pair scan."""
    share, first = len(engines) >= SHARED_SEARCH_MIN, engines[0]
    xs, start = first._xs, len(first._a) + 1 + first.spec.offset  # carried list, next n + o
    for block in _halved_divisor_blocks(start, start + count):
        for j in range(0, len(block), SUB_BLOCK):
            lists = block[j:j + SUB_BLOCK]
            shared = _triangular_divisors(xs, lists) if share else None
            xs = lists[-1]
            for engine in engines:
                engine._extend(lists, shared)
            del shared  # one sub-block of them at a time
        del block, lists  # and one block of lists: the next is sieved


def generate_runs(specs: Iterable[SequenceSpec]) -> Iterator[SequenceRun]:
    """The run of each spec, in order.  Consecutive specs of one offset and
    term count are generated together, in chunks of as many as keep their
    engines' state within LOCKSTEP_BUDGET (one always fits), each stepped
    through its terms by ``_feed``.  Only one chunk's engines exist at a
    time, and each is dropped as its run is yielded."""
    for (_, count), like in groupby(specs, key=lambda spec: (spec.offset, spec.term_count)):
        like = list(like)
        fit = max(1, LOCKSTEP_BUDGET // (_BYTES_PER_TERM * count))
        for i in range(0, len(like), fit):
            engines = [SequenceEngine(spec) for spec in like[i:i + fit]]
            _feed(engines, count)
            engines.reverse()
            while engines:
                yield engines.pop().run()


def _triangular_divisors(xs: list[int], lists: list[list[int]]) -> list[list[int]]:
    """For each ys in ``lists``, the ascending products x*y of it and the
    list before it (``xs`` before the first), ended by _TOP.  The two are
    the divisors of h(k) and h(k+1), which are coprime, so the products are
    the divisors of T = h(k)*h(k+1) = k(k+1)/2, each once."""
    out = []
    for ys in lists:
        short, long = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
        ts = [x * y for x in short for y in long]
        ts.sort()  # len(short) ascending runs: a merge
        ts.append(_TOP)
        out.append(ts)
        xs = ys
    return out


def generate(spec: SequenceSpec) -> SequenceRun:
    """Generate the full run for ``spec``: generate_runs of spec alone.
    Deterministic: identical specs yield identical runs."""
    return next(generate_runs([spec]))


def fixed_points(run: SequenceRun) -> list[int]:
    """Indices n with a(n) = n, ascending."""
    return [n for n, a in enumerate(run.a, start=1) if a == n]
