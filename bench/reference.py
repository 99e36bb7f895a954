#!/usr/bin/env python3
"""A fixed reference computation that measures the speed of the host.

The benchmark runs it as a child process before and after every timed CLI
invocation and divides the invocation's wall time by the mean of the two, so a
host that runs every program slower for a while (other tenants on a shared
machine) moves both and leaves the ratio unchanged.  It uses no trifix code
and must never change: a change here moves every normalized metric.

It does the kind of work trifix does, at a fixed size: a smallest-prime-
factor sieve, factorizations of p*(n-1)*n/2 merged from those of n-1 and n,
sorted divisor lists, text formatting, parsing and hashing.  It prints a
digest of its results, which the benchmark checks against
bench/expected.json.

    python3 bench/reference.py
"""

from __future__ import annotations

import hashlib
from array import array

LIMIT = 9_000
P = 199


def sieve(limit: int) -> array:
    spf = array("i", bytes(4 * (limit + 1)))
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            for j in range(i * i, limit + 1, i):
                if spf[j] == 0:
                    spf[j] = i
    return spf


def factor(m: int, spf: array, counts: dict[int, int]) -> None:
    while m > 1:
        p = spf[m]
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1


def divisors(counts: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in counts.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def main() -> None:
    spf = sieve(LIMIT)
    lines = []
    for n in range(2, LIMIT + 1):
        counts = {P: 1}
        factor(n - 1, spf, counts)
        factor(n, spf, counts)
        counts[2] -= 1
        divs = divisors(counts)
        lines.append(f"{n} {divs[len(divs) // 2]} {len(divs)}")
    text = "\n".join(lines)
    total = sum(int(line.split()[2]) for line in text.splitlines())
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"reference {total} {digest}")


if __name__ == "__main__":
    main()
