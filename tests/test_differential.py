"""The engine against an independent greedy generator built on
sympy.divisors, at a depth past the reach of the naive oracle."""

import pytest

from trifix.engine import SequenceSpec, generate

sympy = pytest.importorskip("sympy")

N = 20_000


def sympy_greedy(p: int, count: int) -> tuple[int, ...]:
    """A(p) by definition: a(1) = 1, then the smallest unused divisor of
    q(n) = p*(n-1)*n/2."""
    values = [1]
    used = {1}
    for n in range(2, count + 1):
        a = next(d for d in sympy.divisors(p * (n - 1) * n // 2) if d not in used)
        values.append(a)
        used.add(a)
    return tuple(values)


@pytest.mark.parametrize("p", [3, 199])
def test_engine_matches_sympy_greedy(p):
    assert tuple(generate(SequenceSpec.standard(p, N)).a) == sympy_greedy(p, N)
