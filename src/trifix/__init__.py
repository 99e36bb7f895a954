"""trifix: greedy smallest-unused-divisor sequences over multiples of
triangular numbers, with prime detection via fixed points."""

__version__ = "0.1.0"

from .engine import (
    NO_ZERO,
    SHIFTED,
    STANDARD,
    SequenceRun,
    SequenceSpec,
    fixed_points,
    generate,
)
from .numtheory import is_prime, q_value

__all__ = [
    "NO_ZERO",
    "SHIFTED",
    "STANDARD",
    "SequenceRun",
    "SequenceSpec",
    "fixed_points",
    "generate",
    "is_prime",
    "q_value",
]
