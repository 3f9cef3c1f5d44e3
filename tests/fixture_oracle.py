"""Moment-difference tables and coefficient comparison, kept as test oracles.

The library's ``fixture_table`` computes each value in closed form when it
is first read.  ``fixture_deltas`` enumerates every sorted multiindex of
orders 3 to ``max_order`` up front, as the fixture used to.
"""

from fractions import Fraction

from edgeworth.exactmath import ZERO, multisets
from edgeworth.moments import MomentTable


def fixture_deltas(dim: int, max_order: int = 9) -> dict:
    """Deterministic rational moment differences keyed by sorted multiindex."""
    deltas = {}
    for t in range(3, max_order + 1):
        for alpha in multisets(dim, t):
            num = (-1) ** t * (1 + sum(alpha) + t)
            den = 2 + (t + sum(alpha)) % 5
            deltas[alpha] = Fraction(num, den)
    return deltas


def table_from_deltas(dim: int, max_order: int, deltas: dict) -> MomentTable:
    """A table reading exact moment differences from ``deltas``; absent keys are 0."""
    if any(len(k) <= 2 for k in deltas):
        raise ValueError("delta values for |alpha| <= 2 must be zero")
    deltas = {tuple(sorted(k)): v for k, v in deltas.items()}
    return MomentTable(dim, max_order, lambda key: deltas.get(key, ZERO))


def max_coeff_diff(a, b) -> float:
    """Largest coefficient of ``a - b`` in absolute value, as a float."""
    return max((abs(float(c)) for c in (a - b).terms.values()), default=0.0)
