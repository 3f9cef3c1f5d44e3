"""The rational fixture's moment differences as one eager table, kept as a test oracle.

The library's ``fixture_table`` computes each value in closed form when it
is first read.  The function here enumerates every sorted multiindex of
orders 3 to ``max_order`` up front, as the fixture used to.
"""

from fractions import Fraction

from edgeworth.exactmath import multisets


def fixture_deltas(dim: int, max_order: int = 9) -> dict:
    """Deterministic rational moment differences keyed by sorted multiindex."""
    deltas = {}
    for t in range(3, max_order + 1):
        for alpha in multisets(dim, t):
            num = (-1) ** t * (1 + sum(alpha) + t)
            den = 2 + (t + sum(alpha)) % 5
            deltas[alpha] = Fraction(num, den)
    return deltas
