"""Exact rational combinatorics behind the expansion coefficients.

Everything here is computed with :class:`fractions.Fraction`, no floating
point.  The module provides

* the counting polynomials in closed form: ``P_i(n) = C(n, i)`` weights
  the i-fold operator products in the n-summand expansion (``P_1(n) = n``,
  ``P_{i+1}(n) = sum_{k=i}^{n-1} P_i(k)`` is the hockey-stick identity) and
  ``Q_l(k) = C(k-1, l)`` weights them per summand (``Q_0 = 1``,
  ``Q_l(k) = sum_{j=l+1}^k Q_{l-1}(j-1)``),
* the table ``a[i][p]`` of coefficients of ``P_i`` in powers of n, which
  is row i of the signed Stirling numbers of the first kind over ``i!``,
* the pairing indicator ``theta`` on multiindices and the prefix/suffix
  split enumeration behind the per-ordering coefficients ``c^i_gamma``,
* the one multiindex enumeration of the package: ``multisets`` lists the
  sorted multiindices of a length and ``orderings`` counts the ordered
  tuples each one stands for.  Moments are symmetric, so every operator is
  keyed by sorted multiindex and weighted by that multinomial count.

The a table is memoized lazily with ``functools.lru_cache``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod

#: A multiindex is an ordered tuple of coordinate indices in {1..N}.
#: The empty tuple is the null multiindex.
MultiIndex = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


@lru_cache(maxsize=None)
def a_coeffs(i: int) -> tuple[Fraction, ...]:
    """Coefficients ``(a_{i,0}, ..., a_{i,i})`` of ``P_i(n) = C(n, i)``.

    ``C(n, i) = C(n, i-1) (n - i + 1) / i``, so row ``i`` is row ``i - 1``
    multiplied by ``(n - i + 1) / i``; ``a_{i,p} = s(i, p) / i!`` with
    ``s`` the signed Stirling numbers of the first kind.
    """
    if i < 1:
        raise ValueError("row index must be >= 1")
    if i == 1:
        return (ZERO, ONE)
    prev = a_coeffs(i - 1) + (ZERO,)
    return tuple(
        ((prev[p - 1] if p else ZERO) + (1 - i) * prev[p]) / i for p in range(i + 1)
    )


def p_value(i: int, n: int) -> Fraction:
    """``P_i(n) = C(n, i)`` for integer ``n >= 0``; vanishes for ``n < i``."""
    if i < 1:
        raise ValueError("row index must be >= 1")
    return Fraction(comb(n, i))


def q_value(l: int, k: int) -> Fraction:
    """``Q_l(k) = C(k - 1, l)``: zero for ``k <= l``, positive for ``k > l``."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(comb(k - 1, l))


def theta(beta: MultiIndex) -> int:
    """Pairing indicator: 1 iff ``beta`` is a sequence of matched pairs.

    ``theta(()) = 1``; otherwise requires even length and
    ``beta[2j] == beta[2j+1]`` for every pair.
    """
    if len(beta) % 2:
        return 0
    for j in range(0, len(beta), 2):
        if beta[j] != beta[j + 1]:
            return 0
    return 1


def prefix_splits(gamma: MultiIndex) -> list[tuple[MultiIndex, MultiIndex]]:
    """All ordered pairs ``(alpha, beta)`` with ``alpha + beta == gamma``.

    There are ``len(gamma) + 1`` of them, including ``((), gamma)`` and
    ``(gamma, ())``.
    """
    g = tuple(gamma)
    return [(g[:j], g[j:]) for j in range(len(g) + 1)]


def psi_scale(p: int, q: int) -> Fraction:
    """The scalar ``(-1)^q / (2^q p! q!)`` shared by the operator sums."""
    return Fraction((-1) ** q, (2**q) * factorial(p) * factorial(q))


def multisets(dim: int, length: int):
    """Sorted multiindices of ``length`` over the coordinates ``1..dim``.

    Each multiset of coordinates appears once, as its sorted tuple, in
    lexicographic order; there are ``C(length + dim - 1, length)`` of them.
    """
    return combinations_with_replacement(range(1, dim + 1), length)


def orderings(key: MultiIndex) -> int:
    """Number of distinct ordered tuples with the multiset of ``key``.

    The multinomial ``|key|! / prod_c m_c!`` with ``m_c`` the count of
    coordinate ``c``; ``orderings(()) == 1``.
    """
    return factorial(len(key)) // prod(factorial(m) for m in Counter(key).values())

