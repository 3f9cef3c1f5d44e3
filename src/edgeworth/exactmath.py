"""Exact rational combinatorics behind the expansion coefficients.

Everything here is computed with :class:`fractions.Fraction`, no floating
point.  The module provides

* Bernoulli numbers in the "second" convention (``B_1 = +1/2``), which is
  the convention under which the Faulhaber power-sum expansion holds,
* the power sums ``S_l(L) = 1^l + ... + L^l`` in closed form,
* the table ``b[l][q]`` expressing ``sum_{k<n} k^l`` as a polynomial in n,
* the table ``a[i][p]`` giving the polynomials ``P_i(n)`` that weight the
  i-fold operator products in the n-summand expansion (``P_1(n) = n``,
  ``P_{i+1}(n) = sum_{k=i}^{n-1} P_i(k)``),
* the iterated counting polynomials ``Q_l(k)`` (``Q_0 = 1``,
  ``Q_l(k) = sum_{j=l+1}^k Q_{l-1}(j-1)``),
* the pairing indicator ``theta`` on multiindices and the prefix/suffix
  split enumeration behind the per-ordering coefficients ``c^i_gamma``,
* the one multiindex enumeration of the package: ``multisets`` lists the
  sorted multiindices of a length and ``orderings`` counts the ordered
  tuples each one stands for.  Moments are symmetric, so every operator is
  keyed by sorted multiindex and weighted by that multinomial count.

Tables are memoized lazily with ``functools.lru_cache``.
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
def bernoulli(m: int) -> Fraction:
    """Bernoulli number ``B_m``, second convention (``B_1 = +1/2``).

    Uses the recurrence ``sum_{j<=l} C(l+1, j) B_j = l + 1`` obtained by
    evaluating the power-sum expansion at ``L = 1``.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m == 0:
        return ONE
    acc = Fraction(m + 1)
    for j in range(m):
        acc -= comb(m + 1, j) * bernoulli(j)
    return acc / (m + 1)


def power_sum(l: int, L: int) -> Fraction:
    """``S_l(L) = sum_{k=1}^{L} k^l`` via the Bernoulli closed form.

    Exact for all ``l, L >= 0``; ``S_l(0) = 0``.  Tests cross-check this
    against direct summation.
    """
    if l < 0 or L < 0:
        raise ValueError("power_sum arguments must be >= 0")
    if L == 0:
        return ZERO
    acc = ZERO
    for p in range(1, l + 2):
        acc += comb(l + 1, p) * bernoulli(l + 1 - p) * Fraction(L) ** p
    return acc / (l + 1)


@lru_cache(maxsize=None)
def b_coeffs(l: int) -> tuple[Fraction, ...]:
    """Coefficients ``(b_{l,0}, ..., b_{l,l+1})`` of ``sum_{k=1}^{n-1} k^l``.

    For every ``n >= 1``: ``sum_{k<n} k^l = sum_q b_{l,q} n^q``.  Row ``l``
    has exactly ``l + 2`` entries.
    """
    if l < 0:
        raise ValueError("row index must be >= 0")
    row = []
    for q in range(l + 2):
        acc = ZERO
        for p in range(max(q, 1), l + 2):
            acc += (
                comb(l + 1, p)
                * bernoulli(l + 1 - p)
                * comb(p, q)
                * (-1) ** (p - q)
            )
        row.append(acc / (l + 1))
    return tuple(row)


@lru_cache(maxsize=None)
def a_coeffs(i: int) -> tuple[Fraction, ...]:
    """Coefficients ``(a_{i,0}, ..., a_{i,i})`` of the polynomial ``P_i``.

    ``P_1(n) = n`` and ``P_{i+1}(n) = sum_{k=i}^{n-1} P_i(k)``; the
    recursion below rewrites the summation through the ``b`` table:

    ``a_{i+1,0} = sum_l a_{i,l} b_{l,0} - sum_l a_{i,l} S_l(i-1)``,
    ``a_{i+1,p} = sum_{l=p-1}^{i} a_{i,l} b_{l,p}`` for ``p >= 1``.
    """
    if i < 1:
        raise ValueError("row index must be >= 1")
    if i == 1:
        return (ZERO, ONE)
    prev = a_coeffs(i - 1)
    j = i - 1  # build row i from row j
    row = []
    const = ZERO
    for l in range(j + 1):
        const += prev[l] * (b_coeffs(l)[0] - power_sum(l, j - 1))
    row.append(const)
    for p in range(1, i + 1):
        acc = ZERO
        for l in range(max(p - 1, 0), j + 1):
            bl = b_coeffs(l)
            if p < len(bl):
                acc += prev[l] * bl[p]
        row.append(acc)
    return tuple(row)


def p_value(i: int, n: int) -> Fraction:
    """``P_i(n) = sum_p a_{i,p} n^p``; vanishes for integer ``0 <= n < i``."""
    row = a_coeffs(i)
    acc = ZERO
    for p, c in enumerate(row):
        acc += c * Fraction(n) ** p
    return acc


@lru_cache(maxsize=None)
def q_value(l: int, k: int) -> Fraction:
    """``Q_l(k)``: ``Q_0 = 1`` and ``Q_l(k) = sum_{j=l+1}^{k} Q_{l-1}(j-1)``.

    Zero for ``k <= l``, strictly positive for ``k >= l + 1``.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if l == 0:
        return ONE
    acc = ZERO
    for j in range(l + 1, k + 1):
        acc += q_value(l - 1, j - 1)
    return acc


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

