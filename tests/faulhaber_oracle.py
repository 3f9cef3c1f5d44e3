"""The Faulhaber route to the a table, kept as a test oracle.

The library computes ``P_i(n) = C(n, i)`` and its coefficient rows in
closed form.  The paper derives the rows the long way, and the functions
here keep that derivation:

* Bernoulli numbers in the "second" convention (``B_1 = +1/2``), which is
  the convention under which the Faulhaber power-sum expansion holds,
* the power sums ``S_l(L) = 1^l + ... + L^l`` in closed form,
* the table ``b[l][q]`` expressing ``sum_{k<n} k^l`` as a polynomial in n,
* the recursion that builds row ``i + 1`` of the a table from row ``i``
  through the b table and the power sums.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

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
def a_coeffs_faulhaber(i: int) -> tuple[Fraction, ...]:
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
    prev = a_coeffs_faulhaber(i - 1)
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
