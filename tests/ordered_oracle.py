"""The ordered ``dim^t`` assembly of the operator algebra, kept as a test oracle.

The library keys every operator by sorted multiindex and weights each key by
its number of orderings.  The functions here take the long way round: they
sum over all ``dim^t`` ordered index tuples, exactly as the paper writes the
sums, and only group the terms by sorted key at the end.
"""

from itertools import product

from edgeworth.correctors import hermite_multi
from edgeworth.exactmath import psi_scale
from edgeworth.opalg import DiffOperator, MultiPoly, c_coeff


def ordered_indices(dim, length):
    return product(range(1, dim + 1), repeat=length)


def psi_ordered(table, t):
    """``psi_op`` summed over every ordered ``alpha`` and ordered pair tuple."""
    terms = {}
    for p in range(3, t + 1):
        if (t - p) % 2:
            continue
        q = (t - p) // 2
        scale = psi_scale(p, q)
        for alpha in ordered_indices(table.dim, p):
            da = table.delta(alpha)
            if da == 0:
                continue
            for pair_coords in ordered_indices(table.dim, q):
                beta = tuple(c for c in pair_coords for _ in (0, 1))
                key = tuple(sorted(beta + alpha))
                terms[key] = terms.get(key, 0) + scale * da
    return DiffOperator(table.dim, terms)


def c_by_key(table, i, t):
    """``sum_{|gamma|=t} c^i_gamma``, grouped by the sorted key of ``gamma``."""
    by_key = {}
    if t < 3 * i:
        return by_key
    for gamma in ordered_indices(table.dim, t):
        c = c_coeff(table, i, gamma)
        if c == 0:
            continue
        key = tuple(sorted(gamma))
        by_key[key] = by_key.get(key, 0) + c
    return by_key


def a_ordered(table, i, t):
    """``A^i_t = sum_{|gamma|=t} c^i_gamma d_gamma`` over ordered ``gamma``."""
    return DiffOperator(table.dim, c_by_key(table, i, t))


def h_ordered(table, i, t):
    """``H^i_t = sum_{|alpha|=t} c^i_alpha H_alpha`` over ordered ``alpha``."""
    out = MultiPoly.zero(table.dim)
    for key, c in c_by_key(table, i, t).items():
        out = out + c * hermite_multi(key, table.dim)
    return out
