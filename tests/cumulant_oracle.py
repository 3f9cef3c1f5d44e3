"""The classical Edgeworth polynomial from cumulants, kept as a test oracle for K_m.

It shares none of the paper's combinatorics (no Psi, no A^i_t, no a_{i,h}).
The moment series ``M(u) = sum_e E(F^e) u^e / e!`` of the standardized law
(``delta`` plus the Gaussian moment) gives the formal cumulant series
``log M(u)``; let ``C_j(u)`` be its degree-``j`` part.  The characteristic
function of ``S_n`` is ``exp(-|t|^2/2 + sum_{j>=3} eps^(j-2) C_j(it))`` with
``eps = n^(-1/2)``, so ``K_m`` is the coefficient of ``eps^m`` in
``exp(sum_{j>=3} eps^(j-2) C_j(u))`` with each ``u^e`` mapped to ``H_e``
(``(it)^e`` times the Gaussian transform is ``H_e`` times the density).
See Bhattacharya & Rao, *Normal Approximation and Asymptotic Expansions*,
ch. 2, and McCullagh, *Tensor Methods in Statistics*, 1987, ch. 5.

Everything is exact when the table is: only ``Fraction`` arithmetic on
``MultiPoly`` coefficients.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

from edgeworth.correctors import hermite_multi
from edgeworth.moments import gaussian_moment
from edgeworth.opalg import MultiPoly


def _coords(e):
    """The sorted coordinate multiindex of an exponent vector."""
    return tuple(i for i, c in enumerate(e, start=1) for _ in range(c))


def _truncate(poly, degree):
    return MultiPoly(poly.dim, {e: c for e, c in poly.terms.items() if sum(e) <= degree})


def _degree_part(poly, degree):
    return MultiPoly(poly.dim, {e: c for e, c in poly.terms.items() if sum(e) == degree})


def cumulant_series(table, degree):
    """``log M(u)`` truncated at total degree ``degree``, from the table's moments."""
    dim = table.dim
    excess = MultiPoly(dim, {  # M(u) - 1
        e: (table.delta(_coords(e)) + gaussian_moment(_coords(e), dim))
        / prod(factorial(c) for c in e)
        for e in product(range(degree + 1), repeat=dim) if 1 <= sum(e) <= degree})
    out, power = MultiPoly.zero(dim), MultiPoly.constant(dim, Fraction(1))
    for k in range(1, degree + 1):  # log(1 + x) = sum_k (-1)^(k+1) x^k / k
        power = _truncate(power * excess, degree)
        out = out + Fraction((-1) ** (k + 1), k) * power
    return out


def k_poly_from_cumulants(table, m):
    """``K_m``: the coefficient of ``eps^m`` in ``exp(sum_s eps^s C_{s+2})``, in Hermite form."""
    logm = cumulant_series(table, m + 2)
    a = [None] + [_degree_part(logm, s + 2) for s in range(1, m + 1)]
    # E = exp(A) has E' = A' E: E_k = (1/k) sum_{s=1}^{k} s A_s E_{k-s}
    e = [MultiPoly.constant(table.dim, Fraction(1))]
    for k in range(1, m + 1):
        e.append(Fraction(1, k) * sum((s * a[s] * e[k - s] for s in range(1, k + 1)),
                                      MultiPoly.zero(table.dim)))
    return sum((c * hermite_multi(_coords(x), table.dim) for x, c in e[m].terms.items()),
               MultiPoly.zero(table.dim))
