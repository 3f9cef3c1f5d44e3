"""Constant-coefficient differential operators and sparse polynomials.

The expansion machinery is driven by four operator families built from a
moment table:

* ``psi_op(table, t)``      -- the basic operators, one per total order t,
* ``a_op(table, i, t)``     -- their i-fold products, built by the
  convolution recursion, which is also the paper's coefficient form
  summed per sorted key (so its two modes share one construction),
* ``psi_k_op(table, k, t)`` -- the summand-indexed operators,
  ``sum_i Q_{i-1}(k) A^i_t`` (the paper's recursion is a test oracle),
* ``t_op(table, n, t)``     -- their partial sums ``sum_i P_i(n) A^i_t``.

The last two, and the corrector operators of ``correctors``, are weighted
sums of the ``a_op`` family, built in one place, ``_weighted_a``.

Operators are keyed by sorted multiindex: they have constant coefficients,
so mixed partials commute, and moments are symmetric, so a coefficient
depends on an index only through its multiset.  The builders therefore
enumerate sorted multiindices (``exactmath.multisets``) and weight each by
the number of orderings it stands for (``exactmath.orderings``) instead of
summing over all ``dim^t`` ordered tuples; operator equality is a
dictionary comparison.  When the moment table is rational the whole
algebra stays in ``Fraction`` and the identities are exact.

Polynomials (keyed by exponent vector) and operators (keyed by sorted
multiindex) share one sparse-term base.  Coefficients are summed and zeros
dropped in one place, ``_summed``, and each coefficient is summed once:
only the constructor canonicalizes keys, and an operation, whose keys are
canonical already, hands its pairs straight to that sum.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from .exactmath import (
    MultiIndex,
    ZERO,
    multisets,
    orderings,
    p_value,
    prefix_splits,
    psi_scale,
    q_value,
    theta,
)
from .moments import MomentTable

__all__ = [
    "MultiPoly",
    "DiffOperator",
    "psi_op",
    "c_coeff",
    "a_op",
    "psi_k_op",
    "t_op",
]


def _summed(pairs, start: dict | None = None) -> dict:
    """Add each pair's coefficient onto its key, starting from a copy of
    ``start``, and drop zeros; a key's first coefficient is stored as is."""
    out = {} if start is None else dict(start)
    get = out.get
    for k, c in pairs:
        prev = get(k)
        out[k] = c if prev is None else prev + c
    return {k: c for k, c in out.items() if c != 0}


class _SparseTerms:
    """``sum_k c_k [k]`` over canonical keys in one dimension: the base of
    :class:`MultiPoly` and :class:`DiffOperator`.

    A subclass gives its key rule (``_key`` canonicalizes a key, ``_unit``
    is the constant term's key) and its product's key join ``_join``.
    Operands must share the class (else ``TypeError``) and the dimension
    (else ``ValueError``); a scalar operand is the constant term.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        """``terms``: a mapping or an iterable of ``(key, coefficient)`` pairs."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        key = self._key
        self.dim = dim
        self.terms = _summed((key(dim, k), c) for k, c in pairs)

    @classmethod
    def _wrap(cls, dim: int, terms: dict):
        """An instance over ``terms`` as given: canonical and zero-free."""
        out = object.__new__(cls)
        out.dim, out.terms = dim, terms
        return out

    @classmethod
    def zero(cls, dim: int):
        return cls._wrap(dim, {})

    @classmethod
    def constant(cls, dim: int, c):
        return cls(dim, {cls._unit(dim): c})

    def _operand(self, other):
        if not isinstance(other, _SparseTerms):
            return self.constant(self.dim, other)
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} and {other.dim}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return self._wrap(self.dim, _summed(other.terms.items(), self.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._operand(other)

    def __mul__(self, other):
        if not isinstance(other, _SparseTerms):
            pairs = ((k, c * other) for k, c in self.terms.items())
        else:
            other, join = self._operand(other), self._join
            pairs = ((join(k1, k2), c1 * c2)
                     for k1, c1 in self.terms.items() for k2, c2 in other.terms.items())
        return self._wrap(self.dim, _summed(pairs))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.dim, self.terms) == (other.dim, other.terms))

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms


def _power_table(x: np.ndarray, top: int) -> list:
    """``[x^0, x^1, ..., x^top]`` by repeated multiplication, ``x^p = x^{p-1} x``.

    The one power rule of polynomial evaluation, shared by
    ``MultiPoly.__call__`` and the grid evaluator of ``correctors``, so the
    two agree bit for bit.  numpy's ``x ** p`` calls C ``pow`` per element
    for ``p >= 3``, about 200 times the cost of a multiply.  The relative
    error of ``x^p`` is at most about ``(p - 1) eps / 2``, against
    ``eps / 2`` for ``pow``.
    """
    out = [np.ones_like(x)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


class MultiPoly(_SparseTerms):
    """Sparse multivariate polynomial, keyed by exponent vector.

    Coefficients may be ``Fraction`` (exact mode) or floats; differentiation
    is exact either way.  Evaluation broadcasts over numpy arrays.  The
    product adds exponent vectors.
    """

    __slots__ = ()

    @staticmethod
    def _key(dim: int, exponents) -> tuple:
        e = tuple(exponents)
        if len(e) != dim:
            raise ValueError(f"exponent vector {e} does not have length {dim}")
        return e

    @staticmethod
    def _unit(dim: int) -> tuple:
        return (0,) * dim

    @staticmethod
    def _join(e1: tuple, e2: tuple) -> tuple:
        return tuple(map(operator.add, e1, e2))

    @classmethod
    def variable(cls, dim: int, i: int) -> "MultiPoly":
        """The coordinate monomial x_i, with i in 1..dim."""
        e = [0] * dim
        e[i - 1] = 1
        return cls(dim, {tuple(e): Fraction(1)})

    # -- calculus ----------------------------------------------------------
    def diff(self, gamma: MultiIndex) -> "MultiPoly":
        """Exact partial derivative for a multiindex of coordinates."""
        terms = self.terms
        for i in gamma:
            if not 1 <= i <= self.dim:
                raise ValueError(f"coordinate {i} outside 1..{self.dim}")
            j = i - 1
            terms = _summed((e[:j] + (e[j] - 1,) + e[i:], c * e[j])
                            for e, c in terms.items() if e[j])
        return self._wrap(self.dim, terms)

    def __call__(self, x):
        """Evaluate at points: raw values for dim 1, else last axis = dim.

        The powers of each coordinate come from ``_power_table``: repeated
        multiplication, computed once per coordinate.
        """
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            pts = x[..., None]
        else:
            pts = x
        powers = [_power_table(pts[..., i], max((e[i] for e in self.terms), default=0))
                  for i in range(self.dim)]
        out = np.zeros(pts.shape[:-1])
        for e, c in self.terms.items():
            term = float(c) * np.ones_like(out)
            for i, p in enumerate(e):
                if p:
                    term = term * powers[i][p]
            out = out + term
        return out if out.shape else float(out)

    # -- misc ----------------------------------------------------------------
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coeff(self, exponents) -> object:
        return self.terms.get(tuple(exponents), 0)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly<0>"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{c}*{mono}")
        return "MultiPoly<" + " + ".join(bits) + ">"


class DiffOperator(_SparseTerms):
    """Formal finite sum ``sum_gamma c_gamma d_gamma`` with constant coefficients.

    Keys are sorted multiindices; composition concatenates keys and
    multiplies coefficients, so it is commutative here (the paper-side
    left-to-right product order is immaterial after canonicalization).
    ``compose`` is the bilinear product ``*``; the constant term is the
    identity operator.
    """

    __slots__ = ()

    @staticmethod
    def _key(dim: int, gamma) -> tuple:
        key = tuple(sorted(gamma))
        if key and not (1 <= key[0] and key[-1] <= dim):
            raise ValueError(f"multiindex {key} has a coordinate outside 1..{dim}")
        return key

    @staticmethod
    def _unit(dim: int) -> tuple:
        return ()

    @staticmethod
    def _join(k1: tuple, k2: tuple) -> tuple:
        return tuple(sorted(k1 + k2))

    compose = _SparseTerms.__mul__

    @classmethod
    def partial(cls, dim: int, gamma: MultiIndex, coeff=Fraction(1)) -> "DiffOperator":
        return cls(dim, {tuple(gamma): coeff})

    def apply(self, f: MultiPoly) -> MultiPoly:
        if self.dim != f.dim:
            raise ValueError("dimension mismatch")
        return sum((c * f.diff(gamma) for gamma, c in self.terms.items()),
                   MultiPoly.zero(f.dim))

    def items(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "DiffOperator<0>"
        bits = [f"{v}*d{list(k)}" for k, v in self.items()]
        return "DiffOperator<" + " + ".join(bits) + ">"


def psi_op(table: MomentTable, t: int) -> DiffOperator:
    """Basic operator of total order ``t``.

    ``sum_{p=3}^{t} (-1)^q / (2^q p! q!) sum_{|alpha|=p, |beta|=t-p}
    theta_beta Delta_alpha d_beta d_alpha`` with ``q = (t-p)/2``; the zero
    operator for ``t <= 2``, and zero whenever every ``Delta`` vanishes.
    The sums run over sorted ``alpha`` and sorted pair multisets, each
    weighted by its number of orderings.
    """

    def terms():
        N = table.dim
        for p in range(3, t + 1):
            if (t - p) % 2:
                continue
            q = (t - p) // 2
            scale = psi_scale(p, q)
            for alpha in multisets(N, p):
                da = table.delta(alpha)
                if da == 0:
                    continue
                coeff = scale * da * orderings(alpha)
                for pairs in multisets(N, q):
                    yield alpha + pairs + pairs, coeff * orderings(pairs)

    def build():
        return DiffOperator(table.dim, terms())

    return table.cache_get_or_build(("psi", t), build)


def c_coeff(table: MomentTable, i: int, gamma: MultiIndex):
    """Coefficient ``c^i_gamma`` of one ordering ``gamma`` (the paper's form).

    ``c^1`` sums ``Delta_alpha theta_beta`` over the prefix/suffix splits of
    ``gamma`` with the same scalar weights as ``psi_op``; higher orders
    convolve: ``c^{i+1}_gamma = sum c^1_alpha c^i_beta``.  Vanishes whenever
    ``|gamma| < 3i``.  The operator builders never call this; summed over
    the orderings of a sorted key it gives the coefficients of ``a_op``.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    gamma = tuple(gamma)
    if len(gamma) < 3 * i:
        return ZERO

    def build():
        acc = ZERO
        if i == 1:
            for alpha, beta in prefix_splits(gamma):
                if len(alpha) < 3 or len(beta) % 2 or not theta(beta):
                    continue
                da = table.delta(alpha)
                if da == 0:
                    continue
                acc += psi_scale(len(alpha), len(beta) // 2) * da
        else:
            for alpha, beta in prefix_splits(gamma):
                if len(alpha) < 3 or len(beta) < 3 * (i - 1):
                    continue
                c1 = c_coeff(table, 1, alpha)
                if c1 == 0:
                    continue
                ci = c_coeff(table, i - 1, beta)
                if ci == 0:
                    continue
                acc += c1 * ci
        return acc

    return table.cache_get_or_build(("c", i, gamma), build)


def a_op(table: MomentTable, i: int, t: int, mode: str = "direct") -> DiffOperator:
    """i-fold product operator of total order ``t``; zero when ``t < 3i``.

    The paper gives it two ways: the convolution recursion ``A^i_t =
    sum_p psi_p A^{i-1}_{t-p}`` (``mode="recursive"``) and the coefficient
    form ``sum_{|gamma|=t} c^i_gamma d_gamma`` (``mode="direct"``).  Keyed
    by sorted ``S``, the coefficient form reads ``sum_S C^i_S d_S`` with
    ``C^i_S`` the sum of ``c^i`` over the orderings of ``S``.  An ordering
    with a split point is one sub-multiset ``A`` of ``S`` with one ordering
    of ``A`` and one of the rest, so ``C^i_S = sum_A C^1_A C^{i-1}_{S-A}``
    with ``C^1`` the coefficients of ``psi_op``: exactly what composing
    ``psi_p`` with ``A^{i-1}_{t-p}`` adds up.  Both modes therefore share
    this one construction; the tests check it against the per-ordering
    sums of :func:`c_coeff`.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    if mode not in ("direct", "recursive"):
        raise ValueError("mode must be 'direct' or 'recursive'")
    if t < 3 * i:
        return DiffOperator.zero(table.dim)
    if i == 1:
        return psi_op(table, t)

    def build():
        acc = DiffOperator.zero(table.dim)
        for p in range(3, t - 3 * (i - 1) + 1):
            acc = acc + psi_op(table, p).compose(a_op(table, i - 1, t - p))
        return acc

    return table.cache_get_or_build(("a", i, t), build)


def _weighted_a(table: MomentTable, terms) -> DiffOperator:
    """``sum w A^i_t`` over ``(w, i, t)`` triples, in one coefficient sum;
    a zero weight skips its ``a_op`` altogether."""
    return DiffOperator._wrap(table.dim, _summed(
        (key, c * w)
        for w, i, t in terms if w
        for key, c in a_op(table, i, t).terms.items()
    ))


def psi_k_op(table: MomentTable, k: int, t: int) -> DiffOperator:
    """Summand-indexed operator ``psi^(k)_t = sum_i Q_{i-1}(k) A^i_t``.

    The paper defines it by the update ``psi^(1) = psi``, ``psi^(k)_t =
    psi^(k-1)_t + sum_p psi_p psi^(k-1)_{t-p}``; unrolled, that update
    picks ``i`` of the ``k`` summands in ``Q_{i-1}(k) = C(k-1, i-1)`` ways.
    The recursion is kept as a test oracle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _weighted_a(table, ((q_value(i - 1, k), i, t) for i in range(1, t // 3 + 1)))


def t_op(table: MomentTable, n: int, t: int, mode: str = "direct") -> DiffOperator:
    """Partial-sum operator ``T^n_t`` over summands ``1..n``.

    ``mode="sum"`` is the definition, ``sum_{k<=n} psi_k_op(k, t)``;
    ``mode="direct"`` is its polynomial collapse ``sum_i P_i(n) A^i_t``.
    Both agree exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("direct", "sum"):
        raise ValueError("mode must be 'direct' or 'sum'")
    if mode == "sum":
        acc = DiffOperator.zero(table.dim)
        for k in range(1, n + 1):
            acc = acc + psi_k_op(table, k, t)
        return acc
    return _weighted_a(table, ((p_value(i, n), i, t) for i in range(1, t // 3 + 1)))
