"""Hermite polynomials and the corrected Gaussian measures.

The order-m corrector ``K_m`` is the Hermite image (each ``d_alpha``
becomes ``H_alpha``) of one operator of the operator algebra,

    O_m = sum_{h=1}^{m} sum_{i=h}^{[(m+2h)/3]}  a_{i,h} A^i_{m+2h},

with ``a_{i,h}`` the coefficient of ``n^h`` in ``P_i(n)``.  ``A^i_t`` reads
no moment difference beyond order ``t - 3(i-1) <= m + 2``.  The corrected
measure approximating the law of ``S_n`` at order r is

    Gamma_{n,r}(dx) = gamma(x) (1 + sum_{m=1}^{[r/3]} n^{-m/2} K_m(x)) dx,

a signed density (no clipping; negativity is a diagnostic, not an error).
For ``r = 2`` there are no correctors and ``Gamma_{n,2}`` is the standard
Gaussian itself; the same happens whenever every moment difference up to
order r vanishes.

The Hermite image has one step, ``_hermite_image``, which ``hermite_1d``,
``hermite_multi``, ``h_poly`` and ``k_poly`` all go through: each
``H_alpha`` expands as a product over the axes of the explicit coefficients
of ``H_k`` (Abramowitz & Stegun 22.3.11), read from one cached table.

Points and tensor grids take one evaluation path: the Gaussian, every
``K_m`` and their weighted sum are computed from coordinate arrays that
broadcast together (``opalg._coordinates`` of points, or the open mesh
``np.ix_`` of a grid's axis), so a grid equals ``edgeworth_density`` at its
points bit for bit in every dimension.

The correctors are always built from this generic machinery; the classical
1-D forms in terms of ``ell_3, ell_4, ell_5`` serve as test fixtures only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactmath import MultiIndex, a_coeffs
from .moments import (Distribution, MomentTable, _coordinate_counts,
                      _gaussian_product_moment)
from .numerics import DEFAULT_HALFWIDTH, GridDensity, _axis, default_grid_points
from .opalg import DiffOperator, MultiPoly, _coordinates, _summed, _weighted_a, a_op

__all__ = [
    "hermite_1d",
    "hermite_multi",
    "h_poly",
    "k_poly",
    "EdgeworthModel",
    "edgeworth_density",
    "edgeworth_grid",
    "gaussian_expect_poly",
    "gaussian_pdf",
]


@lru_cache(maxsize=None)
def _hermite_coeffs(k: int) -> tuple:
    """``H_k`` as ``(power, coefficient)`` pairs by decreasing power: the
    explicit sum ``sum_j (-1)^j k! / (j! (k-2j)! 2^j) x^{k-2j}``."""
    f = math.factorial
    return tuple((k - 2 * j, Fraction((-1) ** j * f(k) // (f(j) * f(k - 2 * j) * 2**j)))
                 for j in range(k // 2 + 1))


def _hermite_image(op: DiffOperator) -> MultiPoly:
    """``sum_S c_S H_S`` for ``op = sum_S c_S d_S``: each ``d_S`` becomes ``H_S``.

    ``H_S = prod_i H_{beta_i}(x_i)``, with ``beta_i`` the coordinate counts
    of ``S``, expands axis after axis, each axis by decreasing power.  The
    terms come in that order, which the grid and point evaluators sum in.
    """
    return MultiPoly._wrap(op.dim, _summed(
        (tuple(p for p, _ in combo), c * math.prod(h for _, h in combo))
        for key, c in op.terms.items()
        for combo in itertools.product(*map(_hermite_coeffs, _coordinate_counts(key, op.dim)))
    ))


def hermite_1d(m: int) -> MultiPoly:
    """Probabilists' Hermite polynomial ``H_m`` with exact coefficients."""
    if m < 0:
        raise ValueError("order must be >= 0")
    return _hermite_image(DiffOperator.partial(1, (1,) * m))


def hermite_multi(alpha: MultiIndex, dim: int) -> MultiPoly:
    """``H_alpha(x) = prod_i H_{beta_i}(x_i)`` with ``beta_i`` the coordinate counts."""
    return _hermite_image(DiffOperator.partial(dim, alpha))


def h_poly(table: MomentTable, i: int, t: int) -> MultiPoly:
    """``H^i_t = sum_{|alpha|=t} c^i_alpha H_alpha``; zero when ``t < 3i``.

    ``H_alpha`` depends on ``alpha`` only through its multiset, so this is
    the Hermite image of ``a_op(table, i, t)``: each sorted key ``S``
    contributes ``C^i_S H_S``, with ``C^i_S`` the sum of ``c^i`` over the
    orderings of ``S``.
    """
    return _hermite_image(a_op(table, i, t))


def _corrector_terms(m: int):
    """``(a_{i,h}, i, m + 2h)`` for each term of ``O_m``, by increasing order."""
    for h in range(1, m + 1):
        t = m + 2 * h
        for i in range(h, t // 3 + 1):
            yield a_coeffs(i)[h], i, t


def k_poly(table: MomentTable, m: int) -> MultiPoly:
    """Order-m corrector polynomial, the Hermite image of ``O_m``; degree <= ``3m``.

    Requires the table to carry moment differences up to order ``m + 2``.
    Identically zero when every delta up to that order vanishes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m + 2 > table.max_order:
        raise ValueError(f"corrector order {m} needs table order >= {m + 2}")
    return _hermite_image(_weighted_a(table, _corrector_terms(m)))


def gaussian_pdf(x, dim: int = 1):
    """Standard normal density on R^N, vectorized (last axis = coordinates)."""
    return _gaussian(_coordinates(np.asarray(x, dtype=float), dim))


def _gaussian(coords) -> np.ndarray:
    """The product of the 1-D standard densities over coordinate arrays
    that broadcast together (see ``MultiPoly._on``).

    Past ``|x| ~ 1.3e154`` the square overflows to ``inf``, and
    ``exp(-inf) = 0`` is the exact double, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return functools.reduce(operator.mul, [np.exp(-0.5 * (xi * xi)) / (2 * math.pi) ** 0.5
                                               for xi in coords])


def gaussian_expect_poly(poly: MultiPoly):
    """Exact ``E(p(G))`` through coordinatewise double factorials."""
    return sum(c * _gaussian_product_moment(e) for e, c in poly.terms.items())


#: Values per block in which ``Gamma_{n,r}`` scales a corrector: 2^14
#: doubles, 128 KiB, and no scratch array of the values' size.
TERM_BLOCK = 2**14


@dataclass
class EdgeworthModel:
    """A standardized law together with its correctors up to order r.

    The correctors do not depend on ``n``, so the model keeps what the
    grid path derives from them alone: its nonzero correctors and their
    exact ``E K_m(G)^2`` of the tail bound, each computed on first read, and
    the Gaussian and ``K_m`` values of the last grid layout
    ``(points, halfwidth)`` that ``edgeworth_grid`` was asked for.
    """

    dist: Distribution
    r: int
    table: MomentTable
    k_polys: list
    _grid_terms: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    @classmethod
    def build(cls, dist: Distribution, r: int) -> "EdgeworthModel":
        if r < 2:
            raise ValueError("expansion order must be >= 2")
        table = MomentTable.from_distribution(dist, max(r, 3))
        ks = [k_poly(table, m) for m in range(1, r // 3 + 1)]
        return cls(dist, r, table, ks)

    @property
    def dim(self) -> int:
        return self.table.dim

    @functools.cached_property
    def nonzero_k_polys(self) -> list:
        """``(m, K_m)`` for each corrector that is not the zero polynomial."""
        return [(m, km) for m, km in enumerate(self.k_polys, start=1) if not km.is_zero()]

    @functools.cached_property
    def k_second_moments(self) -> list:
        """``(m, E K_m(G)^2)`` for each nonzero corrector, exact, as a float."""
        return [(m, float(gaussian_expect_poly(km * km))) for m, km in self.nonzero_k_polys]


def _terms(model: EdgeworthModel, coords) -> tuple:
    """``gamma`` and ``(m, K_m)`` for each nonzero corrector on coordinate
    arrays that broadcast together: the coordinates of points or the open
    mesh of a tensor grid."""
    return _gaussian(coords), [(m, km._on(coords)) for m, km in model.nonzero_k_polys]


def _weighted(gauss: np.ndarray, ks, n: int) -> np.ndarray:
    """``(1 + sum_m n^{-m/2} K_m) gamma``, the terms added in order of m, in
    one fresh array.  Each ``K_m`` is scaled ``TERM_BLOCK`` values at a
    time, and ``gauss`` and the ``K_m`` are only read."""
    values = np.ones(gauss.shape)
    flat = values.reshape(-1)  # a view: ``values`` is C-ordered
    scaled = np.empty(min(flat.size, TERM_BLOCK))
    for m, km in ks:
        w, k = n ** (-m / 2.0), km.reshape(-1)
        for lo in range(0, flat.size, TERM_BLOCK):
            block = flat[lo:lo + TERM_BLOCK]
            block += np.multiply(k[lo:lo + TERM_BLOCK], w, out=scaled[:block.size])
    values *= gauss
    return values


def edgeworth_density(model: EdgeworthModel, n: int, x):
    """Signed density of ``Gamma_{n,r}`` at point(s) ``x``.

    ``gamma(x) (1 + sum_m n^{-m/2} K_m(x))``; may be negative.  A single
    point gives a scalar.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = _coordinates(np.asarray(x, dtype=float), model.dim)
    values = _weighted(*_terms(model, coords), n)
    return values if values.shape else values[()]


def _corrector_tail_bound(model: EdgeworthModel, n: int, L: float) -> float:
    # integral of |density| beyond the window: Gaussian tail plus a
    # Cauchy-Schwarz bound for each polynomial corrector term
    gtail = min(1.0, model.dim * math.erfc(L / math.sqrt(2)))
    bound = gtail
    for m, second in model.k_second_moments:
        bound += n ** (-m / 2.0) * math.sqrt(max(second, 0.0) * gtail)
    return bound


def edgeworth_grid(model: EdgeworthModel, n: int, points: int | None = None,
                   halfwidth: float = DEFAULT_HALFWIDTH) -> GridDensity:
    """``Gamma_{n,r}`` evaluated on the same grid layout as ``law_of_sn``.

    ``points`` per axis defaults to ``default_grid_points`` of the model's
    dimension.  The Gaussian and each corrector are evaluated on the open
    mesh ``np.ix_`` of the axis, with no grid of points, through the steps
    of ``edgeworth_density``, so the grid equals its pointwise values bit
    for bit in every dimension.  Neither depends on ``n``: the model keeps
    them for the last ``(points, halfwidth)``, so a call for another ``n``
    only weights and adds them.  Raises :class:`AliasingDetected` when the
    grid, of mass 1 as ``E K_m(G) = 0``, fails its signed mass check.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if points is None:
        points = default_grid_points(model.dim)
    if model._grid_terms is None or model._grid_terms[0] != (points, halfwidth):
        coords = np.ix_(*[_axis(halfwidth, points)] * model.dim)
        model._grid_terms = ((points, halfwidth), *_terms(model, coords))
    values = _weighted(*model._grid_terms[1:], n)
    g = GridDensity(
        halfwidth, values,
        tail_mass_bound=_corrector_tail_bound(model, n, halfwidth),
        label=f"Gamma_{n},r={model.r}[{model.dist.label}]",
    )
    g.check_mass(signed=True)
    return g
