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

The correctors are always built from this generic machinery; the classical
1-D forms in terms of ``ell_3, ell_4, ell_5`` serve as test fixtures only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exactmath import MultiIndex, a_coeffs
from .moments import (Distribution, MomentTable, _coordinate_counts,
                      _gaussian_product_moment)
from .numerics import DEFAULT_HALFWIDTH, GridDensity, _axis, default_grid_points
from .opalg import DiffOperator, MultiPoly, _power_table, _weighted_a, a_op

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
def hermite_1d(m: int) -> MultiPoly:
    """Probabilists' Hermite polynomial ``H_m`` with exact coefficients.

    Three-term recurrence ``H_{m+1} = x H_m - m H_{m-1}`` seeded by
    ``H_0 = 1``, ``H_1 = x``; equivalent to the Rodrigues form.
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    if m == 0:
        return MultiPoly.constant(1, Fraction(1))
    if m == 1:
        return MultiPoly.variable(1, 1)
    x = MultiPoly.variable(1, 1)
    return x * hermite_1d(m - 1) - (m - 1) * hermite_1d(m - 2)


def _embed_axis(poly1d: MultiPoly, dim: int, axis: int) -> MultiPoly:
    terms = {}
    for e, c in poly1d.terms.items():
        key = [0] * dim
        key[axis] = e[0]
        terms[tuple(key)] = c
    return MultiPoly(dim, terms)


def hermite_multi(alpha: MultiIndex, dim: int) -> MultiPoly:
    """``H_alpha(x) = prod_i H_{beta_i}(x_i)`` with ``beta_i`` the coordinate counts."""
    out = MultiPoly.constant(dim, Fraction(1))
    for i, c in enumerate(_coordinate_counts(alpha, dim)):
        if c:
            out = out * _embed_axis(hermite_1d(c), dim, i)
    return out


def _hermite_image(op: DiffOperator) -> MultiPoly:
    """``sum_S c_S H_S`` for ``op = sum_S c_S d_S``: each ``d_S`` becomes ``H_S``."""
    return MultiPoly(op.dim, (
        (e, c * h)
        for key, c in op.terms.items()
        for e, h in hermite_multi(key, op.dim).terms.items()
    ))


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
    """Standard normal density on R^N, vectorized (last axis = coordinates).

    Past ``|x| ~ 1.3e154`` the square overflows to ``inf``, and
    ``exp(-inf) = 0`` is the exact double, so the overflow is not reported.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        sq = x * x if dim == 1 else np.sum(x * x, axis=-1)
        return np.exp(-0.5 * sq) / (2 * math.pi) ** (dim / 2)


def gaussian_expect_poly(poly: MultiPoly):
    """Exact ``E(p(G))`` through coordinatewise double factorials."""
    return sum(c * _gaussian_product_moment(e) for e, c in poly.terms.items())


#: Points per block in which ``edgeworth_grid`` scales a corrector's grid
#: values: 2^14 doubles, 128 KiB, and no scratch array of grid size.
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


def edgeworth_density(model: EdgeworthModel, n: int, x):
    """Signed density of ``Gamma_{n,r}`` at point(s) ``x``.

    ``gamma(x) (1 + sum_m n^{-m/2} K_m(x))``; may be negative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(x, dtype=float)
    factor = np.ones(x.shape if model.dim == 1 else x.shape[:-1])
    for m, km in model.nonzero_k_polys:
        factor = factor + n ** (-m / 2.0) * km(x)
    return gaussian_pdf(x, model.dim) * factor


def _corrector_tail_bound(model: EdgeworthModel, n: int, L: float) -> float:
    # integral of |density| beyond the window: Gaussian tail plus a
    # Cauchy-Schwarz bound for each polynomial corrector term
    gtail = min(1.0, model.dim * math.erfc(L / math.sqrt(2)))
    bound = gtail
    for m, second in model.k_second_moments:
        bound += n ** (-m / 2.0) * math.sqrt(max(second, 0.0) * gtail)
    return bound


def _poly_on_grid(poly: MultiPoly, x: np.ndarray) -> np.ndarray:
    """``poly`` on the tensor grid with axis ``x`` in every coordinate.

    This is ``V C V^T`` in 2-D, with ``V`` the Vandermonde matrix of the
    axis and ``C`` the coefficients, summed one rank-one term
    ``c_e V[:, e_1] (x) V[:, e_2] (x) ...`` per monomial; no grid of points
    is built.  The powers of the axis are one ``_power_table`` (repeated
    multiplication, the rule ``MultiPoly.__call__`` uses too), and terms
    are added in the polynomial's own order, so on a 1-D grid the values
    are exactly those of ``poly(x)``.
    """
    powers = _power_table(x, poly.degree())
    out = 0.0
    for e, c in poly.terms.items():
        monomial = functools.reduce(np.multiply.outer, [powers[p] for p in e])
        out = out + float(c) * monomial
    return out


def edgeworth_grid(model: EdgeworthModel, n: int, points: int | None = None,
                   halfwidth: float = DEFAULT_HALFWIDTH) -> GridDensity:
    """``Gamma_{n,r}`` evaluated on the same grid layout as ``law_of_sn``.

    ``points`` per axis defaults to ``default_grid_points`` of the model's
    dimension.  Every factor is separable on the tensor grid: the Gaussian is the outer
    product of its 1-D densities, and each corrector is evaluated from its
    coefficients and the axes alone.  Neither depends on ``n``: the model
    keeps them for the last ``(points, halfwidth)``, so a call for another
    ``n`` only weights and adds them.  Raises :class:`AliasingDetected` when
    the grid, of mass 1 as ``E K_m(G) = 0``, fails its signed mass check.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if points is None:
        points = default_grid_points(model.dim)
    if model._grid_terms is None or model._grid_terms[0] != (points, halfwidth):
        x = _axis(halfwidth, points)
        gauss = functools.reduce(np.multiply.outer, [gaussian_pdf(x)] * model.dim)
        ks = [(m, _poly_on_grid(km, x)) for m, km in model.nonzero_k_polys]
        model._grid_terms = ((points, halfwidth), gauss, ks)
    _, gauss, ks = model._grid_terms
    # (1 + sum_m n^(-m/2) K_m) gamma, the terms added in order of m, in one
    # fresh array; each K_m is scaled a block at a time, and the kept gamma
    # and K_m are only read
    values = np.ones(gauss.shape)  # C order: the rows below are views of it
    rows = values.reshape(-1, min(values.size, TERM_BLOCK))
    scaled = np.empty(rows.shape[1])
    for m, km in ks:
        w = n ** (-m / 2.0)
        for row, k_row in zip(rows, km.reshape(rows.shape)):
            row += np.multiply(k_row, w, out=scaled)
    values *= gauss
    g = GridDensity(
        halfwidth, values,
        tail_mass_bound=_corrector_tail_bound(model, n, halfwidth),
        label=f"Gamma_{n},r={model.r}[{model.dist.label}]",
    )
    g.check_mass(signed=True)
    return g
