"""Hermite polynomials and the corrected Gaussian measures.

The order-m corrector is a linear combination of multivariate Hermite
polynomials whose coefficients come from the operator algebra:

    K_m(x) = sum_{t = 3 v m, t-m even}^{3m}
             sum_{i = 1 v (t-m)/2}^{[t/3]}  a_{i,(t-m)/2} * H^i_t(x),

    H^i_t(x) = sum_{|alpha| = t} c^i_alpha H_alpha(x),

and the corrected measure approximating the law of ``S_n`` at order r is

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
from .numerics import GridDensity, _axis, default_grid_points, gauss_hermite
from .opalg import MultiPoly, a_op

__all__ = [
    "QuadratureNotConverged",
    "hermite_1d",
    "hermite_multi",
    "h_poly",
    "k_poly",
    "EdgeworthModel",
    "edgeworth_density",
    "edgeworth_grid",
    "d_m_functional",
    "gaussian_expect_poly",
    "gaussian_pdf",
]


class QuadratureNotConverged(Exception):
    """Gauss-Hermite evaluations at increasing node counts disagree."""


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


def h_poly(table: MomentTable, i: int, t: int) -> MultiPoly:
    """``H^i_t = sum_{|alpha|=t} c^i_alpha H_alpha``; zero when ``t < 3i``.

    ``H_alpha`` depends on ``alpha`` only through its multiset, so this is
    the Hermite image of ``a_op(table, i, t, "direct")``: each sorted key
    ``S`` contributes ``C^i_S H_S``, with ``C^i_S`` the sum of ``c^i`` over
    the orderings of ``S``.
    """
    def build():
        return MultiPoly(table.dim, (
            (e, c * h)
            for key, c in a_op(table, i, t, "direct").terms.items()
            for e, h in hermite_multi(key, table.dim).terms.items()
        ))

    return table.cache_get_or_build(("hpoly", i, t), build)


def _corrector_terms(m: int):
    """``(a_{i,(t-m)/2}, i, t)`` for each nonzero term of the order-m corrector."""
    for t in range(max(3, m), 3 * m + 1):
        if (t - m) % 2:
            continue
        half = (t - m) // 2
        for i in range(max(1, half), t // 3 + 1):
            a_row = a_coeffs(i)
            if half < len(a_row) and a_row[half] != 0:
                yield a_row[half], i, t


def k_poly(table: MomentTable, m: int) -> MultiPoly:
    """Order-m corrector polynomial; total degree at most ``3m``.

    Requires the table to carry moment differences up to order ``3m``.
    Identically zero when every delta up to that order vanishes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if 3 * m > table.max_order:
        raise ValueError(f"corrector order {m} needs table order >= {3 * m}")

    def build():
        out = MultiPoly.zero(table.dim)
        for a, i, t in _corrector_terms(m):
            out = out + a * h_poly(table, i, t)
        return out

    return table.cache_get_or_build(("kpoly", m), build)


def gaussian_pdf(x, dim: int = 1):
    """Standard normal density on R^N, vectorized (last axis = coordinates)."""
    x = np.asarray(x, dtype=float)
    if dim == 1:
        sq = x * x
    else:
        sq = np.sum(x * x, axis=-1)
    return np.exp(-0.5 * sq) / (2 * math.pi) ** (dim / 2)


def gaussian_expect_poly(poly: MultiPoly):
    """Exact ``E(p(G))`` through coordinatewise double factorials."""
    return sum(c * _gaussian_product_moment(e) for e, c in poly.terms.items())


@dataclass
class EdgeworthModel:
    """A standardized law together with its correctors up to order r.

    The correctors do not depend on ``n``, so the model keeps what the
    grid path derives from them alone: the exact ``E K_m(G)^2`` of the
    tail bound, and the axis, Gaussian and ``K_m`` values of the last grid
    layout ``(points, halfwidth)`` that ``edgeworth_grid`` was asked for.
    """

    dist: Distribution
    r: int
    table: MomentTable
    k_polys: list
    _second_moments: list | None = field(default=None, init=False, repr=False,
                                         compare=False)
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


def edgeworth_density(model: EdgeworthModel, n: int, x):
    """Signed density of ``Gamma_{n,r}`` at point(s) ``x``.

    ``gamma(x) (1 + sum_m n^{-m/2} K_m(x))``; may be negative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(x, dtype=float)
    factor = np.ones(x.shape if model.dim == 1 else x.shape[:-1])
    for m, km in enumerate(model.k_polys, start=1):
        if not km.is_zero():
            factor = factor + n ** (-m / 2.0) * km(x)
    return gaussian_pdf(x, model.dim) * factor


def _corrector_tail_bound(model: EdgeworthModel, n: int, L: float) -> float:
    # integral of |density| beyond the window: Gaussian tail plus a
    # Cauchy-Schwarz bound for each polynomial corrector term
    gtail = min(1.0, model.dim * math.erfc(L / math.sqrt(2)))
    if model._second_moments is None:  # exact E K_m(G)^2, once per model
        model._second_moments = [
            (m, float(gaussian_expect_poly(km * km)))
            for m, km in enumerate(model.k_polys, start=1) if not km.is_zero()
        ]
    bound = gtail
    for m, second in model._second_moments:
        bound += n ** (-m / 2.0) * math.sqrt(max(second, 0.0) * gtail)
    return bound


def _poly_on_grid(poly: MultiPoly, x: np.ndarray) -> np.ndarray:
    """``poly`` on the tensor grid with axis ``x`` in every coordinate.

    This is ``V C V^T`` in 2-D, with ``V`` the Vandermonde matrix of the
    axis and ``C`` the coefficients, summed one rank-one term
    ``c_e V[:, e_1] (x) V[:, e_2] (x) ...`` per monomial; no grid of points
    is built.  Terms are added in the polynomial's own order, so on a 1-D
    grid the values are exactly those of ``poly(x)``.
    """
    powers = {p: x ** p for e in poly.terms for p in e}
    out = 0.0
    for e, c in poly.terms.items():
        monomial = functools.reduce(np.multiply.outer, [powers[p] for p in e])
        out = out + float(c) * monomial
    return out


def edgeworth_grid(model: EdgeworthModel, n: int, points: int | None = None,
                   halfwidth: float = 16.0) -> GridDensity:
    """``Gamma_{n,r}`` evaluated on the same grid layout as ``law_of_sn``.

    ``points`` per axis defaults to ``default_grid_points`` of the model's
    dimension.  Every factor is separable on the tensor grid: the Gaussian is the outer
    product of its 1-D densities, and each corrector is evaluated from its
    coefficients and the axes alone.  Neither depends on ``n``: the model
    keeps them for the last ``(points, halfwidth)``, so a call for another
    ``n`` only weights and adds them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if points is None:
        points = default_grid_points(model.dim)
    key = (points, halfwidth)
    terms = model._grid_terms
    if terms is None or terms[0] != key:
        x = _axis(halfwidth, points)
        x.flags.writeable = False  # shared by every grid of this layout
        gauss = functools.reduce(np.multiply.outer, [gaussian_pdf(x)] * model.dim)
        ks = [(m, _poly_on_grid(km, x))
              for m, km in enumerate(model.k_polys, start=1) if not km.is_zero()]
        terms = model._grid_terms = (key, (x, gauss, ks))
    x, gauss, ks = terms[1]
    factor = np.ones((points,) * model.dim)
    for m, km in ks:
        factor = factor + n ** (-m / 2.0) * km
    return GridDensity(
        (x,) * model.dim, gauss * factor,
        tail_mass_bound=_corrector_tail_bound(model, n, halfwidth),
        label=f"Gamma_{n},r={model.r}[{model.dist.label}]",
    )


def d_m_functional(model: EdgeworthModel, f, m: int):
    """The order-m functional coefficient ``E(f(G) K_m(G))``.

    Evaluated by 64-node Gauss-Hermite quadrature (value returned), and,
    when ``f`` is a polynomial, cross-checked against the operator form
    ``sum a_{i,(t-m)/2} E(A^i_t f(G))`` computed with exact Gaussian
    moments; the two agree to 1e-10 by construction.  Raises
    :class:`QuadratureNotConverged` when refining the quadrature to 96
    nodes moves the answer.
    """
    if not 1 <= m <= len(model.k_polys):
        raise ValueError(f"m must be in 1..{len(model.k_polys)}")
    km = model.k_polys[m - 1]

    def integrand(x):
        return np.asarray(f(x)) * km(x)

    val, refined = (gauss_hermite(integrand, model.dim, nodes) for nodes in (64, 96))
    if abs(val - refined) > 1e-9 * max(1.0, abs(val)):
        raise QuadratureNotConverged(
            f"order-{m} functional moved from {val!r} to {refined!r} on refinement"
        )
    if isinstance(f, MultiPoly):
        op_val = sum(
            a * gaussian_expect_poly(a_op(model.table, i, t, "direct").apply(f))
            for a, i, t in _corrector_terms(m)
        )
        if abs(float(op_val) - val) > 1e-10 * max(1.0, abs(val)):
            raise AssertionError(
                f"operator form {float(op_val)!r} != quadrature form {val!r}"
            )
    return val
