"""Constructive splitting of a law lower-bounded by Lebesgue measure.

Given a law whose density is bounded below by ``eps0`` on a ball
``B_{r0}(v0)``, the law decomposes as

    F  =  chi V + (1 - chi) W,

with ``chi ~ Bernoulli(m0)``, ``V`` distributed like the normalized
bump ``(eps0/m0) psi_{r0/2}(|v - v0|)`` and ``W`` the residual law
``(mu_F - eps0 psi_{r0/2}) / (1 - m0)``; ``m0 = eps0 * int psi``.  The bump
uses the plateau localizer

    psi_a(x) = 1                                   for |x| <= a,
             = exp(1 - a^2 / (a^2 - (|x|-a)^2))    for a < |x| < 2a,
             = 0                                   for |x| >= 2a,

which has compact support and is smooth except at the plateau edge
``|x| = a``, where it is only C^1: the second derivative jumps from 0 to
``-2/a^2`` there.  The first-order integration-by-parts weight needs only
the first derivative of ``ln psi`` (through the Ornstein-Uhlenbeck images
downstream), and that has an analytic closed form.

One construction serves a 1-D law and any product of 1-D laws (the
registry's products, N <= 3); a 1-D law is the one-factor case.  A point
has the shape of ``v0``, ``()`` or ``(N,)``, in every sampler and density.
Ball-selection policy (the existence statement leaves it free): each
coordinate of ``v0`` is the argmax of its factor's density on a 4096-point
scan of that factor's support (middle of the argmax plateau of a locally
min-filtered density, so flat tops center correctly); ``r0`` is the
largest radius keeping the ball infimum above half the density at ``v0``,
and ``eps0 = 0.9 x`` that infimum, halved until ``m0 <= 1/2``.  The ball
infimum is bounded below by the product of the factors' infima over the
enclosing cube ``v0 +- r``, each taken on probes of its axis: exact (up to
the probes) in 1-D, conservative in N >= 2.

Both samplers draw through ``moments.rejection_sample``, the package's one
rejection loop, with their own tallies (``SplitRep.counters``); its
``ROUND_CAP``, ``RejectionStall`` and ``_round_size`` are importable from
here as well.  ``log_psi_gradient`` and ``log_psi_radial_derivative`` apply
one closed form of ``(ln psi)'`` to the band radii they select.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .moments import ROUND_CAP, Distribution, RejectionStall, rejection_sample
from .moments import _round_size  # noqa: F401  (importable from here, beside the loop)

__all__ = [
    "NoLowerBoundFound",
    "RejectionStall",
    "psi_loc",
    "log_psi_radial_derivative",
    "psi_integral",
    "find_lower_bound",
    "split",
    "SplitRep",
    "SamplerCounts",
    "ROUND_CAP",
]

class NoLowerBoundFound(Exception):
    """No ball with a positive density infimum was found on the scan grid."""


def psi_loc(a: float, x):
    """Plateau localizer ``psi_a`` evaluated at (arrays of) real ``x``."""
    if a <= 0:
        raise ValueError("a must be > 0")
    x = np.asarray(x, dtype=float)
    out = _psi_radial(a, np.abs(x.reshape(-1)))
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _psi_radial(a: float, u: np.ndarray) -> np.ndarray:
    """``psi_a`` at the radii ``u >= 0`` of a 1-D float array, written over ``u``."""
    band = np.flatnonzero((u > a) & (u < 2 * a))
    # exp(1 - a^2 / (a^2 - (u - a)^2)), in place on the band gather
    g = u[band]
    g -= a
    np.square(g, out=g)
    np.subtract(a * a, g, out=g)
    np.divide(-a * a, g, out=g)
    g += 1.0
    np.less_equal(u, a, out=u)
    u[band] = np.exp(g, out=g)
    return u


def log_psi_radial_derivative(a: float, u):
    """``(d/du) ln psi_a(u)`` for radii ``u``; zero on the plateau.

    On the decay band ``a < u < 2a`` the closed form is
    ``-2 a^2 (u - a) / (a^2 - (u - a)^2)^2``; it blows up toward the
    support edge, which is why it is evaluated analytically rather than by
    finite differences.  Outside the support the localizer vanishes and the
    value is never used; zero is returned for safety.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    band = (u > a) & (u < 2 * a)
    out[band] = _log_psi_band(a, u[band])
    return out if out.shape else float(out)


def _log_psi_band(a: float, u: np.ndarray) -> np.ndarray:
    """``(d/du) ln psi_a(u)`` for radii ``u`` on the band ``a < u < 2a``."""
    ub = u - a
    g = a * a - ub * ub
    return -2.0 * a * a * ub / (g * g)


@lru_cache(maxsize=None)
def _psi_unit_integral(dim: int) -> float:
    # |S^{N-1}| int_0^2 psi_1(rho) rho^{N-1} drho, written as half the sphere
    # area times the even integrand over [-2, 2] (in 1-D that is psi_1 itself)
    from scipy import integrate

    half_area = math.pi ** (dim / 2) / math.gamma(dim / 2)
    val, _ = integrate.quad(
        lambda x: half_area * psi_loc(1.0, abs(x)) * abs(x) ** (dim - 1), -2, 2,
        epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def psi_integral(a: float, dim: int = 1) -> float:
    """``int_{R^N} psi_a(|v|) dv``, exact scaling of the unit integral."""
    return a**dim * _psi_unit_integral(dim)


def _ball_infimum(laws, v0s, r: float, probes: int = 513) -> float:
    """Product of the per-axis probe minima over the cube ``v0 +- r``.

    The cube encloses the ball, so this bounds the ball infimum from below;
    in 1-D the cube is the ball.
    """
    out = 1.0
    for law, c in zip(laws, v0s):
        out *= float(np.min(law.pdf(np.linspace(c - r, c + r, probes))))
    return out


def _first_run_middle(idx: np.ndarray) -> int:
    """Middle of the first run of consecutive integers in sorted ``idx``."""
    gaps = np.flatnonzero(np.diff(idx) != 1)
    run_end = idx[gaps[0]] if gaps.size else idx[-1]
    return int(idx[0] + run_end) // 2


def _axis_peak(law: Distribution) -> float:
    """Argmax of a 1-D density on a 4096-point scan of its support."""
    lo, hi = law.support()
    xs = np.linspace(lo, hi, 4096)
    dens = law.pdf(xs)
    if float(np.max(dens)) < 1e-12:
        raise NoLowerBoundFound(f"density of {law.label} vanishes on the scan grid")
    # min-filter over +-2 cells so a one-point spike cannot win,
    # then center v0 on the argmax plateau (flat densities)
    w = 2
    padded = np.pad(dens, w, mode="constant")
    filt = np.min(
        np.stack([padded[j : j + len(dens)] for j in range(2 * w + 1)]), axis=0
    )
    peak = float(np.max(filt))
    if peak < 1e-12:
        raise NoLowerBoundFound(f"no stable ball for {law.label}")
    on_peak = np.flatnonzero(filt >= peak * (1 - 1e-9))
    return float(xs[_first_run_middle(on_peak)])


def find_lower_bound(dist: Distribution):
    """Locate ``(v0, r0, eps0)`` with ``inf_{B_{r0}(v0)} density >= eps0 > 0``.

    ``dist`` is a 1-D law or a product of 1-D laws; each coordinate of
    ``v0`` is found on its own factor (a float in 1-D, an array otherwise).
    Raises :class:`NoLowerBoundFound` when a scanned density never
    exceeds ``1e-12`` (the law violates the lower-bound hypothesis, e.g. a
    purely atomic input), and ``NotImplementedError`` for a multivariate
    law that is not a product.
    """
    laws = dist.factors()
    v0s = [_axis_peak(law) for law in laws]
    peak_val = math.prod(float(law.pdf(np.array([c]))[0]) for law, c in zip(laws, v0s))

    # largest radius whose ball infimum keeps half the peak
    target = 0.5 * peak_val
    lo_r, hi_r = 0.0, 1e-3
    span = max(hi - lo for lo, hi in (law.support() for law in laws))
    while hi_r < span and _ball_infimum(laws, v0s, hi_r) >= target:
        lo_r, hi_r = hi_r, 2 * hi_r
    for _ in range(60):
        mid = 0.5 * (lo_r + hi_r)
        if _ball_infimum(laws, v0s, mid) >= target:
            lo_r = mid
        else:
            hi_r = mid
    r0 = lo_r
    if r0 <= 0:
        raise NoLowerBoundFound(f"no ball with positive infimum for {dist.label}")
    inf_val = _ball_infimum(laws, v0s, r0, probes=2049)
    eps0 = 0.9 * inf_val
    # keep the carved mass at or below one half
    while eps0 * psi_integral(r0 / 2, dist.dim) > 0.5:
        eps0 *= 0.5
    if eps0 <= 0:
        raise NoLowerBoundFound(f"degenerate infimum for {dist.label}")
    v0 = v0s[0] if dist.dim == 1 else np.array(v0s)
    return v0, r0, eps0


class SamplerCounts(NamedTuple):
    """Rejection-sampler tallies: proposals, accepted proposals, returned draws."""

    proposed: int
    accepted: int
    drawn: int


@dataclass
class SplitRep:
    """Realized splitting ``F = chi V + (1 - chi) W`` of a base law.

    ``v0`` is kept as a float or a float array; only the radius and the
    ``nonzero`` window branch on the dimension, where the 1-D form is faster.
    """

    base: Distribution
    v0: object
    r0: float
    eps0: float
    m0: float
    # [proposed, accepted, drawn] per sampler; read through ``counters``
    _tally: dict = field(
        default_factory=lambda: {"v": [0, 0, 0], "w": [0, 0, 0]},
        init=False, repr=False, compare=False,
    )

    def __post_init__(self):
        self.v0 = np.asarray(self.v0, dtype=float)[()]  # () gives a 0-d v0 as a scalar

    @property
    def dim(self) -> int:
        return self.base.dim

    # -- densities ---------------------------------------------------------
    def _radius(self, x):
        d = np.asarray(x, dtype=float) - self.v0
        if self.dim == 1:
            # np.abs: the norm of (m, 1) rows made sample_w about 10% slower
            return np.abs(d)
        return np.sqrt(np.sum(d * d, axis=-1))

    def psi_bump(self, x, nonzero: bool = False):
        """``psi_{r0/2}(|x - v0|)``, the un-normalized bump.

        With ``nonzero=True`` the result is ``(idx, psi)``: the indices of the
        rows of ``x`` where the bump is positive, and its values there.  The
        bump vanishes off the open ball of radius ``r0``, so only the rows
        inside the cube ``v0 +- r0`` get a radius and ``psi``.  The cube is
        widened past rounding, by ``1e-9`` times the larger of ``r0`` and
        ``|v0|`` on each axis: a superset is safe, since ``psi > 0`` is
        decided on the rows inside.  ``sample_w`` thins each round of
        proposals this way, in one call that sees the whole round.
        """
        if not nonzero:
            u = self._radius(x)
            return _psi_radial(self.r0 / 2, np.reshape(u, -1)).reshape(np.shape(u))
        x = np.asarray(x, dtype=float)
        reach = self.r0 + 1e-9 * np.maximum(self.r0, np.abs(self.v0))
        near = x > self.v0 - reach
        near &= x < self.v0 + reach
        if self.dim > 1:  # in 1-D each comparison is already one flag per point
            near = near.all(axis=-1)
        idx = np.flatnonzero(near)
        psi = _psi_radial(self.r0 / 2, self._radius(x[idx]))
        live = psi > 0
        return idx[live], psi[live]

    def v_pdf(self, x):
        return (self.eps0 / self.m0) * self.psi_bump(x)

    def w_pdf(self, x):
        """Density of the a.c. part of the residual law W."""
        return (self.base.pdf(x) - self.eps0 * self.psi_bump(x)) / (1.0 - self.m0)

    def log_psi_gradient(self, x):
        """``grad ln psi_{r0/2}(|x - v0|)``; zero off the band ``r0/2 < |x - v0| < r0``."""
        a = self.r0 / 2
        rows = np.reshape(x, (-1, *np.shape(self.v0)))
        u = self._radius(rows)
        band = np.flatnonzero((u > a) & (u < 2 * a))
        ub = u[band]
        out = np.zeros(rows.shape)
        # transposed, a per-point factor broadcasts over the coordinates
        out[band] = (_log_psi_band(a, ub) * ((rows[band] - self.v0).T / ub)).T
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    # -- samplers ------------------------------------------------------------
    @property
    def counters(self) -> dict:
        """Cumulative proposed/accepted/drawn counts of the ``"v"`` and ``"w"`` samplers."""
        return {k: SamplerCounts(*t) for k, t in self._tally.items()}

    def sample_v(self, rng, size: int) -> np.ndarray:
        """Draws from the bump law by rejection from a uniform proposal.

        The proposal is uniform on the cube ``v0 + [-r0, r0]^N``, so the
        acceptance rate is ``int psi / (2 r0)^N``.
        """
        rate = psi_integral(self.r0 / 2, self.dim) / (2 * self.r0) ** self.dim

        def propose(rng, m):
            prop = rng.uniform(self.v0 - self.r0, self.v0 + self.r0, (m, *np.shape(self.v0)))
            return prop, rng.random(m) < self.psi_bump(prop)

        return rejection_sample(rng, size, rate, propose, "bump", self._tally["v"],
                                np.shape(self.v0))

    def sample_w(self, rng, size: int) -> np.ndarray:
        """Draws from W by thinning draws of the base law.

        A base draw at ``v`` is kept with probability
        ``1 - eps0 psi(v) / pdf(v)``, which is 1 off the bump's support.
        Only the proposals inside the cube ``v0 +- r0``, which holds that
        support, get a radius and ``psi``; of those, the non-atomic ones with
        ``psi(v) > 0`` get a density evaluation and a uniform (atomic draws
        are always kept: the bump is carved from the absolutely continuous
        component only).  The acceptance rate is ``1 - m0``.
        """

        def propose(rng, m):
            prop, atomic = self.base.sample_parts(rng, m)
            thin, ratio = self.psi_bump(prop, nonzero=True)
            if atomic.any():
                live = ~atomic[thin]
                thin, ratio = thin[live], ratio[live]
            keep = np.ones(m, dtype=bool)
            if thin.size:
                dens = self.base.pdf(prop[thin])
                # 1 - eps0 psi / max(dens, 1e-300), and 1 where dens is not > 0
                ratio *= self.eps0
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio /= np.maximum(dens, 1e-300)
                ratio[~(dens > 0)] = 0.0
                np.subtract(1.0, ratio, out=ratio)
                keep[thin] = rng.random(thin.size) < ratio
            return prop, keep

        return rejection_sample(rng, size, 1.0 - self.m0, propose, "residual",
                                self._tally["w"], np.shape(self.v0))

    def sample(self, rng, size: int) -> np.ndarray:
        """Draws of ``chi V + (1 - chi) W``; distributed as the base law."""
        chi = rng.random(size) < self.m0
        out = np.empty((size, *np.shape(self.v0)))
        nv = int(chi.sum())
        out[chi] = self.sample_v(rng, nv)  # zero draws take no round
        out[~chi] = self.sample_w(rng, size - nv)
        return out

    def reconstruction_residual(self, xs) -> np.ndarray:
        """``|m0 p_V + (1-m0) p_W - p_F|`` at each point of ``xs`` (a.c. parts)."""
        lhs = self.m0 * self.v_pdf(xs) + (1.0 - self.m0) * self.w_pdf(xs)
        return np.abs(lhs - self.base.pdf(xs))

    def reconstruction_error(self, xs) -> float:
        """Sup of ``reconstruction_residual`` over the grid ``xs``."""
        return float(np.max(self.reconstruction_residual(xs)))


def split(dist: Distribution) -> SplitRep:
    """Build the splitting representation of a (standardized or raw) law."""
    v0, r0, eps0 = find_lower_bound(dist)
    m0 = eps0 * psi_integral(r0 / 2, dist.dim)
    if not 0.0 < m0 < 1.0:
        raise NoLowerBoundFound(f"carved mass m0={m0} out of range for {dist.label}")
    return SplitRep(dist, v0, r0, eps0, m0)

