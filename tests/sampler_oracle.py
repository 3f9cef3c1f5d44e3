"""Test oracles: the bump's localizer, the residual sampler's proposal step
and the Monte Carlo batch's per-sample sums, as they were before the library
computed them in place, only near the bump and by run length.

The library evaluates the radius, the localizer, the base density and the
thinning uniform only for proposals inside the cube ``v0 +- r0`` around the
bump, and writes the localizer over an array it owns.  The older step here
computes the radius and the localizer of every proposal, each into a fresh
array, and thins the non-atomic ones where it is positive.
It draws through ``moments.rejection_sample`` into ``rep``'s tallies, so its
draws, generator calls and ``rep.counters`` are those the library must
reproduce bit for bit.

The batch of ``(S_n, sum chi, L S_n)`` once tagged every summand with its
sample's index (an ``np.repeat``) and summed each coordinate with
``np.bincount``, in sequence; the library sums runs of rows pairwise, so
the two agree up to rounding.

The bump sampler and the gradient of ``ln psi`` once took one branch for a
1-D law and another for a product: the 1-D bump proposals had scalar
bounds, the N-D ones were shifted by ``v0`` after the draw, and the
gradient was evaluated at every point, with a guard against a zero radius
in N-D.
"""

import math

import numpy as np

from edgeworth.moments import rejection_sample
from edgeworth.splitting import psi_integral


def psi_loc_full(a: float, x):
    """The plateau localizer ``psi_a`` at (arrays of) real ``x``, out of place."""
    x = np.asarray(x, dtype=float)
    u = np.abs(x.reshape(-1))
    out = (u <= a).astype(float)
    band = np.flatnonzero((u > a) & (u < 2 * a))
    if band.size:
        g = u[band]
        g -= a
        np.square(g, out=g)
        np.subtract(a * a, g, out=g)
        np.divide(-a * a, g, out=g)
        g += 1.0
        out[band] = np.exp(g, out=g)
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _psi_bump(rep, x):
    if rep.dim == 1:
        radius = np.abs(np.asarray(x, dtype=float) - rep.v0)
    else:
        d = np.asarray(x, dtype=float) - np.asarray(rep.v0)
        radius = np.sqrt(np.sum(d * d, axis=-1))
    return psi_loc_full(rep.r0 / 2, radius)


def log_psi_radial_derivative(a: float, u):
    """``(d/du) ln psi_a(u)`` for radii ``u``: ``-2 a^2 (u - a) / (a^2 - (u - a)^2)^2``
    on the band ``a < u < 2a``, zero elsewhere."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    band = (u > a) & (u < 2 * a)
    ub = u[band] - a
    g = a * a - ub * ub
    out[band] = -2.0 * a * a * ub / (g * g)
    return out


def log_psi_gradient_two_branch(rep, x):
    """``rep.log_psi_gradient(x)`` with a 1-D and an N-D branch, at every point."""
    a = rep.r0 / 2
    if rep.dim == 1:
        d = np.asarray(x, dtype=float) - rep.v0
        return log_psi_radial_derivative(a, np.abs(d)) * np.sign(d)
    d = np.asarray(x, dtype=float) - np.asarray(rep.v0)
    u = np.sqrt(np.sum(d * d, axis=-1))
    rad = log_psi_radial_derivative(a, u)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(u[..., None] > 0, d / np.maximum(u, 1e-300)[..., None], 0.0)
    return rad[..., None] * unit


def sample_v_two_branch(rep, rng, size: int) -> np.ndarray:
    """``rep.sample_v(rng, size)`` with scalar bounds in 1-D and a shift in N-D."""
    rate = psi_integral(rep.r0 / 2, rep.dim) / (2 * rep.r0) ** rep.dim

    def propose(rng, m):
        if rep.dim == 1:
            prop = rng.uniform(rep.v0 - rep.r0, rep.v0 + rep.r0, m)
        else:
            prop = rng.uniform(-rep.r0, rep.r0, (m, rep.dim)) + np.asarray(rep.v0)
        return prop, rng.random(m) < _psi_bump(rep, prop)

    return rejection_sample(rng, size, rate, propose, "bump", rep._tally["v"], np.shape(rep.v0))


def sample_w_full(rep, rng, size: int) -> np.ndarray:
    """``rep.sample_w(rng, size)`` with the localizer of every proposal."""

    def propose(rng, m):
        prop, atomic = rep.base.sample_parts(rng, m)
        psi = _psi_bump(rep, prop)
        thin = np.flatnonzero((psi > 0) & ~atomic)
        keep = np.ones(m, dtype=bool)
        if thin.size:
            dens = rep.base.pdf(prop[thin])
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    dens > 0, rep.eps0 * psi[thin] / np.maximum(dens, 1e-300), 0.0
                )
            keep[thin] = rng.random(thin.size) < 1.0 - ratio
        return prop, keep

    return rejection_sample(rng, size, 1.0 - rep.m0, propose, "residual", rep._tally["w"],
                            np.shape(rep.v0))


def _segment_sum(idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """Sums of the rows of ``vals`` grouped by sample index, per coordinate."""
    if vals.ndim == 1:
        return np.bincount(idx, weights=vals, minlength=size)
    return np.stack(
        [np.bincount(idx, weights=col, minlength=size) for col in vals.T], axis=-1
    )


def sn_batch_bincount(rep, n: int, size: int, rng, magnitude: bool = False):
    """``malliavin.sn_batch`` through per-summand indices and ``np.bincount``.

    With ``magnitude=True`` it sums ``|V|``, ``|W|`` and ``|grad ln psi|``
    instead (``L S_n`` then keeps its minus sign): the scale that bounds
    the rounding of any order of summation.
    """
    mag = np.abs if magnitude else (lambda a: a)
    counts = rng.binomial(n, rep.m0, size)
    idx_v = np.repeat(np.arange(size), counts)
    idx_w = np.repeat(np.arange(size), n - counts)
    tot_v, tot_w = len(idx_v), len(idx_w)
    shape = (size,) if rep.dim == 1 else (size, rep.dim)
    sums = np.zeros(shape)
    ls = np.zeros(shape)
    if tot_v:
        v = rep.sample_v(rng, tot_v)
        sums += _segment_sum(idx_v, mag(v), size)
        ls -= _segment_sum(idx_v, mag(rep.log_psi_gradient(v)), size)
    if tot_w:
        w = rep.sample_w(rng, tot_w)
        sums += _segment_sum(idx_w, mag(w), size)
    rt = math.sqrt(n)
    return sums / rt, counts, ls / rt
