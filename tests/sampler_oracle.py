"""Test oracles: the bump's localizer and the residual sampler's proposal
step, as they were before the library computed them in place and only near
the bump.

The library evaluates the radius, the localizer, the base density and the
thinning uniform only for proposals inside the cube ``v0 +- r0`` around the
bump, and writes the localizer over an array it owns.  The older step here
computes the radius and the localizer of every proposal, each into a fresh
array, and thins the non-atomic ones where it is positive.
It draws through ``rep._reject``, so its draws, generator calls and
``rep.counters`` tallies are those the library must reproduce bit for bit.
"""

import numpy as np


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

    return rep._reject(rng, size, 1.0 - rep.m0, propose, "w")
