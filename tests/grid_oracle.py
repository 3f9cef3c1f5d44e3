"""Test oracles: the grid constructions that the tensor-grid path replaced.

The library evaluates every separable factor on the 1-D axes and combines
the axes by outer product.  These are the older constructions, kept only
as references for the tests:

* the inverter that evaluates every factor on the full frequency axis,
  negative half included, with ``z ** n`` for the n-th power, and takes
  one ``m^N`` ``fftn`` of the whole spectrum with the ``(-1)^j`` signs;
* the 2-D characteristic-function inverter over a meshgrid of frequencies;
* the 2-D corrected density evaluated point by point on a meshgrid;
* the dense trapezoid characteristic function of a user density, which
  builds the whole ``frequencies x 8193`` kernel at once;
* the spectrum cut found by bounding every entry of the axis, where the
  library bounds every 64th entry and one block between two.
"""

import functools
import math

import numpy as np

from edgeworth.correctors import edgeworth_density
from edgeworth.numerics import _LOG_TINY, _axis

# numpy < 2.0 has only the older name
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def invert_charfn_full(chars, lo, hi, m):
    """Tensor-grid density from factors evaluated on all ``m`` frequencies."""
    dx = (hi - lo) / m
    dt = 2 * math.pi / (m * dx)
    t = (np.arange(m) - m // 2) * dt
    shift = np.exp(-1j * t * lo)
    psi = functools.reduce(np.multiply.outer, [char(t) * shift for char in chars])
    signs = np.where(np.arange(m) % 2, -1.0, 1.0)
    signs = functools.reduce(np.multiply.outer, [signs] * len(chars))
    vals = (dt / (2 * math.pi)) ** len(chars) * signs * np.fft.fftn(psi)
    return vals.real


def _sn_char_fn_pow(law, n, t):
    rt = math.sqrt(n)
    phi = law.char_fn(t / rt) ** n
    if law.atoms:
        atomic = sum(mass * np.exp(1j * a * t / rt) for a, mass in law.atoms)
        phi = phi - atomic**n
    return phi


def law_of_sn_full(dist, n, points, halfwidth):
    """Values of ``law_of_sn`` from the full-axis inverter and ``z ** n``."""
    laws = getattr(dist, "children", [dist])
    return invert_charfn_full([functools.partial(_sn_char_fn_pow, law, n) for law in laws],
                              -halfwidth, halfwidth, points)


def invert_charfn_2d(char, lo, hi, m):
    """Density on ``lo + j*dx`` from ``char`` evaluated on the frequency meshgrid."""
    dx = [(hi[i] - lo[i]) / m[i] for i in range(2)]
    dt = [2 * math.pi / (m[i] * dx[i]) for i in range(2)]
    t0 = (np.arange(m[0]) - m[0] // 2) * dt[0]
    t1 = (np.arange(m[1]) - m[1] // 2) * dt[1]
    tt = np.stack(np.meshgrid(t0, t1, indexing="ij"), axis=-1)
    psi = char(tt) * np.exp(-1j * (tt[..., 0] * lo[0] + tt[..., 1] * lo[1]))
    s0 = np.where(np.arange(m[0]) % 2, -1.0, 1.0)
    s1 = np.where(np.arange(m[1]) % 2, -1.0, 1.0)
    vals = (dt[0] * dt[1] / (2 * math.pi) ** 2) * np.outer(s0, s1) * np.fft.fft2(psi)
    return vals.real


def law_of_sn_2d(dist, n, points, halfwidth):
    """Values of ``law_of_sn`` for a 2-D law, from its joint ``char_fn``."""
    rt = math.sqrt(n)
    return invert_charfn_2d(lambda tt: dist.char_fn(tt / rt) ** n,
                            (-halfwidth, -halfwidth), (halfwidth, halfwidth),
                            (points, points))


def edgeworth_grid_2d(model, n, points, halfwidth):
    """Values of ``edgeworth_grid`` for a 2-D model, point by point."""
    x = _axis(halfwidth, points)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    return edgeworth_density(model, n, pts)


def user_char_fn(dist, t):
    """``UserDensity.char_fn`` with the dense kernel and ``np.trapezoid``."""
    lo, hi = dist.support()
    xs = np.linspace(lo, hi, 8193)
    fx = dist.pdf(xs)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ker = np.exp(1j * np.outer(t, xs))
    return _trapezoid(ker * fx, xs, axis=-1)


def spectrum_prefix_full(law, n, s):
    """``_spectrum_prefix`` from the bound on every entry of the axis ``s``."""
    env = law.char_envelope
    if env is None:
        return len(s)
    a = law.singular_mass
    with np.errstate(divide="ignore", over="ignore"):
        e = env(s)
        if a:
            y = n * np.log1p(e / a)
            log_bound = n * math.log(a) + y + np.log(-np.expm1(-y))
        else:
            log_bound = n * np.log(e)
    above = np.flatnonzero(log_bound >= _LOG_TINY)
    return int(above[-1]) + 1 if above.size else 0
