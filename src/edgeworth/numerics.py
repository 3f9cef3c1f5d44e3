"""Grid densities, characteristic-function inversion, and total variation.

The law of the normalized sum ``S_n = n^{-1/2} sum F_k`` is computed by
sampling the characteristic function ``phi(t/sqrt(n))^n`` on the
nonnegative half of the dual grid and inverting with FFTs.  The
characteristic function of a product law is a product of per-axis
factors, each the transform of a real 1-D law, so the inversion takes one
real inverse FFT (``irfft``) per axis and the grid is the real outer
product of the axes; no ``m^N`` spectrum and no complex grid is formed.

Only a prefix of each axis's spectrum is computed.  A law's
``char_envelope`` bounds ``|phi|`` (the envelope contract is in
``Distribution``), and past the first frequency where the bound on
``phi(t/sqrt(n))^n`` is below ``2^-1074``, the smallest positive double,
the spectrum is left 0 instead of evaluated: there every entry would
round to 0 anyway.  A law without an envelope has its whole spectrum
evaluated.

A grid is a half-width and an ``m^N`` array of values, with the axis
``_axis(halfwidth, m)``, the one check of a layout, in every coordinate;
two grids are comparable only on exactly the same layout.

Total variation follows the no-half convention:
``d_TV(mu, nu) = sup_{|f| <= 1} |int f dmu - int f dnu|``, i.e. the full
L1 distance between densities, which is why disjoint probability measures
are at distance 2.

Each grid carries two certificates: a bound on the mass outside the
window and the exact singular mass.  The FFT's own discretization error
(aliasing and the rectangle rule) is bounded by neither: for ``uniform``
at ``n = 1`` on the default grid the L1 gap to the exact density is
1.8e-3, while the certificates sum to 2.1e-17.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import Distribution, cumulants_to_moments, moments_to_cumulants

__all__ = [
    "AliasingDetected",
    "GridMismatch",
    "GridDensity",
    "TVInterval",
    "default_grid_points",
    "law_of_sn",
    "sn_tail_bound",
    "tv_distance",
]


class AliasingDetected(Exception):
    """Reconstructed grid mass is incompatible with the certified slack."""


class GridMismatch(Exception):
    """Total variation requires both densities on the identical grid."""


@dataclass
class GridDensity:
    """Density values on the grid ``[-halfwidth, halfwidth)^N`` with mass
    accounting: ``values`` is an ``m^N`` array, each axis ``_axis(halfwidth, m)``.

    ``tail_mass_bound`` certifies how much probability may live outside the
    grid window; ``singular_mass`` is the exactly-known weight of the purely
    atomic part that the density values do not carry, so for a probability
    law ``1 - (mass + singular_mass) in [0, tail_mass_bound]`` up to rounding.
    """

    halfwidth: float
    values: np.ndarray
    tail_mass_bound: float = 0.0
    singular_mass: float = 0.0
    label: str = ""
    axes: tuple = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        shape = np.shape(self.values)
        if not shape or len(set(shape)) > 1:
            raise ValueError(f"grid values of shape {shape} do not match an m^N layout")
        x = _axis(self.halfwidth, shape[0])
        self.axes = (x,) * len(shape)
        self.cell_volume = math.prod([x[1] - x[0]] * len(shape))
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.values.sum())
        if not math.isfinite(total):  # NaN or inf; no grid-sized temporary
            raise ValueError("grid density contains non-finite values or its sum overflows")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def negative_mass(self) -> float:
        """``int v^-``: the mass of the negative part of signed values."""
        return float(np.maximum(-self.values, 0.0).sum() * self.cell_volume)

    def mass_defect(self) -> float:
        """``1 - grid mass - singular mass``; see :meth:`check_mass`."""
        return 1.0 - self.mass() - self.singular_mass

    def check_mass(self, signed: bool = False):
        """Validate the mass budget.

        Fails when the defect ``1 - mass - singular`` escapes
        ``[0, tail_mass_bound]`` by more than 1e-4 (budget error), or when
        the certified tail bound exceeds 0.05, so that the window cannot
        certify anything (a periodizing FFT keeps total mass exact even
        when the window folds the density onto itself, so an uncertifiable
        window is the honest aliasing signal).  A ``signed`` measure may
        have negative mass outside the window: its defect may be negative.
        """
        tail = self.tail_mass_bound
        if tail > 0.05:
            raise AliasingDetected(
                f"window too small: certified tail bound {tail:.3g} for {self.label!r}"
            )
        d, tol = self.mass_defect(), 1e-4
        lo, lo_text = (-tail, f"{-tail:.3e}") if signed else (0.0, "0")
        if d < lo - tol or d > tail + tol:
            raise AliasingDetected(
                f"mass defect {d:.3e} outside [{lo_text}, {tail:.3e}] "
                f"(tol {tol:g}) for {self.label!r}"
            )


def default_grid_points(dim: int) -> int:
    """Default points per axis: 2^14 in 1-D, at most about 2^21 in total.

    That is 2^10 per axis in 2-D and 2^7 in 3-D, so a default grid needs
    arrays of a few tens of MB in every dimension, not 2^14 per axis.
    """
    return 2 ** min(14, 21 // dim)


DEFAULT_HALFWIDTH = 16.0


@functools.lru_cache(maxsize=8)
def _axis(halfwidth: float, m: int) -> np.ndarray:
    """The grid axis ``-halfwidth + j * 2 halfwidth / m``, ``j < m``.

    The one check of a grid layout, made before anything is computed on it.
    The axis is cached per layout as a read-only array, so every grid of a
    layout holds the same object; a rejected layout raises on every call.
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"points per axis must be a power of two, got {m}")
    if not 0 < halfwidth < math.inf:
        raise ValueError(f"grid halfwidth must be finite and > 0, got {halfwidth}")
    x = -halfwidth + 2 * halfwidth / m * np.arange(m)
    x.flags.writeable = False
    return x


def _invert_charfn(chars, halfwidth, m):
    """Density on the tensor grid with axis ``_axis(halfwidth, m)`` in every
    coordinate.

    ``chars[k]`` is the factor of a separable characteristic function on
    coordinate k.  The inverse transform of a product is the outer product
    of the 1-D transforms, so each axis is inverted on its own and the grid
    is the outer product of the real axes: ``O(N m log m + m^N)`` work, and
    no ``m^N`` spectrum.  A 1-D grid is the case of one factor.

    Each factor is the characteristic function of a real law, so
    ``phi(-t) = conj phi(t)`` and its axis is real: the factor is asked for
    the ``m/2 + 1`` nonnegative frequencies ``t_k = k pi / halfwidth`` only,
    and ``np.fft.irfft`` supplies the conjugate half.  On the centred window
    the phase ``exp(-i t_k x_0)`` of the first grid point is ``(-1)^k``, so
    the shift is a sign.  A factor may return a prefix ``phi(t[:k])`` only;
    ``irfft`` zero-pads the spectrum beyond it, and an empty prefix gives a
    zero axis.
    """
    t = np.arange(m // 2 + 1) * (math.pi / halfwidth)
    dx = 2 * halfwidth / m
    axes = []
    for char in chars:
        spec = np.conj(char(t))
        spec[1::2] *= -1
        # irfft of an empty spectrum returns uninitialized memory
        axis = np.fft.irfft(spec, m) if len(spec) else np.zeros(m)
        axis /= dx
        axes.append(axis)
    return functools.reduce(np.multiply.outer, axes)


def _int_power(z, n: int):
    """``z ** n`` for an integer ``n >= 1`` by binary squaring.

    At most ``2 log2(n)`` complex multiplies.  numpy's ``**`` takes the
    ``exp(n log z)`` route for large ``n``, which is slower and, against a
    60-digit reference, less accurate: up to about ``1.2 n eps`` relative,
    against about ``0.3 n eps`` for squaring.
    """
    out = None
    while True:
        if n & 1:
            out = z if out is None else out * z
        n >>= 1
        if not n:
            return out
        z = z * z


def sn_tail_bound(dist: Distribution, n: int, L: float) -> float:
    """Chebyshev bound on the mass of ``S_n`` outside ``[-L, L]^N``.

    Per 1-D factor, the summand's float cumulants up to the even order
    ``min(16, max_order)``, kept on the law for every ``n``, times
    ``n^{1-j/2}`` are those of the coordinate ``X`` of ``S_n``; the least of
    1 and the ratios ``E X^{2k} / L^{2k}`` of their float moments bounds
    ``P(|X| > L)``.  The factors' bounds add, capped at 1; a multivariate
    law that is not a product raises ``NotImplementedError``.
    """
    total = 0.0
    for law in dist.factors():
        order = min(16, law.max_order)
        order -= order % 2
        ks = law.__dict__.get("_float_cumulants")
        if ks is None:
            ms = [float(law.moment((1,) * k)) for k in range(1, order + 1)]
            ks = law.__dict__["_float_cumulants"] = moments_to_cumulants(ms)
        ms = cumulants_to_moments(
            [k * n ** (1 - j / 2.0) for j, k in enumerate(ks, start=1)])
        best = 1.0
        for m2 in range(2, order + 1, 2):
            best = min(best, max(ms[m2 - 1], 0.0) / L**m2)
        total += best
    return min(total, 1.0)


#: ``log(2^-1074)``: a spectrum entry bounded below the smallest positive
#: double is left 0 rather than computed.
_LOG_TINY = -1074 * math.log(2)


def _spectrum_prefix(law: Distribution, n: int, s) -> int:
    """Number of leading entries of the nonnegative axis ``s = t/sqrt(n)``
    on which ``phi(s)^n``, less its atomic part, may reach ``2^-1074``.

    The bound is ``e(s)^n`` with ``e`` the law's ``char_envelope``, or
    ``(e + a)^n - a^n`` for atoms of total mass ``a``, taken in logs as
    ``n log a + log expm1(n log1p(e/a))``: the plain difference cancels to 0
    once ``e < eps a``, and ``a^n`` underflows at large ``n``.  A law without
    an envelope keeps the whole axis.
    """
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


def _sn_char_fn(law: Distribution, n: int, t):
    """``phi(t/sqrt(n))^n`` of a 1-D law, less its purely atomic part, on
    the prefix of the axis ``t`` given by ``_spectrum_prefix``."""
    rt = math.sqrt(n)
    s = t / rt
    k = _spectrum_prefix(law, n, s)
    t, s = t[:k], s[:k]
    phi = _int_power(law.char_fn(s), n)
    if law.atoms:
        atomic = np.zeros_like(t, dtype=complex)
        for a, mass in law.atoms:
            atomic += mass * np.exp(1j * a * t / rt)
        phi = phi - _int_power(atomic, n)
    return phi


def law_of_sn(dist: Distribution, n: int, points: int | None = None,
              halfwidth: float = DEFAULT_HALFWIDTH) -> GridDensity:
    """Density of ``S_n = n^{-1/2} sum_k F_k`` on a centered grid.

    ``dist`` must be standardized, and a 1-D law or a product law; the
    grid has the same axis in every coordinate, with ``points`` per axis
    (``default_grid_points`` of the dimension when ``None``).  For laws
    with atoms the inversion is applied to the a.c. part of ``mu_n`` only:
    the purely atomic contribution (every summand on an atom) has
    characteristic function ``A(t/sqrt(n))^n`` and is subtracted in closed
    form, with its total weight recorded as ``singular_mass``.  Each axis's
    spectrum is evaluated up to the cut of ``_spectrum_prefix`` only; a
    law without a ``char_envelope`` is evaluated on all of it.  Raises
    :class:`AliasingDetected` when the grid fails ``GridDensity.check_mass``.
    """
    if not dist.is_standardized:
        raise ValueError("law_of_sn expects a standardized distribution")
    if n < 1:
        raise ValueError("n must be >= 1")
    # a product law's coordinates are independent: phi factors over the axes
    laws = dist.factors()
    if points is None:
        points = default_grid_points(dist.dim)
    _axis(halfwidth, points)  # reject a bad layout before computing on it
    vals = _invert_charfn([functools.partial(_sn_char_fn, law, n) for law in laws],
                          halfwidth, points)
    g = GridDensity(
        halfwidth, vals,
        tail_mass_bound=sn_tail_bound(dist, n, halfwidth),
        singular_mass=dist.singular_mass ** n,
        label=f"S_{n}[{dist.label}]",
    )
    g.check_mass()
    return g


@dataclass
class TVInterval:
    """Total variation as an interval ``[raw, raw + slack]``.

    ``slack`` covers the window tails and the singular masses only; the
    FFT's discretization error in ``raw`` is not part of the interval.
    """

    raw: float
    slack: float

    @property
    def lo(self) -> float:
        return self.raw

    @property
    def hi(self) -> float:
        return self.raw + self.slack

    @property
    def mid(self) -> float:
        return self.raw + 0.5 * self.slack

    @property
    def width(self) -> float:
        return self.slack


def tv_distance(p: GridDensity, q: GridDensity) -> TVInterval:
    """``d_TV`` between two grid densities (no 1/2 factor).

    The raw value is the grid L1 distance; the slack adds the tail bounds
    and singular masses of both arguments.  The interval accounts for the
    mass the grids do not carry, not for the discretization error of the
    grid values themselves.  Both must have the same half-width and shape.
    ``|p - q|`` is formed in one fresh array, in place; neither grid is
    written.
    """
    if (p.halfwidth, p.values.shape) != (q.halfwidth, q.values.shape):
        raise GridMismatch("grids have different layouts")
    diff = np.subtract(p.values, q.values)
    raw = float(np.abs(diff, out=diff).sum() * p.cell_volume)
    slack = p.tail_mass_bound + q.tail_mass_bound + p.singular_mass + q.singular_mass
    return TVInterval(raw, slack)
