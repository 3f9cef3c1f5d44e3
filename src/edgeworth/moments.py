"""Distribution registry and moment machinery.

Ships a small family of 1-D laws (uniform, centered exponential, Laplace,
shifted Gamma, a skewed two-component Gaussian mixture, and a partially
singular Gaussian+atom mixture), products of those for higher dimensions,
standardization to zero mean / identity covariance, and the moment tables
consumed by the operator algebra:

* ``delta(alpha) = E(F^alpha) - E(G^alpha)`` with G standard Gaussian,
  computed on first read and kept,
* the normalized 1-D ratios ``ell_t = E(F^t) / Var(F)^{t/2}``.

Moments are closed-form and exact (``Fraction``) wherever the parameters
allow it, so the corrector polynomials built downstream stay exact for the
shipped skewed laws.

The package's one rejection loop, :func:`rejection_sample`, lives here too:
``UserDensity.sample`` and the splitting's bump and residual samplers each
give it a proposal step and the closed-form acceptance rate that sizes its
rounds, and it raises :class:`RejectionStall` when the acceptance collapses.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from .exactmath import MultiIndex, ZERO, multisets

__all__ = [
    "OrderExceeded",
    "NonInvertibleCovariance",
    "gaussian_moment",
    "delta",
    "standardize",
    "Distribution",
    "Uniform",
    "Normal",
    "Exponential",
    "Laplace",
    "Gamma",
    "GaussianMixture",
    "AtomMixture",
    "UserDensity",
    "ProductDistribution",
    "MomentTable",
    "make_distribution",
    "shipped_labels",
    "fixture_table",
    "moments_to_cumulants",
    "cumulants_to_moments",
]


class OrderExceeded(Exception):
    """A moment beyond the declared maximum order was requested."""


class NonInvertibleCovariance(Exception):
    """A factor's variance is not positive; the law cannot be standardized."""


class RejectionStall(Exception):
    """Rejection sampling acceptance collapsed; the sampler is broken."""


#: Largest number of proposals one rejection round may draw.  Sized so that
#: a 2^21-summand Monte Carlo chunk finishes each sampler in one round; a
#: broken sampler (acceptance near zero) hits it and then stalls.
ROUND_CAP = 1 << 22


def _round_size(missing: int, rate: float) -> int:
    """Proposals for one rejection round at acceptance probability ``rate``.

    ``(missing + 4 sqrt(missing)) / rate`` proposals accept on average
    ``4 sqrt(missing)`` more than needed, about four binomial standard
    deviations or more, so a second round is rare.  At least 64, at most
    :data:`ROUND_CAP`.
    """
    if not rate > 0:
        return ROUND_CAP
    m = math.ceil((missing + 4.0 * math.sqrt(missing)) / rate)
    return min(max(m, 64), ROUND_CAP)


def rejection_sample(rng, size: int, rate: float, propose, name: str, tally: list,
                     shape: tuple = ()) -> np.ndarray:
    """``size`` draws by rejection rounds; ``propose(rng, m)`` returns ``(proposals, keep)``.

    The package's one rejection loop.  Each round draws enough proposals to
    finish with high probability at the closed-form acceptance ``rate``
    (Devroye 1986, II.3) and keeps the first accepted ones still missing.
    ``tally`` is the caller's ``[proposed, accepted, drawn]``, added to in
    place.  Past a million proposals of one call, a round that leaves draws
    missing at an acceptance below 1e-4 raises :class:`RejectionStall`
    naming the sampler ``name``; the round that completes the call does not.
    Zero draws take no round and give an empty array of rows of ``shape``.
    """
    parts = []
    got, proposed, accepted = 0, 0, 0
    while got < size:
        m = _round_size(size - got, rate)
        prop, keep = propose(rng, m)
        acc = prop[keep]
        take = acc[: size - got]
        parts.append(take)
        got += len(take)
        proposed += m
        accepted += len(acc)
        tally[0] += m
        tally[1] += len(acc)
        tally[2] += len(take)
        if got < size and proposed > 1_000_000 and accepted / proposed < 1e-4:
            raise RejectionStall(f"{name} sampler acceptance below 1e-4")
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty((0, *shape))


def double_factorial(n: int) -> int:
    """``n!!`` with the convention ``(-1)!! = 0!! = 1``."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _binomial_moment(z, s, c) -> Fraction:
    """Exact ``sum_j C(k, j) z_j s^j c^(k-j)``, ``k = len(z) - 1``, for
    rational (``int`` or ``Fraction``) ``z_j``, ``s`` and ``c``.

    With ``s = p/q`` and ``c = u/v``, term ``j`` is
    ``C(k, j) z_j (pv)^j (uq)^(k-j) / (qv)^k``, so over the common
    denominator ``lcm_j(den z_j) (qv)^k`` every term is an integer: the sum
    is integer products and additions, and one ``Fraction`` is built (one
    gcd) where a ``Fraction`` sum normalizes about three times per term.
    The value, and so the ``Fraction``, is the same either way.
    """
    k = len(z) - 1
    x, y = s.numerator * c.denominator, c.numerator * s.denominator
    den = math.lcm(*[zj.denominator for zj in z])
    y_powers = [1]
    for _ in range(k):
        y_powers.append(y_powers[-1] * y)
    acc, x_power = 0, 1
    for j, zj in enumerate(z):
        if zj:
            acc += (math.comb(k, j) * zj.numerator * (den // zj.denominator)
                    * x_power * y_powers[k - j])
        x_power *= x
    return Fraction(acc, den * (s.denominator * c.denominator) ** k)


def _normal_raw_moment(k: int, mu, sigma) -> Fraction:
    """``E(X^k)`` for ``X ~ N(mu, sigma^2)``, exact for exact ``mu``, ``sigma``:
    ``sum_{j even} C(k, j) (j-1)!! sigma^j mu^(k-j)``."""
    return _binomial_moment(
        [0 if j % 2 else double_factorial(j - 1) for j in range(k + 1)], sigma, mu)


def _coordinate_counts(alpha: MultiIndex, dim: int) -> tuple[int, ...]:
    counts = [0] * dim
    for a in alpha:
        if not 1 <= a <= dim:
            raise ValueError(f"coordinate {a} outside 1..{dim}")
        counts[a - 1] += 1
    return tuple(counts)


def gaussian_moment(alpha: MultiIndex, dim: int | None = None) -> Fraction:
    """``E(G^alpha)`` for a standard Gaussian in R^N.

    Nonzero only when every coordinate appears an even number of times, in
    which case it is the product of the 1-D double factorials (Isserlis
    evaluated coordinatewise, valid because the coordinates are
    independent).
    """
    if dim is None:
        dim = max(alpha, default=1)
    return Fraction(_gaussian_product_moment(_coordinate_counts(alpha, dim)))


def _gaussian_product_moment(counts) -> int:
    """``E prod_i G_i^{c_i}`` for independent standard normals ``G_i``:
    ``prod_i (c_i - 1)!!``, or 0 when some ``c_i`` is odd."""
    out = 1
    for c in counts:
        if c % 2:
            return 0
        out *= double_factorial(c - 1)
    return out


def _sqrt_exact(x) -> Fraction | None:
    """Exact square root of a nonnegative Fraction; None for anything else."""
    if not isinstance(x, Fraction) or x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def moments_to_cumulants(ms):
    """Cumulants ``k_1..k_R`` from raw moments ``m_1..m_R`` (index 0 = m_1)."""
    ms = [1] + list(ms)
    ks = [None]
    for n in range(1, len(ms)):
        acc = ms[n]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * ks[j] * ms[n - j]
        ks.append(acc)
    return ks[1:]


def cumulants_to_moments(ks):
    """Raw moments ``m_1..m_R`` from cumulants ``k_1..k_R``."""
    ks = [None] + list(ks)
    ms = [1]
    for n in range(1, len(ks)):
        acc = 0
        for j in range(1, n + 1):
            acc += math.comb(n - 1, j - 1) * ks[j] * ms[n - j]
        ms.append(acc)
    return ms[1:]


class Distribution:
    """Base class for the laws handled by the package.

    Subclasses provide a density evaluator for the absolutely continuous
    component (vectorized over numpy arrays), the characteristic function,
    a direct sampler, and, in 1-D, the hook ``_raw_moment(k)``: the raw
    moment ``E(F^k)``, exact where closed forms allow, up to ``max_order``.
    ``raw_moment`` calls the hook once per order and law and keeps the
    value.

    A 1-D law may also give ``char_envelope(t)``: a bound ``e(t)`` on the
    modulus of the characteristic function of its absolutely continuous
    part (``|phi(t)|`` for a law without atoms, ``|phi(t) - A(t)|`` with
    ``A`` the atoms' transform otherwise), vectorized over arrays and
    nonincreasing in ``|t|``.  It bounds ``char_fn`` as computed: where
    ``e`` falls below the smallest normal double, ``char_fn``'s complex
    terms are rounded to multiples of ``2^-1074``, and ``e`` covers that.  ``law_of_sn`` uses it to skip frequencies
    where ``phi^n`` cannot reach the smallest double; a law whose
    ``char_envelope`` is ``None`` (the default, and ``UserDensity``) has
    its whole spectrum evaluated.
    """

    dim = 1
    label = "distribution"
    max_order = 16
    #: ((location, mass), ...) of the atoms of the singular part, if any.
    atoms: tuple = ()
    is_standardized = False
    char_envelope = None

    @property
    def singular_mass(self) -> float:
        """Total mass of the purely atomic part: the sum of the atoms' masses."""
        return float(sum(mass for _, mass in self.atoms))

    # -- mandatory surface -------------------------------------------------
    def pdf(self, x):
        raise NotImplementedError

    def char_fn(self, t):
        raise NotImplementedError

    def raw_moment(self, k: int):
        """1-D raw moment E(F^k), computed by ``_raw_moment`` on first read."""
        memo = self.__dict__.setdefault("_raw_memo", {})
        if k not in memo:
            memo[k] = self._raw_moment(k)
        return memo[k]

    def _raw_moment(self, k: int):
        raise NotImplementedError

    @functools.cached_property
    def float_cumulants(self) -> list:
        """1-D cumulants ``k_1..k_R`` as floats, ``R`` the even order
        ``min(16, max_order)``; computed on first read and kept (the tail
        bound of ``S_n`` reads them for every ``n``)."""
        order = min(16, self.max_order)
        order -= order % 2
        return moments_to_cumulants([float(self.moment((1,) * k)) for k in range(1, order + 1)])

    def sample(self, rng, size):
        """``size`` independent draws.  The array is the caller's: a new one
        per call, which the caller may overwrite (``standardize`` does)."""
        raise NotImplementedError

    # -- generic helpers ---------------------------------------------------
    def sample_parts(self, rng, size):
        """Draws plus a mask flagging which draws landed on an atom; both
        new arrays per call, as for ``sample``."""
        return self.sample(rng, size), np.zeros(size, dtype=bool)

    def moment(self, alpha: MultiIndex):
        """E(F^alpha) for a multiindex over coordinates {1..dim}."""
        if len(alpha) > self.max_order:
            raise OrderExceeded(f"|alpha|={len(alpha)} > max_order={self.max_order}")
        counts = _coordinate_counts(alpha, self.dim)
        # no start value: in 1-D the factor's own moment is returned, with no
        # ``1 * Fraction`` (which tripled the cost of a 1-D moment)
        return functools.reduce(operator.mul, [
            f.raw_moment(k) for f, k in zip(self.factors(), counts)])

    def factors(self) -> list:
        """The 1-D laws whose product is this law: ``[self]`` in 1-D.

        Raises ``NotImplementedError`` for a multivariate law that is not a
        product; the grid, tail-bound, splitting and standardization paths
        support no other.
        """
        if self.dim == 1:
            return [self]
        raise NotImplementedError(
            f"{self.label}: beyond 1-D only product laws are supported")

    def central_moment(self, k: int):
        """1-D central moment ``sum_j C(k, j) E(F^j) (-mu)^(k-j)``.

        Exact raw moments give the exact ``Fraction`` of
        ``_binomial_moment``: integer terms over one common denominator.
        Float raw moments (``UserDensity``) are summed as floats, term by
        term in order of ``j``.  The raw moments are memoized, so each is
        computed once whatever the order asked for.
        """
        mu = self.raw_moment(1)
        z = [self.raw_moment(j) for j in range(k + 1)]
        if all(isinstance(v, (int, Fraction)) for v in (mu, *z)):
            return _binomial_moment(z, 1, -mu)
        acc = 0
        for j in range(k + 1):
            acc += math.comb(k, j) * z[j] * (-mu) ** (k - j)
        return acc

    # -- convenience -------------------------------------------------------
    def support(self):
        """(lo, hi) bounds for density scans; subclasses may tighten."""
        return (-12.0, 12.0)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label!r}>"


def standardize(dist: Distribution) -> Distribution:
    """The law of ``A(F)(F - E F)`` with ``A(F) = C(F)^{-1/2}``: zero mean
    and identity covariance.

    Every supported law is 1-D or a product of 1-D laws, so ``C(F)`` is
    diagonal and each factor is standardized on its own.  A factor must be
    a probability law (a user density must integrate to 1, within 1e-9) or
    ``ValueError`` is raised, and :class:`NonInvertibleCovariance` is
    raised when its variance is not positive.
    """
    if dist.dim > 1:
        return ProductDistribution([standardize(c) for c in dist.factors()])
    return _Standardized1D(dist)


class _Standardized1D(Distribution):
    """Affine image ``(F - mean) / std`` of a 1-D probability law."""

    def __init__(self, base: Distribution):
        mass = base.raw_moment(0)
        if abs(mass - 1) > 1e-9:
            raise ValueError(f"{base.label} has mass {mass}; a probability law has mass 1")
        self._var = base.central_moment(2)
        if not self._var > 0:
            raise NonInvertibleCovariance(
                f"variance {self._var} of {base.label} is degenerate: it must be > 0")
        self.base = base
        self.label = base.label
        self.max_order = base.max_order
        self._mu_f = float(base.raw_moment(1))
        self._sd_f = math.sqrt(float(self._var))
        self._sd_exact = _sqrt_exact(self._var)
        self.atoms = tuple(
            ((float(a) - self._mu_f) / self._sd_f, m) for a, m in base.atoms
        )
        self.is_standardized = True

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._sd_f * self.base.pdf(self._sd_f * x + self._mu_f)

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-1j * self._mu_f / self._sd_f * t) * self.base.char_fn(
            t / self._sd_f
        )

    @property
    def char_envelope(self):
        """``e_base(|t| / sd)``, or ``None`` when the base law has no envelope."""
        env = self.base.char_envelope
        if env is None:
            return None
        sd = self._sd_f
        return lambda t: env(np.abs(np.asarray(t, dtype=float)) / sd)

    def _raw_moment(self, k: int):
        """Exact where the base law allows."""
        if k == 0:
            return Fraction(1)
        c = self.base.central_moment(k)
        if c == 0:
            return ZERO
        exact = isinstance(c, Fraction) and isinstance(self._var, Fraction)
        if exact and k % 2 == 0:
            return c / self._var ** (k // 2)
        if exact and self._sd_exact is not None:
            return c / self._var ** ((k - 1) // 2) / self._sd_exact
        return float(c) / self._sd_f**k

    def sample(self, rng, size):
        return self._standardize(self.base.sample(rng, size))

    def sample_parts(self, rng, size):
        vals, mask = self.base.sample_parts(rng, size)
        return self._standardize(vals), mask

    def _standardize(self, vals):
        """``(vals - mean) / std``: the same bits as the out-of-place
        expression, computed in place when ``vals`` is a writable float array
        that owns its data, and on a copy otherwise."""
        vals = np.asarray(vals, dtype=float)
        if not (vals.flags.writeable and vals.flags.owndata):
            vals = vals.copy()
        vals -= self._mu_f
        vals /= self._sd_f
        return vals

    def support(self):
        lo, hi = self.base.support()
        return ((lo - self._mu_f) / self._sd_f, (hi - self._mu_f) / self._sd_f)


def _require_positive(law: str, **params) -> None:
    """Raise ``ValueError`` naming the first parameter that is not > 0."""
    for name, value in params.items():
        if not value > 0:
            raise ValueError(f"{law} parameter {name} must be > 0, got {value}")


class Uniform(Distribution):
    def __init__(self, a=0, b=1):
        self.a, self.b = Fraction(a), Fraction(b)
        if not self.a < self.b:
            raise ValueError(f"uniform parameters need a < b, got a={a}, b={b}")
        self.label = f"uniform({a},{b})"
        self._af, self._bf = float(a), float(b)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self._af) & (x <= self._bf)
        return np.where(inside, 1.0 / (self._bf - self._af), 0.0)

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t, dtype=complex)
        # phi = 1 to double precision below 1e-300, where the complex
        # division would overflow
        nz = np.abs(t) * (self._bf - self._af) > 1e-300
        tz = t[nz]
        out[nz] = (np.exp(1j * tz * self._bf) - np.exp(1j * tz * self._af)) / (
            1j * tz * (self._bf - self._af)
        )
        return out

    def char_envelope(self, t):
        """``min(1, 2 / ((b - a)|t|))``: ``|sin(u)/u| <= min(1, 1/|u|)``."""
        t = np.abs(np.asarray(t, dtype=float))
        return 2.0 / np.maximum((self._bf - self._af) * t, 2.0)

    def _raw_moment(self, k):
        return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))

    def sample(self, rng, size):
        return rng.uniform(self._af, self._bf, size)

    def support(self):
        return (self._af, self._bf)


#: Bound on the rounding of one complex Gaussian term of ``char_fn``, and
#: of a standardizing phase, below the smallest normal double: there each
#: part is rounded to a multiple of ``2^-1074`` instead of relative to its
#: size, and the float modulus of ``w e^{imt - s^2 t^2/2}`` can exceed
#: ``w e^{-s^2 t^2/2}`` by a unit.  Eight units cover the exp, the weight, the
#: sum and the phase, each half a unit per part, and the envelope's own
#: rounding.
_TERM_ROUNDING = 8 * 2.0**-1074


class Normal(Distribution):
    def __init__(self, mu=0, sigma=1):
        self.mu, self.sigma = Fraction(mu), Fraction(sigma)
        _require_positive("normal", sigma=self.sigma)
        self._muf, self._sf = float(mu), float(sigma)
        self.label = f"normal({mu},{sigma})"
        self.is_standardized = mu == 0 and sigma == 1

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self._muf) / self._sf
        return np.exp(-0.5 * z * z) / (self._sf * math.sqrt(2 * math.pi))

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * self._muf * t - 0.5 * (self._sf * t) ** 2)

    def char_envelope(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * (self._sf * t) ** 2) + _TERM_ROUNDING

    def _raw_moment(self, k):
        return _normal_raw_moment(k, self.mu, self.sigma)

    def sample(self, rng, size):
        return rng.normal(self._muf, self._sf, size)


class Exponential(Distribution):
    """Exp(rate); the standardized version is the centered exponential."""

    def __init__(self, rate=1):
        self.rate = Fraction(rate)
        _require_positive("exponential", rate=self.rate)
        self._rf = float(rate)
        self.label = f"exponential({rate})"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self._rf * np.exp(-self._rf * np.clip(x, 0, None)), 0.0)

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 / (1.0 - 1j * t / self._rf)

    def char_envelope(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 / np.sqrt(1.0 + (t / self._rf) ** 2)

    def _raw_moment(self, k):
        return Fraction(math.factorial(k)) / self.rate**k

    def sample(self, rng, size):
        return rng.exponential(1.0 / self._rf, size)

    def support(self):
        return (0.0, 40.0 / self._rf)


class Laplace(Distribution):
    def __init__(self, mu=0, b=1):
        self.mu, self.b = Fraction(mu), Fraction(b)
        _require_positive("laplace", b=self.b)
        self._muf, self._bf = float(mu), float(b)
        self.label = f"laplace({mu},{b})"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x - self._muf) / self._bf) / (2 * self._bf)

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * self._muf * t) / (1.0 + (self._bf * t) ** 2)

    def char_envelope(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 / (1.0 + (self._bf * t) ** 2)

    def _raw_moment(self, k):
        """``sum_{j even} C(k, j) j! b^j mu^(k-j)``."""
        return _binomial_moment(
            [0 if j % 2 else math.factorial(j) for j in range(k + 1)], self.b, self.mu)

    def sample(self, rng, size):
        return rng.laplace(self._muf, self._bf, size)


class Gamma(Distribution):
    def __init__(self, shape=4, scale=1):
        self.shape, self.scale = Fraction(shape), Fraction(scale)
        _require_positive("gamma", shape=self.shape, scale=self.scale)
        self._kf, self._sf = float(shape), float(scale)
        self.label = f"gamma({shape},{scale})"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        out = np.zeros_like(x)
        xp = x[pos]
        out[pos] = (
            xp ** (self._kf - 1)
            * np.exp(-xp / self._sf)
            / (math.gamma(self._kf) * self._sf**self._kf)
        )
        return out

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(1.0 - 1j * self._sf * t, -self._kf)

    def char_envelope(self, t):
        """``(1 + s^2 t^2)^(-k/2)``, through ``exp`` and ``log1p``: numpy's
        ``**`` with a fractional exponent is a C ``pow`` per element."""
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * self._kf * np.log1p((self._sf * t) ** 2))

    def _raw_moment(self, k):
        """``m_k = m_(k-1) (shape + k - 1) scale``, from the kept ``m_(k-1)``."""
        if k == 0:
            return Fraction(1)
        for j in range(1, k):  # lowest first: a cold high order recurses one level
            self.raw_moment(j)
        return self.raw_moment(k - 1) * (self.shape + k - 1) * self.scale

    def sample(self, rng, size):
        return rng.gamma(self._kf, self._sf, size)

    def support(self):
        return (0.0, self._sf * (self._kf + 40.0 * math.sqrt(self._kf)))


class GaussianMixture(Distribution):
    """Two-component (or more) Gaussian mixture; skewed by default."""

    def __init__(self, weights=(Fraction(3, 10), Fraction(7, 10)),
                 means=(-1, Fraction(3, 7)), sigmas=(Fraction(1, 2), 1)):
        if not len(weights) == len(means) == len(sigmas):
            raise ValueError("gauss_mixture parameters weights, means and sigmas "
                             "need one entry per component")
        weights = [Fraction(w) for w in weights]
        total = sum(weights)
        if min(weights) < 0 or not total > 0:
            raise ValueError("gauss_mixture parameter weights must be >= 0 with a "
                             f"positive total, got {[str(w) for w in weights]}")
        self.weights = tuple(w / total for w in weights)
        self.means = tuple(Fraction(m) for m in means)
        self.sigmas = tuple(Fraction(s) for s in sigmas)
        _require_positive("gauss_mixture", sigmas=min(self.sigmas))
        self._wf = np.array([float(w) for w in self.weights])
        self._mf = np.array([float(m) for m in self.means])
        self._sf = np.array([float(s) for s in self.sigmas])
        self.label = "gauss_mixture"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        z = (x - self._mf) / self._sf
        comp = np.exp(-0.5 * z * z) / (self._sf * math.sqrt(2 * math.pi))
        return comp @ self._wf

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        out = 0.0
        for w, m, s in zip(self._wf, self._mf, self._sf):
            out = out + w * np.exp(1j * m * t - 0.5 * (s * t) ** 2)
        return out

    def char_envelope(self, t):
        t = np.asarray(t, dtype=float)
        out = len(self._wf) * _TERM_ROUNDING
        for w, s in zip(self._wf, self._sf):
            out = out + w * np.exp(-0.5 * (s * t) ** 2)
        return out

    def _raw_moment(self, k):
        acc = ZERO
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            acc += w * _normal_raw_moment(k, m, s)
        return acc

    def sample(self, rng, size):
        idx = rng.choice(len(self._wf), size=size, p=self._wf)
        return rng.normal(self._mf[idx], self._sf[idx])


class AtomMixture(Distribution):
    """``p * N(0,1) + (1-p) * delta_c``: a law with an a.c. component only.

    Exercises the "absolutely continuous component" hypothesis: the
    singular part is a point mass that the splitting construction must
    route entirely into the residual law.
    """

    def __init__(self, p=Fraction(7, 10), atom=2):
        self.p = Fraction(p)
        if not 0 <= self.p <= 1:
            raise ValueError(f"atom_mixture parameter p must be in [0, 1], got {p}")
        self.atom = Fraction(atom)
        self._pf, self._af = float(self.p), float(self.atom)
        self.atoms = ((self._af, 1.0 - self._pf),)
        self.label = f"atom_mixture({p},{atom})"

    def pdf(self, x):
        # density of the a.c. component only
        x = np.asarray(x, dtype=float)
        return self._pf * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        return self._pf * np.exp(-0.5 * t * t) + (1 - self._pf) * np.exp(
            1j * self._af * t
        )

    def char_envelope(self, t):
        """``p e^{-t^2/2}``: the transform of the a.c. part, exactly."""
        t = np.asarray(t, dtype=float)
        return self._pf * np.exp(-0.5 * t * t)

    def _raw_moment(self, k):
        return self.p * _normal_raw_moment(k, ZERO, 1) + (1 - self.p) * self.atom**k

    def sample(self, rng, size):
        vals, _ = self.sample_parts(rng, size)
        return vals

    def sample_parts(self, rng, size):
        atomic = rng.random(size) >= self._pf
        vals = rng.normal(0.0, 1.0, size)
        vals[atomic] = self._af
        return vals, atomic


#: Side of the kernel blocks that ``UserDensity.char_fn`` builds: 64
#: frequencies at a time, against runs of 64 consecutive nodes.
CHAR_FN_BLOCK = 64


class UserDensity(Distribution):
    """User-supplied 1-D density; moments by adaptive quadrature (1e-12)."""

    def __init__(self, pdf, support, label="user", max_order=10):
        self._pdf = pdf
        self._support = (float(support[0]), float(support[1]))
        self.label = label
        self.max_order = max_order
        self._nodes = None

    def pdf(self, x):
        return np.asarray(self._pdf(np.asarray(x, dtype=float)), dtype=float)

    def _raw_moment(self, k):
        from scipy import integrate

        lo, hi = self._support
        val, _ = integrate.quad(
            lambda x: x**k * float(self._pdf(x)), lo, hi,
            epsabs=1e-12, epsrel=1e-12, limit=400,
        )
        return val

    def char_fn(self, t):
        """Trapezoid rule over 8193 support points, factored by node runs.

        The nodes are ``x_{bB+c} = x_{bB} + c h`` with ``B = CHAR_FN_BLOCK``,
        so ``e^{itx} = e^{itx_{bB}} e^{itch}``: for each block of ``B``
        frequencies one ``B x B`` matrix of offset phases times the weights
        arranged by run is a single matrix product, and the run starts'
        phases finish the sum.  That is about ``B + 8192/B`` complex
        exponentials per frequency instead of 8193 cosines and sines, and
        memory does not grow with the number of frequencies.  The nodes and
        the weighted density values are computed once per instance.
        """
        if self._nodes is None:
            lo, hi = self._support
            xs = np.linspace(lo, hi, 8193)
            half = 0.5 * np.diff(xs)
            wf = (np.append(half, 0.0) + np.insert(half, 0, 0.0)) * self.pdf(xs)
            # column b holds run b, nodes bB .. bB + B - 1; the last run is
            # the last node alone, padded with zero weights
            runs = np.append(wf, np.zeros(CHAR_FN_BLOCK - 1)).reshape(-1, CHAR_FN_BLOCK).T
            offsets = (hi - lo) / 8192 * np.arange(CHAR_FN_BLOCK)
            self._nodes = (xs[::CHAR_FN_BLOCK], offsets, runs.astype(complex))
        starts, offsets, runs = self._nodes
        t = np.atleast_1d(np.asarray(t, dtype=float))
        flat = t.ravel()
        out = np.empty(flat.size, dtype=complex)
        for s in range(0, flat.size, CHAR_FN_BLOCK):
            tb = flat[s:s + CHAR_FN_BLOCK]
            part = np.exp(1j * np.outer(tb, offsets)) @ runs
            out[s:s + CHAR_FN_BLOCK] = (part * np.exp(1j * np.outer(tb, starts))).sum(axis=1)
        return out.reshape(t.shape)

    def sample(self, rng, size):
        """Rejection from a uniform envelope ``cap`` over the support, at the
        closed-form acceptance ``1 / (cap (hi - lo))``.

        ``cap`` is 1.05 x the largest density on 4097 scan points; a round
        with a proposal's density above it raises ``ValueError``, since the
        scan missed the peak and the draws would be wrong.
        """
        lo, hi = self._support
        cap = float(np.max(self.pdf(np.linspace(lo, hi, 4097)))) * 1.05
        if not cap > 0:
            raise ValueError(f"{self.label}: density is not positive at any of "
                             f"4097 points of its support {self._support}")

        def propose(rng, m):
            prop = rng.uniform(lo, hi, m)
            dens = self.pdf(prop)
            if dens.max() > cap:
                raise ValueError(f"{self.label}: density {dens.max():.4g} > envelope {cap:.4g}")
            return prop, rng.uniform(0, cap, m) < dens

        return rejection_sample(rng, size, 1 / (cap * (hi - lo)), propose, self.label, [0] * 3)

    def support(self):
        return self._support


class ProductDistribution(Distribution):
    """Independent product of 1-D laws; the multi-D registry entries."""

    def __init__(self, children):
        self.children = list(children)
        self.dim = len(self.children)
        if self.dim < 2 or self.dim > 3:
            # a 1-D law is its own one-factor case through factors()
            raise ValueError("product laws supported for 2 <= N <= 3")
        self.label = "*".join(c.label for c in self.children)
        self.max_order = min(c.max_order for c in self.children)
        self.is_standardized = all(c.is_standardized for c in self.children)
        if any(c.atoms for c in self.children):
            raise ValueError("product laws require absolutely continuous factors")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 1.0
        for i, c in enumerate(self.children):
            out = out * c.pdf(x[..., i])
        return out

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        out = 1.0 + 0j
        for i, c in enumerate(self.children):
            out = out * c.char_fn(t[..., i])
        return out

    def factors(self) -> list:
        return self.children

    def sample(self, rng, size):
        return np.stack([c.sample(rng, size) for c in self.children], axis=-1)


def delta(dist: Distribution, alpha: MultiIndex):
    """Moment difference ``E(F^alpha) - E(G^alpha)`` for a standardized law.

    Exactly zero for ``|alpha| <= 2`` (that is what standardization means);
    raises :class:`OrderExceeded` past the law's declared order.
    """
    if len(alpha) <= 2:
        return ZERO
    return dist.moment(alpha) - gaussian_moment(alpha, dist.dim)


class MomentTable:
    """``delta`` values up to an order, each computed on its first read.

    The table is what the operator algebra consumes; its one source is
    ``delta`` of a standardized distribution or the closed-form fixture
    (which drives the exact identity tests).
    Multiindex keys are canonicalized by sorting, which is sound because
    moments are symmetric under permutation of the index.

    The memos, ``delta``'s entries and the operator cache
    (``cache_get_or_build``), are plain dicts, filled on first read.
    """

    def __init__(self, dim, max_order, source):
        self.dim = dim
        self.max_order = max_order
        self._source = source
        self._deltas: dict = {}
        self._cache: dict = {}

    @classmethod
    def from_distribution(cls, dist: Distribution, max_order: int) -> "MomentTable":
        if not dist.is_standardized:
            raise ValueError("moment tables require a standardized distribution")
        if max_order > dist.max_order:
            raise OrderExceeded(
                f"requested order {max_order} > declared {dist.max_order}"
            )
        return cls(dist.dim, max_order, functools.partial(delta, dist))

    def delta(self, alpha: MultiIndex):
        if len(alpha) <= 2:
            return ZERO
        if len(alpha) > self.max_order:
            raise OrderExceeded(f"|alpha|={len(alpha)} > max_order={self.max_order}")
        key = tuple(sorted(alpha))
        try:
            return self._deltas[key]
        except KeyError:
            if not 1 <= key[0] <= key[-1] <= self.dim:
                raise ValueError(f"coordinates of {alpha} outside 1..{self.dim}") from None
            value = self._deltas[key] = self._source(key)
            return value

    def ell(self, t: int):
        """Normalized moment ``ell_t = E(F^t)`` of the standardized 1-D law:
        ``delta_{(1,...,1)}`` plus the Gaussian moment."""
        if self.dim != 1:
            raise ValueError("ell ratios are 1-D only")
        ones = (1,) * t
        return self.delta(ones) + gaussian_moment(ones, 1)

    def sup_delta(self, r: int) -> float:
        """``sup_{|alpha| <= r} |delta_alpha|``."""
        return max((abs(float(self.delta(alpha)))
                    for t in range(3, min(r, self.max_order) + 1)
                    for alpha in multisets(self.dim, t)), default=0.0)

    def cache_sizes(self) -> dict[str, int]:
        """Entry count per cache family, read without side effects.

        A family is the first element of the cache keys its builder uses:
        ``psi`` and ``a``, which the other operators and ``K_m`` are built
        from, and ``c``; families with no entries are absent.
        """
        return dict(Counter(key[0] for key in self._cache))

    def cache_get_or_build(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


_REGISTRY = {
    "uniform": Uniform,
    "exponential": Exponential,
    "laplace": Laplace,
    "gamma": Gamma,
    "gauss_mixture": GaussianMixture,
    "atom_mixture": AtomMixture,
    "normal": Normal,
}


def _parse_one(spec: str) -> Distribution:
    spec = spec.strip()
    m = re.fullmatch(r"([a-z_0-9]+)(?:\((.*)\))?", spec)
    if not m:
        raise ValueError(f"cannot parse distribution spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in _REGISTRY:
        raise ValueError(f"unknown distribution {name!r}; known: {sorted(_REGISTRY)}")
    kwargs = {}
    if argstr:
        for part in argstr.split(","):
            key, _, val = part.partition("=")
            if not _:
                raise ValueError(f"expected key=value in {part!r}")
            kwargs[key.strip()] = Fraction(val.strip())
    return standardize(_REGISTRY[name](**kwargs))


def make_distribution(spec: str) -> Distribution:
    """Build a standardized distribution from a name like ``exponential``.

    Optional parameters use ``name(key=value,...)`` with rational values;
    ``*`` joins factors into an independent product (dimension <= 3), e.g.
    ``exponential*uniform``.
    """
    parts = spec.split("*")
    if len(parts) == 1:
        return _parse_one(parts[0])
    return ProductDistribution([_parse_one(p) for p in parts])


def shipped_labels():
    """Names of the registry laws."""
    return ["uniform", "exponential", "laplace", "gamma", "gauss_mixture", "atom_mixture"]


def _fixture_delta(alpha: MultiIndex) -> Fraction:
    t, s = len(alpha), sum(alpha)
    return Fraction((-1) ** t * (1 + s + t), 2 + (t + s) % 5)


def fixture_table(dim: int, max_order: int = 9) -> "MomentTable":
    """Rational fixture table driving the exact operator-identity tests.

    Arbitrary nonzero Fractions in closed form per multiindex; permutation
    symmetry and the vanishing below order 3 hold by construction.
    """
    return MomentTable(dim, max_order, _fixture_delta)
