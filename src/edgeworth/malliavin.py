"""Explicit Malliavin objects for the normalized sum over splitting noise.

With summands ``F_k = chi_k V_k + (1 - chi_k) W_k`` the derivative
calculus with respect to the smooth noise ``V`` is fully explicit:

* ``D_{(k,i)} S_n^l = n^{-1/2} chi_k 1_{l=i}``, so the covariance is
  ``sigma_{S_n} = (sum_k chi_k / n) I`` and its lowest eigenvalue is the
  Bernoulli average itself,
* the Ornstein-Uhlenbeck image is
  ``L S_n^l = -n^{-1/2} sum_k chi_k d_l ln psi_{r0/2}(|V_k - v0|)``
  (zero whenever every active ``V_k`` sits on the localizer plateau),
* the first-order integration-by-parts weight, localized by a ramp
  ``phi(det sigma)`` supported above ``eps*/2``, collapses to
  ``H_i = phi(det sigma) (n / sum chi) L S_n^i`` because the inverse
  covariance is measurable with respect to the Bernoulli draws alone.

So a sample needs only ``(S_n, sum chi, L S_n)``: :func:`sn_batch` draws
them in batches in every dimension, and :func:`ibp_weight` turns the last
two into ``H``.  :func:`ibp_battery` evaluates ``phi`` once per chunk and
derives ``H`` from it through the same step.  A batch draws its ``V`` and ``W`` summands flat, sample
after sample, and sums each sample's rows as one run (run lengths
``sum chi`` and ``n - sum chi``); numpy adds within a run pairwise.  The
module verifies the resulting identity
``E(f'(S_n) phi) = E(f(S_n) H)`` by Monte Carlo for 1-D laws, with both
sides evaluated on one paired stream of draws and gated by the standard
error of their difference; the covariance-degeneracy tail against the
exact binomial law; and, in exact arithmetic, the backward Gaussian Taylor
formula that powers the expansion's moment bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correctors import gaussian_expect_poly
from .opalg import MultiPoly
from .splitting import SplitRep

__all__ = [
    "DegenerateSigma",
    "epsilon_star",
    "smooth_ramp",
    "localizer",
    "ibp_weight",
    "IbpReport",
    "ibp_battery",
    "default_test_functions",
    "SigmaTailReport",
    "sigma_tail",
    "backward_taylor_check",
    "sn_batch",
]


#: Most samples one ``ibp_battery`` chunk draws; ``SUMMAND_BUDGET`` caps
#: it further for large ``n``.
CHUNK_SAMPLES = 200_000

#: Most summands ``ibp_battery`` draws per chunk (samples times ``n``).
SUMMAND_BUDGET = 1 << 21


class DegenerateSigma(Exception):
    """Nonzero localizer met a draw with no active smooth noise."""


def epsilon_star(rep: SplitRep) -> float:
    """Degeneracy threshold ``2^{-N} m0^N`` for the covariance determinant."""
    return (rep.m0 / 2.0) ** rep.dim


def smooth_ramp(x, lo: float, hi: float):
    """C^1 ramp: 0 below ``lo``, 1 above ``hi``, cubic smoothstep between."""
    u = np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    out = u * u * (3.0 - 2.0 * u)
    return out if out.shape else float(out)


def localizer(rep: SplitRep, det_sigma):
    """The IBP localizer ``phi``: zero below ``eps*/2``, one above ``eps*``."""
    es = epsilon_star(rep)
    return smooth_ramp(det_sigma, es / 2.0, es)


def _phi(rep: SplitRep, n: int, counts):
    """The localizer at ``det sigma = (sum chi / n)^N`` for each sample."""
    return localizer(rep, (counts / n) ** rep.dim)


def ibp_weight(rep: SplitRep, n: int, counts, ls) -> np.ndarray:
    """First-order IBP weight ``H = phi(det sigma) (n / sum chi) L S_n``.

    ``counts`` and ``ls`` are the ``sum chi`` and ``L S_n`` of
    :func:`sn_batch`; ``H`` has the shape of ``ls``.  It is zero where the
    localizer vanishes, whatever the noise.  A nonzero localizer on a draw
    with no active noise is a contract violation (the localizer must be
    supported above ``eps*/2 > 0``) and raises :class:`DegenerateSigma`.
    """
    return _weight(_phi(rep, n, counts), n, counts, ls)


def _weight(phi, n: int, counts, ls) -> np.ndarray:
    """``H`` of :func:`ibp_weight` from the localizer values ``phi`` of the samples."""
    if np.any((phi > 0) & (counts == 0)):
        raise DegenerateSigma("localizer is nonzero on a fully degenerate draw")
    return np.where(counts > 0, phi * n / np.maximum(counts, 1) * ls.T, 0.0).T


def _run_sums(vals: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of rows of ``vals``, ``lengths[j]`` rows in run ``j``.

    ``lengths`` must add up to ``len(vals)``; an empty run sums to 0.  One
    ``np.add.reduceat`` at the starts of the nonempty runs sums every
    coordinate: the starts strictly increase and the last nonempty run ends
    at the last row, so each reduceat segment is one run.  Within a run
    numpy adds pairwise.
    """
    out = np.zeros((len(lengths), *vals.shape[1:]))
    if not len(vals):
        return out
    full = lengths > 0
    starts = np.cumsum(lengths) - lengths
    out[full] = np.add.reduceat(vals, starts[full], axis=0)
    return out


def sn_batch(rep: SplitRep, n: int, size: int, rng):
    """Vectorized draws of ``(S_n, sum chi, L S_n)``.

    Avoids materializing the per-summand matrix: the Bernoulli count per
    sample is drawn directly, then all the ``V`` draws and all the ``W``
    draws flat, sample after sample.  Sample ``j`` owns the next
    ``counts[j]`` rows of ``V`` and the next ``n - counts[j]`` rows of
    ``W``, so its sums are run-length sums (:func:`_run_sums`) over those
    rows, in every dimension at once; no per-summand index is built.
    Each run is added pairwise by numpy, so ``S_n`` and ``L S_n`` may
    differ from a sequential sum by rounding.  ``S_n`` and ``L S_n`` have
    shape ``(size, *np.shape(rep.v0))``, a row per sample in every dimension.
    """
    counts = rng.binomial(n, rep.m0, size)
    tot_v = int(counts.sum())
    tot_w = n * size - tot_v
    sums = np.zeros((size, *np.shape(rep.v0)))
    ls = np.zeros_like(sums)
    v = rep.sample_v(rng, tot_v)  # zero draws take no round
    sums += _run_sums(v, counts)
    ls -= _run_sums(rep.log_psi_gradient(v), counts)
    del v  # not alive while W is drawn
    sums += _run_sums(rep.sample_w(rng, tot_w), n - counts)
    rt = math.sqrt(n)
    return sums / rt, counts, ls / rt


@dataclass
class IbpReport:
    """Monte Carlo comparison of the two sides of the localized IBP.

    Both sides are means over the same draws: ``lhs_se`` and ``rhs_se``
    are their marginal standard errors, and ``diff_se`` is the standard
    error of the paired difference ``f'(S_n) phi - f(S_n) H``.
    """

    label: str
    n: int
    samples: int
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    diff_se: float

    @property
    def z_score(self) -> float:
        return abs(self.lhs - self.rhs) / self.diff_se


def default_test_functions():
    """The smooth 1-D battery: (label, f, analytic derivative)."""
    return [
        ("sin", np.sin, np.cos),
        ("x", lambda x: x, lambda x: np.ones_like(x)),
        ("x^2", lambda x: x * x, lambda x: 2 * x),
        (
            "x*exp(-x^2/2)",
            lambda x: x * np.exp(-0.5 * x * x),
            lambda x: (1 - x * x) * np.exp(-0.5 * x * x),
        ),
    ]


def ibp_battery(rep: SplitRep, n: int, funcs, samples: int, rng) -> list[IbpReport]:
    """Run the localized IBP check for several test functions at once.

    One stream of draws serves both sides and the whole battery: on each
    draw of ``(S_n, sum chi, L S_n)`` every function gives its left value
    ``f'(S_n) phi``, its right value ``f(S_n) H`` and their difference, and
    the three accumulate streaming sums and sums of squares.  The paired
    difference's standard error is the one the z-score divides by.  A chunk
    holds at most ``CHUNK_SAMPLES`` samples and ``SUMMAND_BUDGET`` summands,
    so memory stays bounded for large ``n``.  The test functions act on a
    scalar ``S_n``, so ``rep`` must be 1-D.
    """
    if rep.dim != 1:
        raise NotImplementedError("the IBP battery's test functions are 1-D")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 to estimate a standard error, got {samples}")
    chunk = max(1, min(CHUNK_SAMPLES, SUMMAND_BUDGET // n))
    # rows: left side, right side, paired difference; one column per function
    sums = np.zeros((3, len(funcs)))
    sqs = np.zeros((3, len(funcs)))
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        s, counts, ls = sn_batch(rep, n, m, rng)
        phi = _phi(rep, n, counts)
        weight = _weight(phi, n, counts, ls)
        for j, (_, f, df) in enumerate(funcs):
            left = df(s) * phi
            right = f(s) * weight
            vals = np.stack([left, right, left - right])
            sums[:, j] += vals.sum(axis=1)
            sqs[:, j] += (vals * vals).sum(axis=1)
        done += m
    means = sums / samples
    ses = np.sqrt(np.maximum(sqs / samples - means**2, 0.0) / samples)
    return [IbpReport(label, n, samples, means[0, j], ses[0, j], means[1, j], ses[1, j],
                      ses[2, j])
            for j, (label, _, _) in enumerate(funcs)]


@dataclass
class SigmaTailReport:
    """Degeneracy probability: Monte Carlo vs exact binomial vs Chernoff bound."""

    n: int
    samples: int
    threshold: int          # the event is {sum chi <= threshold}
    estimate: float
    se: float
    exact: float            # binomial CDF oracle
    bound: float            # Chernoff bound exp(-n D(threshold/n || m0))

    @property
    def z_score(self) -> float:
        se = max(self.se, 1e-300)
        return abs(self.estimate - self.exact) / se


def _tail_threshold(rep: SplitRep, n: int) -> int:
    """Largest ``sum chi`` with ``det sigma <= eps*/2``: ``floor(n (eps*/2)^{1/N})``."""
    return int(math.floor(n * (epsilon_star(rep) / 2.0) ** (1.0 / rep.dim) + 1e-12))


def sigma_tail(rep: SplitRep, n: int, samples: int, rng) -> SigmaTailReport:
    """``P(det sigma_{S_n} <= eps*/2)`` three ways.

    The event is exactly ``{sum chi <= k}`` with ``k = floor(n (eps*/2)^{1/N})``
    and ``sum chi ~ Bin(n, m0)``, so the binomial CDF is an exact oracle.
    The bound is Chernoff's ``exp(-n D(k/n || m0))``, with ``D`` the
    Bernoulli relative entropy (Chernoff 1952; Hoeffding 1963).  It holds
    for ``k <= n m0``, which is always the case here:
    ``k/n <= (eps*/2)^{1/N} = m0 2^{-1-1/N} < m0/2``.  It needs no fitted
    constant and holds at every ``n``; where ``k = 0`` it equals the exact
    tail ``(1 - m0)^n``.  The Monte Carlo half draws
    ``rng.binomial(n, m0)``, so it checks numpy's generator against
    ``special.bdtr``, not the splitting's own ``chi`` stream.
    """
    from scipy import special

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    thr = _tail_threshold(rep, n)
    counts = rng.binomial(n, rep.m0, samples)
    hits = int(np.sum(counts <= thr))
    est = hits / samples
    exact = float(special.bdtr(thr, n, rep.m0))
    # SE under the oracle probability: valid even when no hit is observed
    se = math.sqrt(max(exact * (1 - exact), est * (1 - est)) / samples)
    q = thr / n
    bound = math.exp(-n * (special.rel_entr(q, rep.m0) + special.rel_entr(1 - q, 1 - rep.m0)))
    return SigmaTailReport(n, samples, thr, est, se, exact, bound)


def backward_taylor_check(g: MultiPoly, L: int) -> float:
    """Residual of the backward Gaussian Taylor identity for a 1-D polynomial.

    ``g(0) = sum_{l=0}^{L} (-1)^l/(2^l l!) E(g^{(2l)}(G))
            + (-1)^{L+1}/(2^{L+1} L!) int_0^1 s^L E(g^{(2L+2)}(sqrt(s) G)) ds``.
    Every term is a Gaussian moment (:func:`gaussian_expect_poly`): the
    monomial ``x^e`` of the remainder gives ``E(sqrt(s) G)^e = s^{e/2} (e-1)!!``
    and ``int_0^1 s^{L+e/2} ds = 2/(2L+e+2)``.  For rational coefficients
    the residual ``|lhs - rhs|`` is exact, so it is 0 when the identity
    holds; it is returned as a ``float``.
    """
    if g.dim != 1:
        raise ValueError("backward Taylor check is 1-D")
    if L < 0:
        raise ValueError("L must be >= 0")
    rhs = sum(Fraction((-1) ** level, 2**level * math.factorial(level))
              * gaussian_expect_poly(g.diff((1,) * (2 * level)))
              for level in range(L + 1))
    remainder = MultiPoly(1, {e: c * Fraction(2, 2 * L + e[0] + 2)
                              for e, c in g.diff((1,) * (2 * L + 2)).terms.items()})
    rhs += (Fraction((-1) ** (L + 1), 2 ** (L + 1) * math.factorial(L))
            * gaussian_expect_poly(remainder))
    return float(abs(g.coeff((0,)) - rhs))
