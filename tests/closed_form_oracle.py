"""Test oracles: closed-form laws of S_n that use no FFT.

A two-component mixture of normals, ``w_1 N(m_1, s_1^2) + w_2 N(m_2, s_2^2)``,
is closed under convolution: the sum of n independent draws is the
binomial mixture over the number j of draws from the first component,

    sum_j C(n, j) w_1^j w_2^(n-j) N(j m_1 + (n-j) m_2, j s_1^2 + (n-j) s_2^2).

A component with ``s = 0`` is an atom, so ``atom_mixture``
(``p N(0,1) + (1-p) delta_c``) is the case ``s_2 = 0``: the term with no
Gaussian draw is the purely atomic part, and the other terms are the
density of the absolutely continuous part, which is what ``law_of_sn``
inverts.  The density of ``S_n = n^{-1/2} sum (F_k - mu) / sd`` follows by
the affine change of variable.
"""

import math

import numpy as np

from edgeworth.moments import AtomMixture, GaussianMixture


def normal_pdf(x, mu=0.0, s=1.0):
    return np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))


def binomial_normal_mixture(x, n, weights, means, sigmas):
    """Density at ``x`` of the a.c. part of S_n of the standardized mixture.

    ``weights``, ``means`` and ``sigmas`` give the two components of the
    summand before standardization; terms whose variance is 0 (every draw
    on an atom) are left out.
    """
    (w1, w2), (m1, m2), (s1, s2) = ([float(v) for v in p] for p in (weights, means, sigmas))
    mu = w1 * m1 + w2 * m2
    sd = math.sqrt(w1 * (s1**2 + m1**2) + w2 * (s2**2 + m2**2) - mu**2)
    scale = sd * math.sqrt(n)
    out = np.zeros_like(x, dtype=float)
    for j in range(n + 1):
        var = j * s1**2 + (n - j) * s2**2
        if var == 0:
            continue
        mean = j * m1 + (n - j) * m2 - n * mu
        out += (math.comb(n, j) * w1**j * w2 ** (n - j)
                * normal_pdf(x, mean / scale, math.sqrt(var) / scale))
    return out


def gauss_mixture_sn(x, n, raw: GaussianMixture):
    """Density of S_n of ``standardize(raw)`` for a two-component mixture."""
    return binomial_normal_mixture(x, n, raw.weights, raw.means, raw.sigmas)


def atom_mixture_sn(x, n, raw: AtomMixture):
    """Density of the a.c. part of S_n of ``standardize(raw)``."""
    return binomial_normal_mixture(x, n, (raw.p, 1 - raw.p), (0, raw.atom), (1, 0))
