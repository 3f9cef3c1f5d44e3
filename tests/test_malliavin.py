"""Malliavin objects for S_n: covariance, OU images, IBP, tails, Taylor."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from edgeworth import malliavin
from edgeworth.malliavin import (
    SUMMAND_BUDGET,
    DegenerateSigma,
    MalliavinState,
    backward_taylor_check,
    default_test_functions,
    epsilon_star,
    ibp_battery,
    ibp_weight,
    localizer,
    ou_L,
    sample_state,
    sigma_tail,
    sn_batch,
)
from edgeworth.moments import make_distribution
from edgeworth.opalg import MultiPoly
from edgeworth.splitting import split


@pytest.fixture(scope="module")
def urep():
    return split(make_distribution("uniform"))


@pytest.fixture(scope="module")
def erep():
    return split(make_distribution("exponential"))


# --- state invariants ------------------------------------------------------------

def test_state_invariants(urep):
    rng = np.random.default_rng(11)
    for n in (1, 8, 64):
        st = sample_state(urep, n, rng)
        k = st.active_count()
        assert st.sigma()[0, 0] == k / n  # exact, every draw
        assert st.lam() == k / n
        total = 0.0
        if k:
            total += np.sum(st.V[st.chi])
        if n - k:
            total += np.sum(st.W[~st.chi])
        assert st.s_n[0] == pytest.approx(total / math.sqrt(n), rel=1e-12)


def test_chi_frequency_matches_m0(urep):
    rng = np.random.default_rng(12)
    draws = 10_000
    mean_lam = np.mean([sample_state(urep, 8, rng).lam() for _ in range(draws)])
    se = math.sqrt(urep.m0 * (1 - urep.m0) / (8 * draws))
    assert abs(mean_lam - urep.m0) < 4 * se


def test_sigma_from_derivative_gram_matrix(urep):
    # dual route: build sigma from the explicit derivative array
    # D_{(k,i)} S^l = chi_k 1_{i=l} / sqrt(n) and Gram-sum it
    rng = np.random.default_rng(100)
    reps = [urep, split(make_distribution("uniform*uniform"))]
    for rep in reps:
        for n in (3, 12):
            st = sample_state(rep, n, rng)
            N = st.dim
            # sqrt(n) * D is an exact integer array; divide the Gram once
            D = np.zeros((n, N, N))
            for k in range(n):
                for i in range(N):
                    D[k, i, i] = int(st.chi[k])
            gram = np.einsum("kil,kim->lm", D, D) / n
            assert np.array_equal(gram, st.sigma()), (rep.dim, n)


# --- OU images --------------------------------------------------------------------

def test_ou_zero_on_plateau(urep):
    n = 6
    chi = np.array([True] * n)
    # place every V on the plateau |v - v0| <= r0/2
    V = np.full(n, urep.v0 + 0.25 * urep.r0)
    W = np.full(n, np.nan)
    st = MalliavinState(n, chi, V, W, np.array([0.0]), urep)
    assert ou_L(st)[0] == 0.0


def test_ou_zero_without_active_noise(urep):
    n = 4
    st = MalliavinState(
        n, np.zeros(n, bool), np.full(n, np.nan), np.zeros(n), np.array([0.0]), urep
    )
    assert ou_L(st)[0] == 0.0


def test_ou_mean_zero(urep):
    rng = np.random.default_rng(13)
    _, _, ls = sn_batch(urep, 32, 100_000, rng)
    se = ls.std() / math.sqrt(len(ls))
    assert abs(ls.mean()) < 4 * se


def test_ou_norms_stable_in_n(urep):
    # E(LS^2) = m0 E(g^2) exactly for every n; higher norms converge
    # downward to their Gaussian-limit value, so no growth either way
    rng = np.random.default_rng(14)
    norms = {p: [] for p in (2, 4)}
    for n in (16, 64, 256):
        _, _, ls = sn_batch(urep, n, 100_000, rng)
        for p in norms:
            norms[p].append(float(np.mean(np.abs(ls) ** p) ** (1 / p)))
    l2 = norms[2]
    assert max(l2) / min(l2) < 1.1, l2
    l4 = norms[4]
    for a, b in zip(l4, l4[1:]):
        assert b <= a * 1.05, l4


# --- weights -----------------------------------------------------------------------

def test_weight_zero_when_localizer_vanishes(urep):
    rng = np.random.default_rng(15)
    st = sample_state(urep, 8, rng)
    assert np.all(ibp_weight(st, 0.0) == 0.0)


def test_weight_degenerate_draw_raises(urep):
    n = 3
    st = MalliavinState(
        n, np.zeros(n, bool), np.full(n, np.nan), np.zeros(n), np.array([0.0]), urep
    )
    with pytest.raises(DegenerateSigma):
        ibp_weight(st, 0.5)


def test_weight_plateau_draws_vanish(urep):
    n = 5
    chi = np.ones(n, bool)
    V = np.full(n, urep.v0 - 0.3 * urep.r0)
    st = MalliavinState(n, chi, V, np.full(n, np.nan), np.array([0.0]), urep)
    assert np.all(ibp_weight(st, 1.0) == 0.0)


# --- integration by parts ------------------------------------------------------------

def test_ibp_constant_function(urep):
    # f const: the derivative side vanishes, so E(H) must be 0 within noise
    rng = np.random.default_rng(16)
    rep_report, = ibp_battery(
        urep, 16,
        [("const", lambda x: np.ones_like(x), lambda x: np.zeros_like(x))],
        200_000, rng,
    )
    assert rep_report.lhs == 0.0
    assert abs(rep_report.rhs) < 4 * rep_report.rhs_se


def test_ibp_battery_smoke(urep):
    rng = np.random.default_rng(17)
    reports = ibp_battery(urep, 16, default_test_functions(), 150_000, rng)
    for r in reports:
        assert r.z_score < 4.0, (r.label, r.z_score)
        assert r.lhs_se > 0 and r.rhs_se > 0 and np.isfinite(r.z_score)


@pytest.mark.parametrize("n,samples", [(64, 25_000), (4096, 25_000), (1 << 22, 20)])
def test_ibp_battery_chunk_bounded_in_n(urep, n, samples, monkeypatch):
    sizes = []

    def fake_sn_batch(rep, n, size, rng, want_ls=True):
        sizes.append(size)
        return np.zeros(size), np.full(size, n), np.zeros(size)

    monkeypatch.setattr(malliavin, "sn_batch", fake_sn_batch)
    ibp_battery(urep, n, default_test_functions(), samples, np.random.default_rng(28))
    assert sum(sizes) == 2 * samples  # left and right streams
    assert max(sizes) * n <= max(SUMMAND_BUDGET, n)
    if samples * n <= SUMMAND_BUDGET:
        assert len(sizes) == 2  # a battery within the budget stays one chunk


def test_ibp_linear_function_identity(urep):
    # f(x) = x: LHS estimates E(phi), RHS estimates E(S_n H)
    rng = np.random.default_rng(18)
    r, = ibp_battery(urep, 16, [("x", lambda x: x, lambda x: np.ones_like(x))],
                     200_000, rng)
    assert r.z_score < 4.0
    assert r.lhs == pytest.approx(1.0, abs=0.05)  # phi = 1 off a rare event


def test_ibp_exponential_law(erep):
    # small carved mass: most draws are localized away, identity still holds
    rng = np.random.default_rng(19)
    r, = ibp_battery(erep, 16, [("sin", np.sin, np.cos)], 200_000, rng)
    assert r.z_score < 4.0


# --- covariance degeneracy tail -------------------------------------------------------

def test_sigma_tail_single_trial(urep):
    rng = np.random.default_rng(20)
    r = sigma_tail(urep, 1, 200_000, rng)
    # det sigma <= eps*/2 iff chi = 0
    assert r.exact == pytest.approx(1 - urep.m0, abs=1e-12)
    assert abs(r.estimate - r.exact) < 4 * r.se


def test_sigma_tail_grid(urep):
    rng = np.random.default_rng(21)
    prev = None
    for n in (10, 50, 200):
        r = sigma_tail(urep, n, 300_000, rng)
        assert r.z_score < 4.0
        assert r.estimate <= r.exact + 4 * r.se
        if n >= 10:
            assert r.exact <= r.bound * (1 + 1e-12)
        if prev is not None:
            assert r.exact < prev
        prev = r.exact


def test_sigma_tail_threshold_definition(urep):
    r = sigma_tail(urep, 40, 1000, np.random.default_rng(22))
    eps = epsilon_star(urep) / 2
    assert r.threshold == math.floor(40 * eps)


def test_localizer_shape(urep):
    es = epsilon_star(urep)
    assert localizer(urep, 0.0) == 0.0
    assert localizer(urep, es / 2) == 0.0
    assert localizer(urep, es) == 1.0
    assert 0 < localizer(urep, 0.75 * es) < 1


# --- backward Taylor -------------------------------------------------------------------

def poly(coeffs):
    return MultiPoly(1, {(k,): F(c) for k, c in enumerate(coeffs) if c})


@pytest.mark.parametrize(
    "coeffs,L",
    [
        ([0, 0, 1], 1),          # x^2, remainder vanishes
        ([0, 0, 0, 0, 1], 2),    # x^4, remainder vanishes
        ([0, 0, 0, 0, 0, 0, 1], 3),  # x^6
        ([3, -1, 2, 0, 1], 2),   # mixed, 6th derivative zero
    ],
)
def test_taylor_exact_when_remainder_vanishes(coeffs, L):
    assert backward_taylor_check(poly(coeffs), L) < 1e-12


@pytest.mark.parametrize(
    "coeffs,L",
    [
        ([0, 0, 0, 0, 1], 1),        # x^4 with quadrature remainder
        ([0, 0, 0, 0, 0, 0, 1], 2),  # x^6 with quadrature remainder
        ([0, 0, 0, 0, 0, 0, 1], 1),
    ],
)
def test_taylor_with_quadrature_remainder(coeffs, L):
    assert backward_taylor_check(poly(coeffs), L) < 1e-10


def test_taylor_truncation_values():
    # x^4 at L=1: truncated sum is -3, the remainder restores it to 0
    g = poly([0, 0, 0, 0, 1])
    from edgeworth.numerics import gauss_hermite

    truncated = sum(
        (-1) ** level / (2**level * math.factorial(level))
        * gauss_hermite(g.diff(tuple([1] * (2 * level))), 1, 64)
        for level in range(2)
    )
    assert truncated == pytest.approx(-3.0, abs=1e-12)
