"""Malliavin objects for S_n: covariance, OU images, IBP, tails, Taylor."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from edgeworth import malliavin
from edgeworth.malliavin import (
    SUMMAND_BUDGET,
    DegenerateSigma,
    IbpReport,
    backward_taylor_check,
    default_test_functions,
    epsilon_star,
    ibp_battery,
    ibp_weight,
    localizer,
    sigma_tail,
    sn_batch,
)
from edgeworth.moments import make_distribution, shipped_labels
from edgeworth.opalg import MultiPoly
from edgeworth.splitting import SplitRep, split
from sampler_oracle import sample_w_full, sn_batch_bincount


@pytest.fixture(scope="module")
def urep():
    return split(make_distribution("uniform"))


@pytest.fixture(scope="module")
def erep():
    return split(make_distribution("exponential"))


@pytest.fixture(scope="module")
def u2rep():
    return split(make_distribution("uniform*uniform"))


def _plateau_points(rep, rng, count):
    """Points at distance at most ``0.49 r0`` from ``v0``, ``v0`` itself first."""
    radii = np.concatenate([[0.0], rng.uniform(0.0, 0.49 * rep.r0, count - 1)])
    if rep.dim == 1:
        return rep.v0 + radii * rng.choice([-1.0, 1.0], count)
    dirs = rng.normal(size=(count, rep.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.asarray(rep.v0) + radii[:, None] * dirs


# --- batched draws of (S_n, sum chi, L S_n) ------------------------------------------

def test_state_invariants(urep, u2rep):
    # dual route: replay sn_batch's stream by hand and sum each sample's
    # summands and log-gradients directly
    size = 50
    for rep in (urep, u2rep):
        for n in (1, 8, 64):
            s, counts, ls = sn_batch(rep, n, size, np.random.default_rng(11))
            shape = (size,) if rep.dim == 1 else (size, rep.dim)
            assert s.shape == ls.shape == shape and counts.shape == (size,)
            rng = np.random.default_rng(11)
            k = rng.binomial(n, rep.m0, size)
            assert np.array_equal(counts, k)
            vs = np.split(rep.sample_v(rng, int(k.sum())), np.cumsum(k)[:-1])
            ws = np.split(rep.sample_w(rng, int((n - k).sum())), np.cumsum(n - k)[:-1])
            for j in range(size):
                total = vs[j].sum(axis=0) + ws[j].sum(axis=0)
                grad = rep.log_psi_gradient(vs[j]).sum(axis=0)
                rt = math.sqrt(n)
                assert s[j] == pytest.approx(total / rt, rel=1e-12, abs=1e-12)
                assert ls[j] == pytest.approx(-grad / rt, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 64])
@pytest.mark.parametrize("spec", ["uniform", "exponential", "atom_mixture(p=0.1)",
                                  "uniform*uniform", "laplace*gamma"])
def test_sn_batch_matches_the_bincount_oracle(spec, n):
    # same draws, summed by run length instead of by per-summand index: equal
    # counts, and sums within 1e-12 of the summed magnitudes (n = 1 leaves
    # most V runs empty, n = 2 some of both)
    rep = split(make_distribution(spec))
    size = 3000
    s, counts, ls = sn_batch(rep, n, size, np.random.default_rng(41))
    want_s, want_counts, want_ls = sn_batch_bincount(rep, n, size, np.random.default_rng(41))
    scale_s, _, scale_ls = sn_batch_bincount(rep, n, size, np.random.default_rng(41),
                                             magnitude=True)
    assert np.array_equal(counts, want_counts)
    assert s.shape == want_s.shape and ls.shape == want_ls.shape
    assert np.all(np.abs(s - want_s) <= 1e-12 * scale_s)
    assert np.all(np.abs(ls - want_ls) <= 1e-12 * np.abs(scale_ls))
    if n == 1:
        assert np.mean(counts == 0) > 0.5


def _fsum_runs(vals, lengths):
    """Per-run ``math.fsum`` of the rows of ``vals``, per coordinate."""
    ends = np.cumsum(lengths)
    cols = vals.reshape(len(vals), math.prod(vals.shape[1:]))
    out = [[math.fsum(cols[e - k:e, c]) for c in range(cols.shape[1])]
           for e, k in zip(ends, lengths)]
    return np.array(out).reshape((len(lengths), *vals.shape[1:]))


@pytest.mark.parametrize("lengths", [[0, 3, 5], [4, 0, 0, 2, 7], [3, 5, 0], [0, 0, 0, 0],
                                     [0, 9, 0], [9], [0, 0, 6, 0, 1, 0, 0],
                                     [1, 1, 1, 1, 1]])
@pytest.mark.parametrize("cols", [None, 1, 3])
def test_run_sums_match_a_per_run_fsum(lengths, cols):
    lengths = np.array(lengths)
    rows = int(lengths.sum())
    rng = np.random.default_rng(42)
    vals = rng.normal(size=rows if cols is None else (rows, cols))
    got = malliavin._run_sums(vals, lengths)
    want = _fsum_runs(vals, lengths)
    assert got.shape == want.shape == (len(lengths), *vals.shape[1:])
    assert np.array_equal(got[lengths == 0], np.zeros_like(got[lengths == 0]))
    scale = _fsum_runs(np.abs(vals), lengths)
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", ["uniform", "exponential"])
def test_sn_batch_builds_no_per_summand_index(name):
    # 2^20 summands: the oracle's two np.repeat index arrays hold 8 bytes per
    # summand between them, and they are alive while W is drawn
    rep = split(make_distribution(name))
    n, size = 64, 1 << 14
    mine = _peak(lambda: sn_batch(rep, n, size, np.random.default_rng(43)))
    oracle = _peak(lambda: sn_batch_bincount(rep, n, size, np.random.default_rng(43)))
    assert oracle - mine >= 8 * n * size, (mine, oracle)


def test_chi_frequency_matches_m0(urep):
    rng = np.random.default_rng(12)
    draws = 10_000
    _, counts, _ = sn_batch(urep, 8, draws, rng)
    se = math.sqrt(urep.m0 * (1 - urep.m0) / (8 * draws))
    assert abs(np.mean(counts / 8) - urep.m0) < 4 * se


@pytest.mark.parametrize("spec,seed", [("uniform*uniform", 29),
                                       ("uniform*uniform*uniform", 30)])
def test_sn_batch_moments_nd(spec, seed):
    # mean sum chi / n = m0, Cov(S_n) = I and E(L S_n) = 0, each within 4 SE
    rep = split(make_distribution(spec))
    n, size, N = 16, 50_000, rep.dim
    s, counts, ls = sn_batch(rep, n, size, np.random.default_rng(seed))
    assert s.shape == ls.shape == (size, N)
    se = math.sqrt(rep.m0 * (1 - rep.m0) / (n * size))
    assert abs(np.mean(counts / n) - rep.m0) < 4 * se
    prods = s[:, :, None] * s[:, None, :]
    dev = prods.mean(axis=0) - np.eye(N)
    assert np.all(np.abs(dev) < 4 * prods.std(axis=0) / math.sqrt(size)), dev
    assert np.all(np.abs(ls.mean(axis=0)) < 4 * ls.std(axis=0) / math.sqrt(size))


def test_sigma_from_derivative_gram_matrix(urep, u2rep):
    # dual route: build sigma from the explicit derivative array
    # D_{(k,i)} S^l = chi_k 1_{i=l} / sqrt(n), Gram-sum it, and weigh L S_n
    # with phi(det sigma) sigma^{-1}; ibp_weight must agree
    rng = np.random.default_rng(100)
    for rep in (urep, u2rep):
        N = rep.dim
        for n in (3, 12):
            for _ in range(20):
                chi = rng.random(n) < rep.m0
                # sqrt(n) * D is an exact integer array; divide the Gram once
                D = np.zeros((n, N, N))
                for k in range(n):
                    for i in range(N):
                        D[k, i, i] = int(chi[k])
                gram = np.einsum("kil,kim->lm", D, D) / n
                assert np.array_equal(gram, (chi.sum() / n) * np.eye(N)), (N, n)
                ls = rng.normal(size=N)
                phi = localizer(rep, np.linalg.det(gram))
                want = phi * np.linalg.solve(gram, ls) if phi else np.zeros(N)
                got = ibp_weight(rep, n, np.array([chi.sum()]),
                                 ls[None] if N > 1 else ls)
                assert got.reshape(N) == pytest.approx(want, rel=1e-12, abs=1e-15)


# --- OU images --------------------------------------------------------------------

def test_ou_zero_on_plateau(urep, u2rep):
    # the log-gradient, hence every L S_n term, is exactly 0 on the plateau
    # |v - v0| <= r0/2, and nonzero on the decay band beyond it
    rng = np.random.default_rng(31)
    for rep in (urep, u2rep):
        assert np.all(rep.log_psi_gradient(_plateau_points(rep, rng, 200)) == 0.0)
        off = np.asarray(rep.v0) + 0.75 * rep.r0 / math.sqrt(rep.dim)
        assert np.all(rep.log_psi_gradient(off[None] if rep.dim > 1 else off) != 0.0)


def test_ou_zero_without_active_noise(urep, u2rep):
    for rep, seed in ((urep, 32), (u2rep, 33)):
        _, counts, ls = sn_batch(rep, 2, 2_000, np.random.default_rng(seed))
        idle = counts == 0
        assert idle.any()
        assert np.all(ls[idle] == 0.0)


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

def test_weight_zero_when_localizer_vanishes(urep, u2rep):
    rng = np.random.default_rng(15)
    n = 1000
    for rep in (urep, u2rep):
        # det sigma = (k / n)^N <= eps*/2 for every count up to the threshold
        thr = math.floor(n * (epsilon_star(rep) / 2) ** (1 / rep.dim))
        counts = np.arange(thr + 1)
        shape = counts.shape if rep.dim == 1 else (len(counts), rep.dim)
        ls = rng.normal(size=shape)
        assert np.all(ibp_weight(rep, n, counts, ls) == 0.0)
        above = np.array([thr + 1, n])
        assert np.all(ibp_weight(rep, n, above, np.ones((2,) + shape[1:])) > 0)


def test_weight_degenerate_draw_raises(urep, monkeypatch):
    # a localizer that is not supported above eps*/2 breaks the contract
    monkeypatch.setattr(malliavin, "localizer", lambda rep, det: np.ones_like(det))
    with pytest.raises(DegenerateSigma):
        ibp_weight(urep, 3, np.array([2, 0]), np.zeros(2))


def test_weight_plateau_draws_vanish(urep, u2rep):
    rng = np.random.default_rng(34)
    n = 5
    for rep in (urep, u2rep):
        V = _plateau_points(rep, rng, n)
        ls = -rep.log_psi_gradient(V).sum(axis=0) / math.sqrt(n)
        assert np.all(ibp_weight(rep, n, np.array([n]), ls[None]) == 0.0)


def test_ibp_weight_mean_zero_nd(u2rep):
    # constant f: E(f' phi) = 0, so E(H) = 0 in each coordinate
    n, size = 16, 50_000
    _, counts, ls = sn_batch(u2rep, n, size, np.random.default_rng(35))
    h = ibp_weight(u2rep, n, counts, ls)
    assert h.shape == (size, 2)
    assert np.all(np.abs(h.mean(axis=0)) < 4 * h.std(axis=0) / math.sqrt(size))


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


@pytest.mark.parametrize("name", ["uniform", "exponential"])
def test_ibp_battery_is_unchanged_on_the_full_array_sampler(name, monkeypatch):
    # sn_batch draws W through the windowed sampler; on the full-array oracle
    # the reports and the sampler tallies are the same to the bit
    def battery():
        rep = split(make_distribution(name))
        reports = ibp_battery(rep, 64, default_test_functions(), 5_000,
                              np.random.default_rng(33))
        return reports, rep.counters

    mine = battery()
    monkeypatch.setattr(SplitRep, "sample_w", sample_w_full)
    assert battery() == mine


@pytest.mark.parametrize("n,samples", [(64, 25_000), (4096, 25_000), (1 << 22, 20)])
def test_ibp_battery_chunk_bounded_in_n(urep, n, samples, monkeypatch):
    sizes = []

    def fake_sn_batch(rep, n, size, rng):
        sizes.append(size)
        return np.zeros(size), np.full(size, n), np.zeros(size)

    monkeypatch.setattr(malliavin, "sn_batch", fake_sn_batch)
    ibp_battery(urep, n, default_test_functions(), samples, np.random.default_rng(28))
    assert sum(sizes) == samples  # one paired stream serves both sides
    assert max(sizes) * n <= max(SUMMAND_BUDGET, n)
    if samples * n <= SUMMAND_BUDGET:
        assert len(sizes) == 1  # a battery within the budget stays one chunk


def test_ibp_battery_matches_one_paired_draw(urep):
    # oracle: a battery within one chunk is one sn_batch draw, so a generator
    # in the same state replays it, and both sides and the paired difference
    # are plain means and standard errors over those draws
    n, samples = 16, 20_000
    funcs = default_test_functions()
    reports = ibp_battery(urep, n, funcs, samples, np.random.default_rng(40))
    s, counts, ls = sn_batch(urep, n, samples, np.random.default_rng(40))
    phi = localizer(urep, counts / n)
    weight = ibp_weight(urep, n, counts, ls)
    for r, (label, f, df) in zip(reports, funcs, strict=True):
        left, right = df(s) * phi, f(s) * weight
        assert (r.label, r.n, r.samples) == (label, n, samples)
        assert r.lhs == pytest.approx(left.mean(), rel=1e-12, abs=1e-15)
        assert r.rhs == pytest.approx(right.mean(), rel=1e-12, abs=1e-15)
        for se, vals in ((r.lhs_se, left), (r.rhs_se, right), (r.diff_se, left - right)):
            assert se == pytest.approx(vals.std() / math.sqrt(samples), rel=1e-9, abs=1e-12)


def test_ibp_battery_takes_the_localizer_once_per_chunk(urep, monkeypatch):
    # the left side and the weight H share one localizer pass per chunk
    calls = []
    real = malliavin.localizer

    def counted(rep, det_sigma):
        calls.append(len(det_sigma))
        return real(rep, det_sigma)

    monkeypatch.setattr(malliavin, "localizer", counted)
    monkeypatch.setattr(malliavin, "CHUNK_SAMPLES", 400)
    ibp_battery(urep, 8, default_test_functions(), 1000, np.random.default_rng(41))
    assert calls == [400, 400, 200]


def test_ibp_z_score_is_paired():
    # the marginal SEs would give |1 - 0.5| / hypot(3, 4) = 0.1
    r = IbpReport("f", 16, 100, lhs=1.0, lhs_se=3.0, rhs=0.5, rhs_se=4.0, diff_se=0.25)
    assert r.z_score == 2.0


class _NoSpawn:
    """A generator proxy without ``spawn``, which numpy added in 1.25."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        if name == "spawn":
            raise AttributeError(name)
        return getattr(self._rng, name)


def test_ibp_battery_needs_no_generator_spawn(urep):
    funcs = default_test_functions()
    proxy = _NoSpawn(np.random.default_rng(41))
    assert not hasattr(proxy, "spawn")
    got = ibp_battery(urep, 8, funcs, 2_000, proxy)
    assert got == ibp_battery(urep, 8, funcs, 2_000, np.random.default_rng(41))


def test_ibp_linear_function_identity(urep):
    # f(x) = x: LHS estimates E(phi), RHS estimates E(S_n H)
    rng = np.random.default_rng(18)
    r, = ibp_battery(urep, 16, [("x", lambda x: x, lambda x: np.ones_like(x))],
                     200_000, rng)
    assert r.z_score < 4.0
    assert r.lhs == pytest.approx(1.0, abs=0.05)  # phi = 1 off a rare event


def test_ibp_battery_rejects_products(u2rep):
    with pytest.raises(NotImplementedError):
        ibp_battery(u2rep, 16, default_test_functions(), 100, np.random.default_rng(36))


@pytest.mark.parametrize("samples", [1, 0, -1])
def test_ibp_battery_rejects_empty_sample(urep, samples):
    # no draws would give NaN means that no z-score threshold can fail, and
    # one draw gives a standard error of 0 and an infinite z-score
    with pytest.raises(ValueError, match="samples must be >= 2"):
        ibp_battery(urep, 16, default_test_functions(), samples, np.random.default_rng(36))


@pytest.mark.parametrize("n", [0, -1])
def test_ibp_battery_rejects_n_below_one(urep, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        ibp_battery(urep, n, default_test_functions(), 10, np.random.default_rng(36))


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
        assert r.exact <= r.bound * (1 + 1e-12)
        if prev is not None:
            assert r.exact < prev
        prev = r.exact


@pytest.mark.parametrize(
    "name", shipped_labels() + ["normal", "exponential*uniform", "laplace*gamma"])
def test_sigma_tail_bound_holds_at_every_n(name):
    # every n, so no chosen n_list can step around the floor's jumps
    rep = split(make_distribution(name))
    rng = np.random.default_rng(24)
    for n in range(1, 501):
        r = sigma_tail(rep, n, 1, rng)
        assert r.exact <= r.bound * (1 + 1e-12), n
        if r.threshold == 0:
            # both sides are (1 - m0)^n: a looser bound (Hoeffding's) fails here
            assert r.bound == pytest.approx(r.exact, rel=1e-12), n


@pytest.mark.parametrize("samples", [0, -1])
def test_sigma_tail_rejects_empty_sample(urep, samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sigma_tail(urep, 10, samples, np.random.default_rng(22))


@pytest.mark.parametrize("n", [0, -1])
def test_sigma_tail_rejects_n_below_one(urep, n):
    # the binomial oracle takes n = 0 without complaint: the row would be empty
    with pytest.raises(ValueError, match="n must be >= 1"):
        sigma_tail(urep, n, 10, np.random.default_rng(22))


@pytest.mark.parametrize("n", [1, 10, 57, 200, 1000])
def test_sigma_tail_exact_is_the_binomial_cdf(urep, erep, n):
    for rep in (urep, erep):
        r = sigma_tail(rep, n, 10, np.random.default_rng(23))
        assert r.exact == pytest.approx(stats.binom.cdf(r.threshold, n, rep.m0), rel=1e-10)


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
    assert backward_taylor_check(poly(coeffs), L) == 0


@pytest.mark.parametrize(
    "coeffs,L",
    [
        ([0, 0, 0, 0, 1], 1),        # x^4 with a nonzero remainder
        ([0, 0, 0, 0, 0, 0, 1], 2),  # x^6 with a nonzero remainder
        ([0, 0, 0, 0, 0, 0, 1], 1),
    ],
)
def test_taylor_with_quadrature_remainder(coeffs, L):
    assert backward_taylor_check(poly(coeffs), L) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-50, 50, max_denominator=30), min_size=1, max_size=13),
       st.integers(0, 7))
def test_taylor_exact_for_rational_polynomials(coeffs, L):
    assert backward_taylor_check(poly(coeffs), L) == 0


def test_taylor_truncation_values():
    # x^4 at L=1: truncated sum is -3, the remainder restores it to 0
    g = poly([0, 0, 0, 0, 1])
    from quadrature_oracle import gauss_hermite

    truncated = sum(
        (-1) ** level / (2**level * math.factorial(level))
        * gauss_hermite(g.diff(tuple([1] * (2 * level))), 1, 64)
        for level in range(2)
    )
    assert truncated == pytest.approx(-3.0, abs=1e-12)
