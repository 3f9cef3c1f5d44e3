"""Splitting representation: localizer, ball search, reconstruction, sampling."""

import math
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate, stats

from edgeworth import splitting
from edgeworth.moments import AtomMixture, Distribution, make_distribution, shipped_labels
from edgeworth.splitting import (
    ROUND_CAP,
    NoLowerBoundFound,
    RejectionStall,
    SplitRep,
    find_lower_bound,
    psi_integral,
    psi_loc,
    split,
)
from sampler_oracle import (
    log_psi_gradient_two_branch,
    psi_loc_full,
    sample_v_two_branch,
    sample_w_full,
)


@pytest.fixture(scope="module")
def reps():
    return {name: split(make_distribution(name)) for name in shipped_labels()}


# --- localizer -------------------------------------------------------------------

def test_psi_values():
    assert psi_loc(1.0, 0.5) == 1.0
    assert psi_loc(1.0, 2.0) == 0.0
    assert psi_loc(1.0, 1.5) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-12)
    assert psi_loc(2.5, -1.0) == 1.0  # symmetric in x


def test_psi_range_and_support():
    xs = np.linspace(-5, 5, 10001)
    vals = psi_loc(1.3, xs)
    assert np.all((0 <= vals) & (vals <= 1))
    assert np.all(vals[np.abs(xs) >= 2.6] == 0)
    assert np.all(vals[np.abs(xs) <= 1.3] == 1)


def test_psi_smoothness_bound_scales_uniformly():
    # max over x of psi_a |d^k log psi_a|^p a^{pk} is a-independent
    # (central differences at 1e-5 on the decay band)
    h = 1e-5
    for k in (1, 2):
        for p in (1, 2):
            maxima = []
            for a in (0.5, 1.0, 2.0):
                xs = np.linspace(a + 20 * h, 2 * a - 20 * h, 20001)
                with np.errstate(divide="ignore", invalid="ignore"):
                    lp = np.log(psi_loc(a, xs))
                    if k == 1:
                        d = (
                            np.log(psi_loc(a, xs + h)) - np.log(psi_loc(a, xs - h))
                        ) / (2 * h)
                    else:
                        d = (
                            np.log(psi_loc(a, xs + h)) - 2 * lp + np.log(psi_loc(a, xs - h))
                        ) / h**2
                    q = np.exp(lp) * np.abs(d) ** p * a ** (p * k)
                m = float(np.nanmax(q))
                assert np.isfinite(m)
                maxima.append(m)
            spread = max(maxima) / min(maxima)
            assert spread < 1.05, (k, p, maxima)


def test_psi_integral_matches_quadrature():
    for a in (0.3, 1.0, 2.7):
        direct, _ = integrate.quad(lambda x: psi_loc(a, x), -2 * a, 2 * a,
                                   epsabs=1e-12)
        assert psi_integral(a, 1) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_psi_integral_matches_cartesian_sum(dim):
    # trapezoid rule over the cube [-2, 2]^N, summed on one orthant and
    # mirrored (psi is even in each coordinate); no radial formula involved
    x = np.linspace(0.0, 2.0, 201)
    w = np.full(x.size, x[1] - x[0])
    w[[0, -1]] /= 2
    sq = x * x
    total = 0.0
    for xi, wi in zip(x, w):
        r2 = xi * xi + (sq if dim == 2 else np.add.outer(sq, sq))
        wts = w if dim == 2 else np.outer(w, w)
        total += wi * float(np.sum(wts * psi_loc(1.0, np.sqrt(r2))))
    assert abs(psi_integral(1.0, dim) - 2**dim * total) < 1e-8


# --- ball search -----------------------------------------------------------------

def test_lower_bound_uniform():
    d = make_distribution("uniform")
    v0, r0, eps0 = find_lower_bound(d)
    assert abs(v0) < 0.02  # flat density centers the plateau
    assert 0 < eps0 <= 1 / (2 * math.sqrt(3)) + 1e-12
    assert r0 > 1.0


def test_lower_bound_normal():
    d = make_distribution("normal")
    v0, r0, eps0 = find_lower_bound(d)
    assert abs(v0) < 0.02
    # infimum over the ball sits at its boundary
    gamma_r0 = math.exp(-0.5 * r0 * r0) / math.sqrt(2 * math.pi)
    assert eps0 <= gamma_r0 + 1e-9


def test_lower_bound_atom_mixture():
    d = make_distribution("atom_mixture")
    v0, r0, eps0 = find_lower_bound(d)
    # bound is carved from the a.c. (scaled Gaussian) component
    assert eps0 <= float(np.max(d.pdf(np.linspace(-5, 5, 4001)))) + 1e-12
    assert eps0 > 0


def _walked_run_middle(on_peak):
    # the original one-cell-at-a-time plateau walk, kept as the oracle
    i0 = on_peak[0]
    run_end = i0
    while run_end + 1 in set(on_peak):
        run_end += 1
    return (i0 + run_end) // 2


@pytest.mark.parametrize("name", shipped_labels() + ["uniform*uniform"])
def test_lower_bound_identical_to_walked_plateau(name, monkeypatch):
    d = make_distribution(name)
    fast = find_lower_bound(d)
    monkeypatch.setattr(splitting, "_first_run_middle", _walked_run_middle)
    walked = find_lower_bound(d)
    assert np.array_equal(np.asarray(fast[0]), np.asarray(walked[0]))
    assert fast[1:] == walked[1:]


# (v0, r0, eps0, m0) of every 1-D law: any change here moves the Monte Carlo
# stream of every fixed-seed test
PINNED_1D = {
    "uniform": (-0.0004229672301754306, 1.731627840338702,
                0.12990381056766578, 0.3606881846170511),
    "exponential": (-0.9804639804639804, 0.01953601953601969,
                    0.8655132852119258, 0.02711223280508338),
    "laplace": (-0.0020721077836967083, 0.49012907173427367,
                0.3172669679226425, 0.24933932932508057),
    "gamma": (-0.5025641025641026, 0.800369333490446,
              0.2016367420892115, 0.258770984148951),
    "gauss_mixture": (-0.7505812739076863, 0.6472206529247024,
                      0.17398902289973062, 0.1805633826064414),
    "atom_mixture": (-0.48585516439039544, 0.9464255868106461,
                     0.15594775077264572, 0.23665792590196177),
    "atom_mixture(atom=0)": (-0.0035025014192946458, 1.4037760010107505,
                             0.10513995212236966, 0.2366579259019622),
}


def test_pinned_1d_splits_cover_every_shipped_law():
    assert set(shipped_labels()) < set(PINNED_1D)


@pytest.mark.parametrize("spec", sorted(PINNED_1D))
def test_1d_split_is_pinned(spec):
    rep = split(make_distribution(spec))
    assert (rep.v0, rep.r0, rep.eps0, rep.m0) == PINNED_1D[spec]


def test_first_run_middle_stops_at_first_gap():
    assert splitting._first_run_middle(np.array([3, 4, 5, 9, 10])) == 4
    assert splitting._first_run_middle(np.array([7])) == 7
    assert splitting._first_run_middle(np.array([2, 3, 4, 5])) == 3


def test_lower_bound_fails_for_flat_zero():
    with pytest.raises(NoLowerBoundFound):
        find_lower_bound(AtomMixture(p=0))  # a.c. density identically zero


def test_non_product_multivariate_law_is_rejected():
    class Bivariate(Distribution):
        dim = 2

        def pdf(self, x):
            x = np.asarray(x, dtype=float)
            return np.exp(-0.5 * np.sum(x * x, axis=-1)) / (2 * math.pi)

    with pytest.raises(NotImplementedError):
        split(Bivariate())


# --- split ------------------------------------------------------------------------

def test_split_carved_mass(reps):
    for name, rep in reps.items():
        assert 0 < rep.m0 <= 0.5, name
        assert rep.m0 == pytest.approx(rep.eps0 * psi_integral(rep.r0 / 2, 1), rel=1e-12)


def test_split_reconstruction(reps):
    for name, rep in reps.items():
        lo, hi = rep.base.support()
        xs = np.linspace(lo, hi, 4096)
        assert rep.reconstruction_error(xs) < 1e-8, name


def test_split_residual_nonnegative(reps):
    for name, rep in reps.items():
        lo, hi = rep.base.support()
        xs = np.linspace(lo, hi, 8192)
        assert float(np.min(rep.w_pdf(xs))) >= -1e-12, name


# --- sampling ---------------------------------------------------------------------

def test_v_samples_in_ball(reps):
    rng = np.random.default_rng(5)
    rep = reps["uniform"]
    v = rep.sample_v(rng, 50_000)
    assert np.all(np.abs(v - rep.v0) <= rep.r0)


def test_chi_frequency(reps):
    rng = np.random.default_rng(6)
    rep = reps["laplace"]
    n = 200_000
    chi = rng.random(n) < rep.m0
    se = math.sqrt(rep.m0 * (1 - rep.m0) / n)
    assert abs(chi.mean() - rep.m0) < 4 * se


@pytest.mark.parametrize(
    "name", [name for name in shipped_labels() if not make_distribution(name).atoms]
)
def test_split_sampler_matches_direct(name, reps):
    rng = np.random.default_rng(7)
    rep = reps[name]
    mine = rep.sample(rng, 100_000)
    direct = rep.base.sample(rng, 100_000)
    ks = stats.ks_2samp(mine, direct)
    assert ks.pvalue > 0.01, (name, ks.pvalue)


def test_sample_covariance_invertible(reps):
    rng = np.random.default_rng(8)
    for name, rep in reps.items():
        x = rep.sample(rng, 20_000)
        v = float(np.var(x))
        assert v > 0.5, name  # 1-D condition number = 1; variance well away from 0


@pytest.mark.parametrize("spec", ["uniform*uniform", "exponential*uniform",
                                  "laplace*gamma", "exponential*uniform*laplace"])
def test_split_2d_product(spec):
    prod = make_distribution(spec)
    rep = split(prod)
    assert 0 < rep.m0 <= 0.5
    # tensor grid: each factor's support plus a fine axis across the ball
    k = 64 if prod.dim == 2 else 24
    axes = [
        np.concatenate([np.linspace(*c.support(), k),
                        np.linspace(v - rep.r0, v + rep.r0, k)])
        for c, v in zip(prod.children, rep.v0)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, prod.dim)
    assert rep.reconstruction_error(grid) < 1e-8
    assert float(np.min(rep.w_pdf(grid))) >= -1e-12
    rng = np.random.default_rng(10)
    v = rep.sample_v(rng, 5000)
    radii = np.sqrt(np.sum((v - np.asarray(rep.v0)) ** 2, axis=1))
    assert np.all(radii <= rep.r0)
    w = rep.sample_w(rng, 5000)
    assert w.shape == (5000, prod.dim)


def test_w_mean_exponential():
    # E F = 0 and E V = v0, so E W = -m0 v0 / (1 - m0)
    rep = split(make_distribution("exponential"))
    w = rep.sample_w(np.random.default_rng(23), 400_000)
    expected = -rep.m0 * rep.v0 / (1.0 - rep.m0)
    se = w.std() / math.sqrt(len(w))
    assert abs(w.mean() - expected) < 4 * se, (w.mean(), expected, se)


@pytest.mark.parametrize("spec", ["atom_mixture", "atom_mixture(atom=0)"])
def test_w_atom_share(spec):
    # the bump is carved from the a.c. part only, so W keeps the whole atom,
    # also when the atom sits inside the bump's support (atom=0)
    rep = split(make_distribution(spec))
    (loc, mass), = rep.base.atoms
    w = rep.sample_w(np.random.default_rng(24), 200_000)
    share = float(np.mean(w == loc))
    p = mass / (1.0 - rep.m0)
    assert abs(share - p) < 4 * math.sqrt(p * (1 - p) / len(w)), (share, p)


@pytest.mark.parametrize("name", ["uniform", "exponential"])
def test_sampler_counters(name):
    rep = split(make_distribution(name))
    assert rep.counters["v"] == rep.counters["w"] == (0, 0, 0)
    rng = np.random.default_rng(25)
    v = rep.sample_v(rng, 20_000)
    w = rep.sample_w(rng, 20_000)
    rates = {"v": psi_integral(rep.r0 / 2, 1) / (2 * rep.r0), "w": 1.0 - rep.m0}
    for which, draws in (("v", v), ("w", w)):
        c = rep.counters[which]
        assert c.drawn == len(draws)
        assert c.proposed >= c.accepted >= c.drawn
        # rounds are sized from the closed-form acceptance: few accepted
        # proposals are thrown away (a round of twice the missing draws
        # would keep only about 1 / (2 rate) of them)
        assert c.drawn / c.accepted >= 0.9, (which, c)
        assert c.drawn / (rates[which] * c.proposed) >= 0.9, (which, c)
    with pytest.raises(AttributeError):
        rep.counters = {}


def test_sample_v_stall_signals_broken_bump():
    class FlatBump(SplitRep):
        def psi_bump(self, x):
            return np.zeros(len(x))

    good = split(make_distribution("uniform"))
    bad = FlatBump(good.base, good.v0, good.r0, good.eps0, good.m0)
    with pytest.raises(RejectionStall):
        bad.sample_v(np.random.default_rng(26), 1000)
    assert bad.counters["v"].accepted == 0


def test_w_stall_round_is_capped():
    class Recorder:
        def __init__(self, base):
            self.base, self.sizes = base, []

        def __getattr__(self, attr):
            return getattr(self.base, attr)

        def sample_parts(self, rng, size):
            self.sizes.append(size)
            return self.base.sample_parts(rng, size)

    d = Recorder(make_distribution("uniform"))
    # declared acceptance 1e-9: the closed-form round size would be ~1e12
    bad = SplitRep(d, 0.0, 4.0, 1.0 / (2.0 * math.sqrt(3.0)), 1.0 - 1e-9)
    with pytest.raises(RejectionStall):
        bad.sample_w(np.random.default_rng(27), 1000)
    assert d.sizes and max(d.sizes) <= ROUND_CAP


def test_every_sampler_draws_through_the_one_rejection_loop(monkeypatch):
    from edgeworth import moments

    assert (splitting.RejectionStall, splitting.ROUND_CAP, splitting._round_size) == (
        moments.RejectionStall, moments.ROUND_CAP, moments._round_size)
    names = []
    loop = moments.rejection_sample

    def recorder(rng, size, rate, propose, name, tally, shape=()):
        names.append(name)
        return loop(rng, size, rate, propose, name, tally, shape)

    monkeypatch.setattr(moments, "rejection_sample", recorder)
    monkeypatch.setattr(splitting, "rejection_sample", recorder)
    rng = np.random.default_rng(35)
    rep = split(make_distribution("uniform"))
    rep.sample_v(rng, 10)
    rep.sample_w(rng, 10)
    tri = moments.UserDensity(lambda x: np.maximum(0.0, 1 - np.abs(x - 1)), (0, 2),
                              label="triangle")
    tri.sample(rng, 10)
    assert names == ["bump", "residual", "triangle"]


def test_rejection_stall_signals_broken_rep():
    d = make_distribution("uniform")
    # sabotage: the bump plateau swallows the whole support at full density
    # height, so the residual thinning accepts (almost) nothing
    bad = SplitRep(d, 0.0, 4.0, 1.0 / (2.0 * math.sqrt(3.0)), 0.999)
    rng = np.random.default_rng(9)
    with pytest.raises(RejectionStall):
        bad.sample_w(rng, 1000)


# --- the windowed residual sampler against the full-array oracle -------------------

# atom=0 puts the atom inside the bump's support, where atomic draws are never thinned
WINDOW_SPECS = [*shipped_labels(), "atom_mixture(p=0.1)", "atom_mixture(atom=0)",
                "exponential*uniform", "laplace*gamma"]


@lru_cache(maxsize=None)
def _split_of(spec):
    return split(make_distribution(spec))


def _fresh(spec):
    """A new ``SplitRep`` of ``spec`` with zeroed counters."""
    rep = _split_of(spec)
    return SplitRep(rep.base, rep.v0, rep.r0, rep.eps0, rep.m0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 63, 64, 1000, 2**20])
@pytest.mark.parametrize("spec", WINDOW_SPECS)
def test_sample_w_matches_full_array_oracle(spec, size, seed):
    mine, oracle = _fresh(spec), _fresh(spec)
    rng_mine, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = mine.sample_w(rng_mine, size)
    want = sample_w_full(oracle, rng_oracle, size)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert mine.counters == oracle.counters
    # the generators were advanced by the same calls
    assert rng_mine.bit_generator.state == rng_oracle.bit_generator.state


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", shipped_labels())
def test_sample_w_allocates_no_more_than_oracle(name):
    # only the proposals near the bump get a radius, psi and masks of their own;
    # exponential's ball holds about 4% of them
    rep = _fresh(name)
    mine = _peak_bytes(lambda: rep.sample_w(np.random.default_rng(11), 2**20))
    oracle = _peak_bytes(lambda: sample_w_full(rep, np.random.default_rng(11), 2**20))
    assert mine <= oracle, (mine, oracle)
    if name == "exponential":
        assert mine <= oracle / 2, (mine, oracle)


def test_localizer_matches_full_array_oracle():
    x = np.random.default_rng(12).normal(0.0, 2.0, 100_000)
    x[:4] = [0.0, 0.5, 1.0, -1.0]  # the plateau edge and the support edge of psi_{1/2}
    for a in (0.5, 1.0, 0.0195 / 2):
        assert psi_loc(a, x).tobytes() == psi_loc_full(a, x).tobytes()
        assert psi_loc(a, x.reshape(-1, 4)).tobytes() == psi_loc_full(a, x).tobytes()
    assert psi_loc(0.5, 0.75) == psi_loc_full(0.5, 0.75)


@pytest.mark.parametrize("spec", WINDOW_SPECS)
def test_nonzero_bump_is_the_positive_part_of_the_dense_bump(spec):
    rep = _split_of(spec)
    x = rep.base.sample(np.random.default_rng(13), 200_000)
    # the ball's edge, just inside and just outside, on the first axis
    edge = np.array([np.nextafter(rep.r0, 0.0), rep.r0, np.nextafter(rep.r0, np.inf)])
    if rep.dim == 1:
        x[:3] = rep.v0 + edge
    else:
        x[:3] = np.asarray(rep.v0)
        x[:3, 0] += edge
    dense = rep.psi_bump(x)
    idx, psi = rep.psi_bump(x, nonzero=True)
    assert idx.tobytes() == np.flatnonzero(dense > 0).tobytes()
    assert psi.tobytes() == dense[idx].tobytes()


@pytest.mark.parametrize("spec", ["uniform", "uniform*uniform"])
def test_nonzero_bump_on_the_plateau_is_the_dense_bump(spec):
    # every row on the plateau: the cube holds every row and psi is 1 on all
    # of them, so every index comes back
    rep = _split_of(spec)
    rng = np.random.default_rng(15)
    shape = 50_000 if rep.dim == 1 else (50_000, rep.dim)
    x = np.asarray(rep.v0) + rng.uniform(-0.49, 0.49, shape) * rep.r0 / math.sqrt(rep.dim)
    dense = rep.psi_bump(x)
    assert np.all(dense == 1.0)
    idx, psi = rep.psi_bump(x, nonzero=True)
    assert idx.tobytes() == np.arange(len(x)).tobytes()
    assert psi.tobytes() == dense.tobytes()
    # none in the cube, and none with psi > 0
    far = np.asarray(rep.v0) + 3.0 * rep.r0 + x
    idx, psi = rep.psi_bump(far, nonzero=True)
    assert idx.size == psi.size == 0 and idx.dtype == np.intp and psi.dtype == float


class _HoledUniform(Distribution):
    """Uniform draws on [-1, 1] under a density that is 0 on [-0.2, 0], NaN
    on [0, 0.1] and below 1e-300 on [0.3, 0.4]: the thinning guards'
    branches, which no shipped law reaches."""

    atoms = ()

    def sample(self, rng, size):
        return rng.uniform(-1.0, 1.0, size)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, 0.5)
        out[(x >= -0.2) & (x <= 0.0)] = 0.0
        out[(x > 0.0) & (x <= 0.1)] = np.nan
        out[(x >= 0.3) & (x <= 0.4)] = 1e-310
        return out


@pytest.mark.parametrize("size", [1, 1000, 2**16])
def test_sample_w_density_guards_match_full_array_oracle(size):
    # the bump's ball is [-1, 1] (no far proposal), [-0.5, 0.5], and
    # [0.25, 0.45], where the only bad densities are 1e-310: there
    # eps0 psi / dens would overflow, and 1e-300 must stand in for them
    for v0, r0 in ((0.0, 1.0), (0.0, 0.5), (0.35, 0.1)):
        mine, oracle = (SplitRep(_HoledUniform(), v0, r0, 0.4, 0.4 * psi_integral(r0 / 2))
                        for _ in range(2))
        rng_mine, rng_oracle = np.random.default_rng(16), np.random.default_rng(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mine.sample_w(rng_mine, size)
        want = sample_w_full(oracle, rng_oracle, size)
        assert got.tobytes() == want.tobytes()
        assert mine.counters == oracle.counters
        assert rng_mine.bit_generator.state == rng_oracle.bit_generator.state


@pytest.mark.parametrize("spec", ["exponential", "atom_mixture(p=0.1)", "exponential*uniform"])
def test_sample_w_passes_each_round_to_psi_bump(spec, monkeypatch):
    # one psi_bump call per rejection round, with every proposal of the round:
    # perfbench's tracer counts a sampler's proposals through these calls
    seen = []
    real = SplitRep.psi_bump

    def psi_bump(self, x, nonzero=False):
        seen.append(len(x))
        return real(self, x, nonzero)

    monkeypatch.setattr(SplitRep, "psi_bump", psi_bump)
    rep = _fresh(spec)
    rep.sample_w(np.random.default_rng(14), 50_000)
    assert seen and sum(seen) == rep.counters["w"].proposed


# --- one point layout against the two-branch oracles ----------------------------

# 1-, 2- and 3-D; exponential's ball sits at the edge of its support
LAYOUT_SPECS = ["uniform", "exponential", "uniform*uniform", "exponential*uniform",
                "exponential*uniform*laplace"]


def _radius_of(rep, x):
    d = np.asarray(x, dtype=float) - np.asarray(rep.v0)
    return np.abs(d) if rep.dim == 1 else np.sqrt(np.sum(d * d, axis=-1))


def _around_v0(rep, rng, count=20_000):
    """Points at distances 0 .. 1.5 r0 from ``v0`` in random directions, then
    ``v0`` itself and points on the first axis at r0/2 and r0 and next to them."""
    radii = rng.uniform(0.0, 1.5 * rep.r0, count)
    edges = np.array([0.0, rep.r0 / 2, np.nextafter(rep.r0 / 2, 0.0),
                      np.nextafter(rep.r0 / 2, np.inf), rep.r0,
                      np.nextafter(rep.r0, 0.0), np.nextafter(rep.r0, np.inf)])
    if rep.dim == 1:
        return np.concatenate([rep.v0 + radii * rng.choice([-1.0, 1.0], count),
                               rep.v0 + edges, rep.v0 - edges])
    dirs = rng.normal(size=(count, rep.dim))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    axis = np.zeros((2 * len(edges), rep.dim))
    axis[:, 0] = np.concatenate([edges, -edges])
    return np.concatenate([rep.v0 + radii[:, None] * dirs, rep.v0 + axis])


def _assert_gradient_is_the_two_branch_one(rep, x):
    got = rep.log_psi_gradient(x)
    want = log_psi_gradient_two_branch(rep, x)
    assert np.shape(got) == np.shape(want)
    u = _radius_of(rep, x)
    band = (u > rep.r0 / 2) & (u < rep.r0)
    # bit for bit on the decay band; off it both are zero, of either sign
    assert np.asarray(got)[band].tobytes() == np.asarray(want)[band].tobytes()
    assert np.all(np.asarray(got)[~band] == 0.0) and np.all(np.asarray(want)[~band] == 0.0)
    return got, band


@pytest.mark.parametrize("spec", LAYOUT_SPECS)
def test_log_psi_gradient_matches_the_two_branch_oracle(spec):
    rep = _split_of(spec)
    rng = np.random.default_rng(31)
    x = np.concatenate([_around_v0(rep, rng), rep.base.sample(rng, 20_000)])
    _, band = _assert_gradient_is_the_two_branch_one(rep, x)
    assert band.any() and not band.all()
    # empty input, and one point (a scalar in 1-D, shape (N,) otherwise)
    empty = np.empty((0, *np.shape(rep.v0)))
    assert rep.log_psi_gradient(empty).shape == empty.shape
    for point in x[np.flatnonzero(band)[:3]]:
        got = rep.log_psi_gradient(point)
        assert np.shape(got) == np.shape(rep.v0)
        assert np.asarray(got).tobytes() == rep.log_psi_gradient(point[None])[0].tobytes()
    if rep.dim == 1:
        # a scalar in gives a scalar out, also on the plateau
        _assert_gradient_is_the_two_branch_one(rep, float(x[band][0]))
        assert isinstance(rep.log_psi_gradient(float(rep.v0)), float)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_log_psi_gradient_at_exact_radii(dim):
    # v0 = 0 and r0 = 1: the points on the axes sit exactly at u = 0, the
    # plateau edge 1/2, the band, the support edge 1 and outside it
    base = make_distribution("*".join(["uniform"] * dim))
    v0 = 0.0 if dim == 1 else [0.0] * dim
    rep = SplitRep(base, v0, 1.0, 0.1, 0.1 * psi_integral(0.5, dim))
    radii = np.array([0.0, 0.5, 0.5000001, 0.75, 0.9999999, 1.0, 1.5, 3.0])
    x = np.concatenate([radii, -radii])
    if dim > 1:
        x = (np.eye(dim) * x[:, None, None]).reshape(-1, dim)  # along every axis
    _, band = _assert_gradient_is_the_two_branch_one(rep, x)
    assert band.sum() == 6 * dim


@pytest.mark.parametrize("spec", [*shipped_labels(), *LAYOUT_SPECS[2:]])
def test_sample_v_matches_the_two_branch_route(spec):
    for seed, size in ((1, 1), (2, 1000), (3, 200_000)):
        mine, oracle = _fresh(spec), _fresh(spec)
        rng_mine, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = mine.sample_v(rng_mine, size)
        want = sample_v_two_branch(oracle, rng_oracle, size)
        assert got.shape == want.shape == (size, *np.shape(mine.v0))
        assert mine.counters == oracle.counters
        assert rng_mine.bit_generator.state == rng_oracle.bit_generator.state
        if mine.dim == 1:
            assert got.tobytes() == want.tobytes()
            continue
        # N-D: the bounds v0 +- r0 and the shift by v0 round apart in the last bit
        assert np.all(_radius_of(mine, got) < mine.r0)
        assert np.all((got >= mine.v0 - mine.r0) & (got <= mine.v0 + mine.r0))
        tol = 4 * np.finfo(float).eps * (np.abs(mine.v0) + mine.r0)
        assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("spec", LAYOUT_SPECS)
def test_dense_bump_is_psi_loc_of_the_radius(spec):
    rep = _split_of(spec)
    rng = np.random.default_rng(32)
    x = np.concatenate([_around_v0(rep, rng), rep.base.sample(rng, 20_000)])
    a = rep.r0 / 2
    assert rep.psi_bump(x).tobytes() == psi_loc(a, _radius_of(rep, x)).tobytes()
    # a grid of points keeps its leading shape
    grid = x[:40_000].reshape(200, 200, *np.shape(rep.v0))
    dense = rep.psi_bump(grid)
    assert dense.shape == (200, 200)
    assert dense.tobytes() == psi_loc(a, _radius_of(rep, grid)).tobytes()
    if rep.dim == 1:
        point = rep.v0 + 0.75 * rep.r0
        assert float(rep.psi_bump(point)) == psi_loc(a, _radius_of(rep, point))


def test_v0_is_kept_as_a_float_or_a_float_array():
    rep = _split_of("exponential*uniform")
    listed = SplitRep(rep.base, [float(c) for c in rep.v0], rep.r0, rep.eps0, rep.m0)
    assert isinstance(listed.v0, np.ndarray)
    assert listed.v0.dtype == float and listed.v0.shape == (2,)
    draws = [r.sample(np.random.default_rng(33), 5000)
             for r in (listed, _fresh("exponential*uniform"))]
    assert draws[0].shape == (5000, 2) and draws[0].tobytes() == draws[1].tobytes()
    one = SplitRep(make_distribution("uniform"), 0, 1.0, 0.1, 0.1 * psi_integral(0.5))
    assert np.shape(one.v0) == () and isinstance(one.v0, float)
    assert one.sample(np.random.default_rng(34), 7).shape == (7,)
    assert one.sample_v(np.random.default_rng(34), 0).shape == (0,)
    assert listed.sample(np.random.default_rng(34), 0).shape == (0, 2)
