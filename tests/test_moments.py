"""Distribution registry, standardization, and moment-table tests."""

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edgeworth.exactmath import multisets
from edgeworth.moments import (
    AtomMixture,
    Distribution,
    Exponential,
    Gamma,
    GaussianMixture,
    Laplace,
    MomentTable,
    Normal,
    NonInvertibleCovariance,
    OrderExceeded,
    ProductDistribution,
    RejectionStall,
    Uniform,
    UserDensity,
    _binomial_moment,
    _round_size,
    cumulants_to_moments,
    delta,
    fixture_table,
    gaussian_moment,
    make_distribution,
    moments_to_cumulants,
    shipped_labels,
    standardize,
)
from edgeworth.numerics import _int_power, law_of_sn
from fixture_oracle import fixture_deltas, table_from_deltas
from grid_oracle import user_char_fn


# --- gaussian moments ---------------------------------------------------------

def test_gaussian_moment_examples():
    assert gaussian_moment((1, 1, 1, 1), 1) == 3          # (t-1)!! for t = 4
    assert gaussian_moment((1, 2), 2) == 0                 # independence + mean 0
    assert gaussian_moment((1, 1, 2, 2), 2) == 1           # product of variances


def test_gaussian_moment_double_factorial_agreement():
    for t in range(0, 12):
        alpha = tuple([1] * t)
        want = 0 if t % 2 else math.prod(range(t - 1, 0, -2)) or 1
        assert gaussian_moment(alpha, 1) == want


def test_gaussian_moment_odd_coordinate_count_vanishes():
    assert gaussian_moment((1, 1, 2), 2) == 0


# --- standardization ----------------------------------------------------------

def test_standardize_uniform_becomes_symmetric():
    s = standardize(Uniform(0, 1))
    root3 = math.sqrt(3)
    xs = np.linspace(-2.5, 2.5, 1001)
    want = np.where(np.abs(xs) <= root3, 1 / (2 * root3), 0.0)
    assert np.max(np.abs(s.pdf(xs) - want)) < 1e-12
    assert s.moment((1,)) == 0 and s.moment((1, 1)) == 1


def test_standardize_normal_unchanged():
    n = Normal()
    s = standardize(n)
    xs = np.linspace(-4, 4, 101)
    assert np.max(np.abs(s.pdf(xs) - n.pdf(xs))) < 1e-12


def test_normal_registry_entry_is_standardized():
    # the registry standardizes a shifted, scaled normal like every other law
    s = make_distribution("normal(mu=2,sigma=1/3)")
    assert s.is_standardized
    assert s.moment((1,)) == 0 and s.moment((1, 1)) == 1
    assert [s.moment((1,) * k) for k in range(3, 9)] == [0, 3, 0, 15, 0, 105]
    xs = np.linspace(-4, 4, 101)
    assert np.max(np.abs(s.pdf(xs) - Normal().pdf(xs))) < 1e-12
    law_of_sn(s, 4, points=2**10)


def test_normal_moments_exact_for_rational_parameters():
    n = Normal(mu=F(1, 2), sigma=F(1, 3))
    assert n.raw_moment(1) == F(1, 2)
    assert n.raw_moment(2) == F(1, 4) + F(1, 9)
    assert n.central_moment(4) == 3 * F(1, 3) ** 4
    assert all(isinstance(n.raw_moment(k), F) for k in range(9))


def test_standardize_exponential_is_centered():
    s = standardize(Exponential(1))
    # law of E - 1: unit variance, support [-1, inf)
    assert s.moment((1,)) == 0
    assert s.moment((1, 1)) == 1
    xs = np.array([-1.5, -0.5, 0.0, 2.0])
    want = np.where(xs >= -1, np.exp(-(xs + 1)), 0.0)
    assert np.max(np.abs(s.pdf(xs) - want)) < 1e-12


def test_standardize_idempotent():
    for name in shipped_labels():
        d = make_distribution(name)
        again = standardize(d)
        xs = np.linspace(-4, 4, 301)
        assert np.max(np.abs(again.pdf(xs) - d.pdf(xs))) < 1e-12, name


@pytest.mark.parametrize("spec", [*shipped_labels(), "atom_mixture(p=0.1)"])
def test_standardized_draws_are_the_affine_image_bit_for_bit(spec):
    # draws are standardized in place: the same bits as the out-of-place
    # expression, from a replayed generator
    d = make_distribution(spec)
    mu, sd = d._mu_f, d._sd_f
    for size in (1, 63, 10_000):
        vals, mask = d.sample_parts(np.random.default_rng(31), size)
        raw, raw_mask = d.base.sample_parts(np.random.default_rng(31), size)
        assert vals.tobytes() == ((raw - mu) / sd).tobytes()
        assert mask.dtype == bool and mask.tobytes() == raw_mask.tobytes()
        one = d.sample(np.random.default_rng(32), size)
        assert one.tobytes() == ((d.base.sample(np.random.default_rng(32), size) - mu) / sd).tobytes()
    if d.atoms:
        assert mask.any()


def test_standardized_draws_leave_a_shared_base_array_alone():
    class Shared(Uniform):
        """Draws are views of one buffer: read-only, or owned by the law."""

        def __init__(self, writeable):
            super().__init__()
            self.buffer = np.linspace(0.0, 1.0, 1000)
            self.buffer.flags.writeable = writeable

        def sample(self, rng, size):
            return self.buffer[:size]

    for writeable in (False, True):
        base = Shared(writeable)
        kept = base.buffer.copy()
        d = standardize(base)
        want = (kept[:10] - d._mu_f) / d._sd_f
        assert d.sample(None, 10).tobytes() == want.tobytes()
        assert d.sample_parts(None, 10)[0].tobytes() == want.tobytes()
        assert base.buffer.tobytes() == kept.tobytes()


def test_standardize_rejects_degenerate():
    with pytest.raises(NonInvertibleCovariance):
        standardize(AtomMixture(p=0))  # pure point mass


def test_standardize_rejects_a_density_of_mass_other_than_1():
    # twice the unit triangle on [0, 2]: its quadrature "moments" give mean 2
    # and variance 2.33, and law_of_sn would blame the window for the mass
    def tri(x):
        return np.clip(1 - np.abs(np.asarray(x, dtype=float) - 1), 0, None)

    with pytest.raises(ValueError, match=r"twice has mass (2\.0|1\.9999)"):
        standardize(UserDensity(lambda x: 2 * tri(x), (0, 2), label="twice"))
    with pytest.raises(ValueError, match="has mass"):
        standardize(ProductDistribution([Uniform(0, 1), UserDensity(tri, (0, 1))]))


# --- moment differences ---------------------------------------------------------

def test_delta_examples():
    ex = make_distribution("exponential")
    assert delta(ex, (1, 1, 1)) == 2  # third central moment of Exp(1)
    uni = make_distribution("uniform")
    assert delta(uni, (1, 1, 1, 1)) == F(-6, 5)  # E U^4 = 9/5, minus 3
    assert delta(ex, (1, 1)) == 0
    assert delta(ex, (1,)) == 0


def test_delta_zero_through_order_three_for_uniform():
    uni = make_distribution("uniform")
    t = MomentTable.from_distribution(uni, 6)
    assert t.sup_delta(3) == 0


@given(st.permutations([1, 1, 1, 2, 2]))
def test_delta_permutation_invariance(perm):
    prod = make_distribution("exponential*uniform")
    assert delta(prod, tuple(perm)) == delta(prod, (1, 1, 1, 2, 2))


def test_order_exceeded():
    ex = make_distribution("exponential")
    with pytest.raises(OrderExceeded):
        ex.moment(tuple([1] * (ex.max_order + 1)))
    t = MomentTable.from_distribution(ex, 5)
    with pytest.raises(OrderExceeded):
        t.delta(tuple([1] * 6))


# --- moment values of shipped laws ---------------------------------------------

def test_exponential_moments_are_derangements():
    s = make_distribution("exponential")
    # central moments of Exp(1): 1, 0, 1, 2, 9, 44, 265, 1854, 14833
    want = [1, 0, 1, 2, 9, 44, 265, 1854, 14833]
    got = [s.moment(tuple([1] * k)) for k in range(len(want))]
    assert got == [F(w) for w in want]


def test_laplace_standardized_moments():
    s = make_distribution("laplace")
    # even moments k! / 2^{k/2}; odd vanish
    for k in range(1, 9):
        want = F(math.factorial(k), 2 ** (k // 2)) if k % 2 == 0 else F(0)
        assert s.moment(tuple([1] * k)) == want


def test_gamma_skewness():
    s = make_distribution("gamma")  # shape 4
    assert s.moment((1, 1, 1)) == F(2, 2)  # 2/sqrt(k) = 1


def test_atom_mixture_moments_and_masses():
    raw = AtomMixture()  # 0.7 N(0,1) + 0.3 delta_2
    assert raw.raw_moment(1) == F(3, 5)
    assert raw.singular_mass == pytest.approx(0.3)
    s = standardize(raw)
    assert abs(float(s.moment((1,)))) < 1e-15
    assert s.moment((1, 1)) == 1
    (loc, mass), = s.atoms
    assert mass == pytest.approx(0.3)


def test_sampling_matches_moments():
    rng = np.random.default_rng(42)
    for name in shipped_labels():
        d = make_distribution(name)
        x = d.sample(rng, 200_000)
        assert abs(x.mean()) < 0.02, name
        assert abs(x.var() - 1) < 0.05, name


# --- products -------------------------------------------------------------------

def test_product_moment_factorizes():
    prod = make_distribution("exponential*uniform")
    assert prod.dim == 2
    ex = make_distribution("exponential")
    uni = make_distribution("uniform")
    assert prod.moment((1, 1, 1, 2, 2)) == ex.moment((1, 1, 1)) * uni.moment((1, 1))


def test_product_pdf_and_char():
    prod = make_distribution("exponential*uniform")
    pt = np.array([[0.3, 0.1]])
    ex, uni = prod.children
    assert prod.pdf(pt)[0] == pytest.approx(float(ex.pdf(0.3) * uni.pdf(0.1)))
    t = np.array([[0.7, -0.2]])
    assert prod.char_fn(t)[0] == pytest.approx(
        complex(ex.char_fn(np.array([0.7]))[0] * uni.char_fn(np.array([-0.2]))[0])
    )


@pytest.mark.parametrize("names", [[], ["laplace"], ["uniform"] * 4])
def test_product_needs_two_or_three_factors(names):
    # a 1-D law is already its own one-factor case through factors()
    with pytest.raises(ValueError, match="2 <= N <= 3"):
        ProductDistribution([make_distribution(name) for name in names])


def test_product_requires_ac_factors():
    with pytest.raises(ValueError):
        ProductDistribution([make_distribution("atom_mixture"),
                             make_distribution("uniform")])


class _Plane(Distribution):
    """A 2-D law that is not a product of 1-D laws."""

    dim = 2
    label = "plane"
    is_standardized = True


def test_factors_of_one_d_product_and_other_laws():
    uni = make_distribution("uniform")
    assert uni.factors() == [uni]
    prod = make_distribution("exponential*uniform")
    assert prod.factors() == prod.children and len(prod.factors()) == 2
    with pytest.raises(NotImplementedError):
        _Plane().factors()


# --- registry / parsing -----------------------------------------------------------

def test_registry_parses_parameters():
    d = make_distribution("gamma(shape=9)")
    assert d.moment((1, 1, 1)) == F(2, 3)  # skewness 2/sqrt(9)


def test_registry_unknown_name():
    with pytest.raises(ValueError):
        make_distribution("cauchy")


@pytest.mark.parametrize("spec,param", [
    ("uniform(a=1,b=0)", "a < b"),
    ("uniform(a=0,b=0)", "a < b"),
    ("exponential(rate=-1)", "rate"),
    ("exponential(rate=0)", "rate"),
    ("laplace(b=-1)", "b"),
    ("normal(sigma=-1)", "sigma"),
    ("normal(sigma=0)", "sigma"),
    ("gamma(shape=0)", "shape"),
    ("gamma(scale=-1)", "scale"),
    ("atom_mixture(p=-1/10)", "p"),
    ("atom_mixture(p=11/10)", "p"),
])
def test_registry_rejects_out_of_range_parameters(spec, param):
    with pytest.raises(ValueError, match=f"parameter.* {param}"):
        make_distribution(spec)


@pytest.mark.parametrize("kwargs,param", [
    (dict(weights=(-1, 2)), "weights"),
    (dict(weights=(0, 0)), "weights"),
    (dict(sigmas=(1, 0)), "sigmas"),
    (dict(sigmas=(-1, 1)), "sigmas"),
    (dict(weights=(1, 1, 1)), "weights, means and sigmas"),
])
def test_gaussian_mixture_rejects_out_of_range_parameters(kwargs, param):
    with pytest.raises(ValueError, match=f"parameters? {param}"):
        GaussianMixture(**kwargs)


def test_registry_keeps_boundary_parameters():
    assert AtomMixture(p=0).p == 0 and AtomMixture(p=1).p == 1
    assert GaussianMixture(weights=(0, 1)).weights == (0, 1)


# --- cumulants --------------------------------------------------------------------

def test_cumulant_round_trip():
    ms = [0.0, 1.0, 2.0, 9.0, 44.0, 265.0]
    back = cumulants_to_moments(moments_to_cumulants(ms))
    assert np.allclose(back, ms)


def test_gaussian_cumulants_vanish():
    ms = [0, 1, 0, 3, 0, 15, 0, 105]
    ks = moments_to_cumulants(ms)
    assert ks[0] == 0 and ks[1] == 1
    assert all(k == 0 for k in ks[2:])


# --- tables ------------------------------------------------------------------------

def test_fixture_table_is_exact_and_symmetric():
    t = fixture_table(2, 7)
    v = t.delta((1, 2, 2))
    assert isinstance(v, F) and v != 0
    for perm in permutations((1, 2, 2)):
        assert t.delta(perm) == v
    assert t.delta((1, 2)) == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fixture_table_matches_eager_oracle(dim):
    want = fixture_deltas(dim, 9)
    t = fixture_table(dim, 9)
    for order in range(10):
        for alpha in multisets(dim, order):
            got = t.delta(alpha)
            assert got == want.get(alpha, 0) and isinstance(got, F), alpha


def test_table_rejects_coordinates_outside_its_dimension():
    tables = [fixture_table(2, 5), table_from_deltas(2, 5, {}),
              MomentTable.from_distribution(make_distribution("exponential*uniform"), 5)]
    for t in tables:
        for alpha in [(1, 3, 3), (0, 1, 1)]:
            with pytest.raises(ValueError, match="outside"):
                t.delta(alpha)


def test_table_ell_values():
    ex = make_distribution("exponential")
    t = MomentTable.from_distribution(ex, 6)
    assert (t.ell(3), t.ell(4), t.ell(5)) == (2, 9, 44)
    with pytest.raises(OrderExceeded):
        t.ell(7)
    assert fixture_table(1, 5).ell(4) == fixture_deltas(1, 5)[(1, 1, 1, 1)] + 3
    with pytest.raises(ValueError):
        fixture_table(2, 5).ell(3)


@pytest.mark.parametrize("name", shipped_labels() + ["normal"])
def test_table_ell_is_the_law_moment(name):
    d = make_distribution(name)
    t = MomentTable.from_distribution(d, 16)
    for order in range(17):
        assert t.ell(order) == d.moment((1,) * order), order


@pytest.mark.parametrize("table", [
    fixture_table(2, 6),
    MomentTable.from_distribution(make_distribution("exponential"), 7),
    MomentTable.from_distribution(make_distribution("uniform*laplace"), 6),
], ids=["fixture2d", "exponential", "uniform*laplace"])
def test_sup_delta_stops_at_table_order(table):
    top = table.sup_delta(table.max_order)
    assert top > 0
    for r in range(table.max_order + 1, table.max_order + 4):
        assert table.sup_delta(r) == top


def test_table_requires_standardized():
    with pytest.raises(ValueError):
        MomentTable.from_distribution(Exponential(1), 5)


# --- user-supplied densities ---------------------------------------------------------

def test_user_density_quadrature_moments():
    from edgeworth.moments import UserDensity

    tri = lambda x: np.where(
        (x >= 0) & (x <= 2), np.where(x <= 1, x, 2 - x), 0.0
    )
    d = UserDensity(tri, (0, 2), label="triangle", max_order=6)
    assert d.raw_moment(1) == pytest.approx(1.0, abs=1e-11)
    assert d.raw_moment(2) == pytest.approx(7 / 6, abs=1e-11)
    s = standardize(d)
    assert abs(float(s.moment((1,)))) < 1e-9
    assert abs(float(s.moment((1, 1))) - 1.0) < 1e-9
    rng = np.random.default_rng(77)
    x = s.sample(rng, 50_000)
    assert abs(x.mean()) < 0.02 and abs(x.var() - 1) < 0.05


def test_user_density_sample_rejects_zero_density():
    # a zero envelope accepts no proposal: the rejection loop would not end
    d = UserDensity(lambda x: np.zeros_like(x), (0, 2), label="zero", max_order=6)
    with pytest.raises(ValueError, match="not positive"):
        d.sample(np.random.default_rng(5), 10)


def test_user_density_sample_rejects_a_peak_between_scan_points():
    # 0.5 U(0,1) + 0.5 (triangle of half-width 1e-4 at 0.30001): the 4097-point
    # scan peaks at 3059 against a true 5000.5, so an envelope of 1.05 x 3059
    # would clip the spike and draw too little mass near it
    from edgeworth.moments import UserDensity

    c, h = 0.30001, 1e-4
    d = UserDensity(lambda x: 0.5 * ((x >= 0) & (x <= 1))
                    + 0.5 * np.maximum(0.0, 1 - np.abs(x - c) / h) / h,
                    (0, 1), label="spike", max_order=4)
    assert float(np.max(d.pdf(np.linspace(0, 1, 4097)))) == pytest.approx(3059.09, abs=0.01)
    with pytest.raises(ValueError, match=r"^spike: density \S+ > envelope 3212$"):
        d.sample(np.random.default_rng(5), 400_000)


def _triangle(x):
    return np.where((x >= 0) & (x <= 2), np.where(x <= 1, x, 2 - x), 0.0)


def test_user_density_rounds_are_sized_from_its_acceptance():
    # the envelope 1.05 over (0, 2) accepts 1 / 2.1 of the proposals: one
    # round of that size gives 100k triangle draws (a fixed round of twice
    # the missing draws, 2 * missing + 16, took four)
    sizes = []
    d = UserDensity(lambda x: sizes.append(np.size(x)) or _triangle(x), (0, 2),
                    label="triangle", max_order=6)
    x = d.sample(np.random.default_rng(77), 100_000)
    assert sizes == [4097, _round_size(100_000, 1 / 2.1)]  # the scan, then one round
    assert x.shape == (100_000,) and np.all((x > 0) & (x < 2))
    assert abs(x.mean() - 1) < 0.01 and abs(x.var() - 1 / 6) < 0.01
    assert d.sample(np.random.default_rng(77), 0).shape == (0,)


def test_user_density_sample_stalls_when_acceptance_stays_below_1e_4():
    # a needle of half-width 2e-5 centred on a scan point of (0, 1): the
    # envelope 1.05 / 2e-5 accepts 1.9e-5 of the proposals
    h = 2e-5
    d = UserDensity(lambda x: np.maximum(0.0, 1 - np.abs(x - 0.5) / h) / h, (0, 1),
                    label="needle", max_order=4)
    with pytest.raises(RejectionStall, match="^needle sampler acceptance below 1e-4$"):
        d.sample(np.random.default_rng(5), 20)


def test_user_char_fn_matches_dense_trapezoid():
    from edgeworth.moments import UserDensity

    d = UserDensity(_triangle, (0, 2), label="triangle", max_order=6)
    t = np.linspace(-400.0, 400.0, 1001)
    assert np.max(np.abs(d.char_fn(t) - user_char_fn(d, t))) <= 1e-12
    assert d.char_fn(0.0).shape == (1,)
    assert d.char_fn(t.reshape(7, 143)).shape == (7, 143)
    # unsorted wide frequencies, a scalar and a shaped array, on a support
    # that straddles 0; the dense oracle takes 23 chunks to stay small
    ramp = UserDensity(lambda x: (x + 3) / 32, (-3, 5), label="ramp", max_order=6)
    wide = np.random.default_rng(8).uniform(-2000.0, 2000.0, 2001)
    for law in (d, ramp):
        got = law.char_fn(wide)
        want = np.concatenate([user_char_fn(law, part) for part in np.split(wide, 23)])
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(law.char_fn(-37.25) - user_char_fn(law, -37.25))) <= 1e-12
        shaped = wide[:1001].reshape(7, 143)
        want = user_char_fn(law, shaped.ravel()).reshape(7, 143)
        assert np.max(np.abs(law.char_fn(shaped) - want)) <= 1e-12


@pytest.mark.parametrize("name", shipped_labels())
def test_standardized_moments_memoized(name):
    d = make_distribution(name)
    calls = []
    central = d.base.central_moment
    d.base.central_moment = lambda k: calls.append(k) or central(k)
    first = [d.raw_moment(k) for k in range(17)]
    assert [d.raw_moment(k) for k in range(17)] == first
    assert sorted(calls) == list(range(1, 17))  # k = 0 needs no central moment
    fresh = standardize(d.base)
    assert all(fresh.raw_moment(k) == first[k] for k in range(17))


@pytest.mark.parametrize("name", shipped_labels())
def test_central_moment_memoizes_raw_moments(name):
    # the registry builds every law from its defaults; standardizing one
    # would already fill its memo, so both instances here are new
    law = type(make_distribution(name).base)
    base, fresh = law(), law()
    calls = []
    raw = base._raw_moment
    base._raw_moment = lambda j: calls.append(j) or raw(j)
    got = [base.central_moment(k) for k in range(17)]
    assert all(count == 1 for count in Counter(calls).values())
    assert sorted(calls) == list(range(17))
    mu = fresh.raw_moment(1)
    for k in range(17):
        plain = sum(math.comb(k, j) * fresh.raw_moment(j) * (-mu) ** (k - j)
                    for j in range(k + 1))
        assert got[k] == plain


def _plain_normal(k, mu, sigma):
    return sum(math.comb(k, j) * math.prod(range(j - 1, 0, -2)) * sigma**j * mu ** (k - j)
               for j in range(0, k + 1, 2))


# raw moments of the base laws as plain Fraction sums and products, for
# parameters other than the registry defaults
PLAIN_RAW_MOMENTS = {
    "laplace(mu=1/3,b=2)": lambda k: sum(
        math.comb(k, j) * math.factorial(j) * F(2) ** j * F(1, 3) ** (k - j)
        for j in range(0, k + 1, 2)),
    "normal(mu=-1/2,sigma=3/2)": lambda k: _plain_normal(k, F(-1, 2), F(3, 2)),
    "gamma(shape=3/2,scale=2/3)": lambda k: math.prod(
        [F(3, 2) + i for i in range(k)], start=F(1)) * F(2, 3) ** k,
    "uniform(a=-1,b=5)": lambda k: (F(5) ** (k + 1) - F(-1) ** (k + 1)) / (6 * (k + 1)),
    "exponential(rate=3)": lambda k: F(math.factorial(k), 3**k),
    "atom_mixture(p=1/10,atom=-3)": lambda k: (
        F(1, 10) * _plain_normal(k, F(0), F(1)) + F(9, 10) * F(-3) ** k),
    "gauss_mixture": lambda k: (F(3, 10) * _plain_normal(k, F(-1), F(1, 2))
                                + F(7, 10) * _plain_normal(k, F(3, 7), F(1))),
}


@pytest.mark.parametrize("spec", sorted(PLAIN_RAW_MOMENTS))
def test_exact_moments_match_plain_fraction_formulas(spec):
    d = make_distribution(spec)
    raw = [PLAIN_RAW_MOMENTS[spec](k) for k in range(17)]
    mu = raw[1]
    central = [sum(math.comb(k, j) * raw[j] * (-mu) ** (k - j) for j in range(k + 1))
               for k in range(17)]
    for k in range(17):
        got_raw, got_central = d.base.raw_moment(k), d.base.central_moment(k)
        assert type(got_raw) is F and got_raw == raw[k], k
        assert type(got_central) is F and got_central == central[k], k
        if k % 2 == 0:  # the standardized law's even moments need no square root
            assert d.raw_moment(k) == central[k] / central[2] ** (k // 2), k


def test_gamma_recurrence_reaches_a_cold_high_order():
    # filled from the lowest order up, so a cold order 600 does not recurse 600 deep
    got = Gamma(shape=F(3, 2), scale=F(2, 3)).raw_moment(600)
    assert got == PLAIN_RAW_MOMENTS["gamma(shape=3/2,scale=2/3)"](600)


@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=17),
       st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_binomial_moment_matches_fraction_sum(z, s, c):
    k = len(z) - 1
    want = sum((math.comb(k, j) * z[j] * s**j * c ** (k - j) for j in range(k + 1)), F(0))
    got = _binomial_moment(z, s, c)
    assert type(got) is F and got == want


def test_user_density_central_moments_keep_the_float_sum():
    d = UserDensity(lambda x: (x + 3) / 32, (-3, 5), label="ramp", max_order=10)
    mu = d.raw_moment(1)
    for k in range(11):
        acc = 0
        for j in range(k + 1):
            acc += math.comb(k, j) * d.raw_moment(j) * (-mu) ** (k - j)
        got = d.central_moment(k)
        assert type(got) is float and got.hex() == float(acc).hex(), k


def test_gauss_mixture_char_fn_matches_component_matmul():
    d = GaussianMixture()
    t = np.linspace(-30.0, 30.0, 2001)
    comp = np.exp(1j * d._mf * t[:, None] - 0.5 * (d._sf * t[:, None]) ** 2)
    assert np.max(np.abs(d.char_fn(t) - comp @ d._wf.astype(complex))) <= 1e-15
    assert d.char_fn(t.reshape(3, 667)).shape == (3, 667)
    assert d.char_fn(0.0) == pytest.approx(1.0, abs=1e-15)


def test_user_char_fn_nodes_once_per_instance():
    calls = []
    d = UserDensity(lambda x: calls.append(np.size(x)) or _triangle(x), (0, 2),
                    label="triangle", max_order=6)
    t = np.linspace(-40.0, 40.0, 101)
    first = d.char_fn(t)
    assert np.array_equal(d.char_fn(t), first)
    assert calls == [8193]


# --- characteristic-function envelopes -------------------------------------------------

_RAW_LAWS = [Uniform(), Exponential(), Laplace(), Gamma(), GaussianMixture(), AtomMixture(),
             Normal()]
EPS = np.finfo(float).eps


def _atomic_char_fn(law, t):
    return sum(mass * np.exp(1j * a * t) for a, mass in law.atoms)


def _phase_rounding(law, t):
    """Relative rounding of an atom's term ``mass e^{i a t}`` in ``char_fn``:
    eps times its phase, which a standardized law computes in two parts."""
    reach = 1 + max((abs(a) for a, _ in law.atoms), default=0.0)
    return EPS * (1 + np.abs(t) * reach)


@pytest.mark.parametrize("law", _RAW_LAWS + [standardize(d) for d in _RAW_LAWS],
                         ids=[d.label for d in _RAW_LAWS] + [f"std-{d.label}" for d in _RAW_LAWS])
@given(st.floats(0, 2000), st.floats(0, 2000))
def test_char_envelope_bounds_the_ac_transform(law, t1, t2):
    lo, hi = sorted((t1, t2))
    t = np.array([lo, hi, -lo, -hi])
    env = law.char_envelope(t)
    # |phi - A|, the a.c. part: exact up to the rounding of the atoms' terms
    ac = np.abs(law.char_fn(t) - _atomic_char_fn(law, t))
    slack = 8 * sum(mass for _, mass in law.atoms) * _phase_rounding(law, t)
    assert np.all(ac <= env * (1 + 1e-12) + slack)
    assert env[1] <= env[0]
    assert env[2] == env[0] and env[3] == env[1]


def test_laws_without_envelope():
    tri = UserDensity(lambda x: np.where(np.abs(x) <= 1, 1 - np.abs(x), 0.0), (-1, 1))
    assert tri.char_envelope is None and standardize(tri).char_envelope is None
    assert Distribution.char_envelope is None


@pytest.mark.parametrize("n", [1, 2, 32, 1024])
@given(st.floats(0, 2000))
def test_atom_envelope_bounds_the_power_difference(n, t):
    # |phi^n - A^n| <= (e + a)^n - a^n, up to the rounding of the two powers
    law = make_distribution("atom_mixture")
    (_, a), = law.atoms
    t = np.array([t])
    e = float(law.char_envelope(t)[0])
    diff = abs(_int_power(law.char_fn(t), n) - _int_power(_atomic_char_fn(law, t), n))[0]
    with localcontext() as ctx:  # 200 digits: no underflow, and room for the cancellation
        ctx.prec = 200
        bound = float((Decimal(e) + Decimal(a)) ** n - Decimal(a) ** n)
    noise = 8 * n * _phase_rounding(law, t[0]) * (a + e) ** n
    assert diff <= bound * (1 + 1e-12) + noise
