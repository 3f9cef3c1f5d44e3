"""FFT inversion, grid densities, total variation, quadrature."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from edgeworth.correctors import EdgeworthModel, edgeworth_grid, hermite_1d
from edgeworth.harness import RateConfig, run_rate
from edgeworth.moments import (
    AtomMixture,
    Distribution,
    GaussianMixture,
    ProductDistribution,
    Uniform,
    UserDensity,
    make_distribution,
    shipped_labels,
    standardize,
)
from edgeworth.numerics import (
    AliasingDetected,
    GridDensity,
    GridMismatch,
    _axis,
    _int_power,
    _invert_charfn,
    _spectrum_prefix,
    default_grid_points,
    law_of_sn,
    sn_tail_bound,
    tv_distance,
)
from closed_form_oracle import atom_mixture_sn, gauss_mixture_sn, normal_pdf
from grid_oracle import law_of_sn_2d, law_of_sn_full, spectrum_prefix_full
from quadrature_oracle import gauss_hermite


# --- gauss_hermite ---------------------------------------------------------------

def test_gh_second_moment_exact():
    assert gauss_hermite(lambda x: x * x, 1, 8) == pytest.approx(1.0, abs=1e-14)


def test_gh_hermite_orthogonality():
    h3 = hermite_1d(3)
    assert gauss_hermite(lambda x: h3(x) * h3(x), 1, 64) == pytest.approx(6.0, abs=1e-12)
    assert abs(gauss_hermite(h3, 1, 64)) < 1e-14


def test_gh_2d_tensor():
    val = gauss_hermite(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, 2, 16)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_gh_rejects_single_node():
    with pytest.raises(ValueError):
        gauss_hermite(lambda x: x, 1, 1)


# --- law_of_sn --------------------------------------------------------------------

def test_gaussian_fixed_point():
    nrm = make_distribution("normal")
    for n in (1, 7, 256):
        g = law_of_sn(nrm, n)
        assert np.max(np.abs(g.values - normal_pdf(g.axes[0]))) < 1e-8


def test_n_equals_one_recovers_smooth_input():
    d = make_distribution("gauss_mixture")
    g = law_of_sn(d, 1)
    assert np.max(np.abs(g.values - d.pdf(g.axes[0]))) < 1e-8


def test_irwin_hall_triangle():
    # S_2 of the standardized uniform is the triangle (sqrt6 - |x|)/6; its
    # slow characteristic decay needs a fine grid
    g = law_of_sn(make_distribution("uniform"), 2, 2**20, 4.0)
    xs = g.axes[0]
    tri = np.maximum(math.sqrt(6) - np.abs(xs), 0.0) / 6
    assert np.max(np.abs(g.values - tri)) < 1e-6
    assert g.values[np.argmin(np.abs(xs))] == pytest.approx(math.sqrt(6) / 6, abs=1e-6)


@pytest.mark.parametrize("n", [2, 4])
def test_fft_vs_direct_self_convolution(n):
    # the n-fold convolution of a two-component Gaussian mixture is the
    # binomial mixture of n + 1 normals: a closed-form oracle with no FFT
    raw = GaussianMixture()
    g = law_of_sn(standardize(raw), n)
    assert np.max(np.abs(g.values - gauss_mixture_sn(g.axes[0], n, raw))) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_atom_mixture_matches_closed_form(n):
    # past the spectrum cut the a.c. transform phi^n - A^n is rounding noise
    # of the two powers; evaluated, it costs 1.5e-11 at n = 1
    raw = AtomMixture()
    g = law_of_sn(standardize(raw), n)
    assert np.max(np.abs(g.values - atom_mixture_sn(g.axes[0], n, raw))) <= 1e-13


def test_atom_mixture_rate_tv_matches_closed_form():
    # the statistic of `edgeworth rate --dist atom_mixture --r 6`, with the
    # inverted grid replaced by the closed-form density on the same grid
    raw = AtomMixture()
    d = standardize(raw)
    model = EdgeworthModel.build(d, 6)
    for n in [32, 64, 128, 256, 512, 1024]:
        g, gam = law_of_sn(d, n), edgeworth_grid(model, n)
        exact = GridDensity(g.halfwidth, atom_mixture_sn(g.axes[0], n, raw))
        assert abs(tv_distance(g, gam).raw - tv_distance(exact, gam).raw) <= 1e-12, n


def test_atom_mixture_singular_mass_counts_as_distance():
    # Gamma_{n,r} has no atom, so mu_n's singular mass 0.9^n is distance, not
    # slack; counted as slack it made the small-n intervals too wide
    raw = AtomMixture(p=Fraction(1, 10))
    report = run_rate(RateConfig(dist="atom_mixture(p=1/10)", r=3,
                                 n_list=(32, 64, 128, 256, 512, 1024)))
    assert (report.verdict, report.reason) == ("pass", "")
    gam = edgeworth_grid(EdgeworthModel.build(standardize(raw), 3), 32)
    exact = atom_mixture_sn(gam.axes[0], 32, raw)
    want = float(np.abs(exact - gam.values).sum() * gam.cell_volume) + 0.9**32
    assert abs(report.tv_values[0].raw - want) <= 1e-12


@pytest.mark.parametrize("spec,points", [("uniform", None), ("exponential*uniform", None),
                                         ("laplace*gamma", 64)])
def test_law_of_sn_values_are_plain_float_arrays(spec, points):
    # a view into a complex buffer would pin twice the grid's memory
    g = law_of_sn(make_distribution(spec), 32, points)
    assert g.values.dtype == np.float64 and g.values.flags.c_contiguous
    assert g.values.base is None or not np.iscomplexobj(g.values.base)


def test_empty_spectrum_prefix_gives_a_zero_axis():
    # np.fft.irfft of an empty spectrum returns uninitialized memory
    def empty(t):
        return t[:0]

    def normal(t):
        return np.exp(-0.5 * t * t)

    assert np.array_equal(_invert_charfn([empty], 16.0, 8), np.zeros(8))
    assert np.array_equal(_invert_charfn([normal, empty], 16.0, 8), np.zeros((8, 8)))


@pytest.mark.parametrize("name", shipped_labels())
@pytest.mark.parametrize("n", [1, 4, 64, 1024, 4096])
def test_mass_conservation(name, n):
    d = make_distribution(name)
    g = law_of_sn(d, n)  # raises AliasingDetected on defect
    defect = g.mass_defect()
    assert -1e-6 <= defect <= g.tail_mass_bound + 1e-6


def test_atom_mixture_singular_mass():
    d = make_distribution("atom_mixture")
    g = law_of_sn(d, 5)
    assert g.singular_mass == pytest.approx(0.3**5)


def test_aliasing_detected_on_too_small_window():
    d = make_distribution("exponential")
    with pytest.raises(AliasingDetected):
        law_of_sn(d, 4, points=2**8, halfwidth=1.0)


def test_law_of_sn_requires_standardized():
    with pytest.raises(ValueError):
        law_of_sn(Uniform(0, 1), 4)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        law_of_sn(make_distribution("normal"), 2, points=1000)


def test_grid_rejects_values_off_its_axes():
    # a layout is a half-width and an m^N array: a 4 x 8 array has no one
    # axis length, and a 0-d value has no axis at all
    with pytest.raises(ValueError, match="do not match"):
        GridDensity(2.0, np.full((4, 8), 0.5))
    with pytest.raises(ValueError, match="do not match"):
        GridDensity(2.0, np.float64(0.5))
    with pytest.raises(ValueError, match="power of two"):
        GridDensity(2.0, np.full(6, 0.5))
    assert GridDensity(2.0, np.full(4, 0.5)).mass() == 2.0
    assert GridDensity(2.0, np.full((4, 4), 0.5)).mass() == 8.0


@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf],
                                 [1e308, 1e308]])
def test_grid_rejects_values_whose_sum_is_not_finite(bad):
    with pytest.raises(ValueError, match="non-finite values or its sum overflows"):
        GridDensity(2.0, np.array(bad + [0.0] * (8 - len(bad))))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_built_directly_holds_the_cached_axis(dim):
    g = GridDensity(12.0, np.zeros((8,) * dim))
    assert g.dim == dim
    assert all(a is _axis(12.0, 8) for a in g.axes)
    assert g.cell_volume == 3.0**dim


@pytest.mark.parametrize("spec,n,points", [("uniform", 1, 2), ("exponential*uniform", 2, 4)])
def test_edgeworth_grid_checks_its_mass(spec, n, points):
    # int K_m dgamma = 0, so Gamma_{n,r} has mass 1; at dx = 16 (2 points)
    # or dx = 8 (4 points) the sampled Gaussian is far from it
    model = EdgeworthModel.build(make_distribution(spec), 3)
    with pytest.raises(AliasingDetected, match="mass defect"):
        edgeworth_grid(model, n, points)


def test_edgeworth_grid_mass_check_is_signed():
    # uniform's K_2 is negative in the tails, so Gamma_{1,6} has negative
    # mass outside [-4, 4): its defect is negative, and certified
    g = edgeworth_grid(EdgeworthModel.build(make_distribution("uniform"), 6), 1, 2**10, 4.0)
    assert -g.tail_mass_bound <= g.mass_defect() < -1e-4


# --- tv_distance ------------------------------------------------------------------

def _grid_from(fn, halfwidth=16.0, m=2**12, **kw):
    return GridDensity(halfwidth, fn(_axis(halfwidth, m)), **kw)


def test_tv_identical_is_zero():
    p = _grid_from(normal_pdf)
    q = _grid_from(normal_pdf)
    assert tv_distance(p, q).raw == 0.0


def test_tv_mean_shifted_normals_closed_form():
    p = _grid_from(lambda x: normal_pdf(x))
    q = _grid_from(lambda x: normal_pdf(x, mu=0.1))
    want = 4 * stats.norm.cdf(0.05) - 2  # no-half convention
    assert tv_distance(p, q).raw == pytest.approx(want, abs=1e-4)


def test_tv_disjoint_supports_is_two():
    # build unit masses exactly on disjoint cell ranges
    m = 2**12
    xs = _axis(16.0, m)
    dx = xs[1] - xs[0]
    pv, qv = np.zeros(m), np.zeros(m)
    pv[100:300] = 1.0 / (200 * dx)
    qv[3000:3400] = 1.0 / (400 * dx)
    p, q = GridDensity(16.0, pv), GridDensity(16.0, qv)
    assert p.mass() == pytest.approx(1.0, abs=1e-12)
    assert tv_distance(p, q).raw == pytest.approx(2.0, abs=1e-6)


def test_tv_symmetry_nonneg_triangle():
    p = _grid_from(lambda x: normal_pdf(x))
    q = _grid_from(lambda x: normal_pdf(x, mu=0.3))
    r = _grid_from(lambda x: normal_pdf(x, s=1.4))
    dpq, dqp = tv_distance(p, q).raw, tv_distance(q, p).raw
    assert dpq == dqp >= 0
    assert tv_distance(p, r).raw <= dpq + tv_distance(q, r).raw + 1e-14


def test_tv_interval_accounting():
    p = _grid_from(normal_pdf, tail_mass_bound=1e-3, singular_mass=0.0)
    q = _grid_from(normal_pdf, tail_mass_bound=0.0, singular_mass=2e-3)
    tv = tv_distance(p, q)
    # the singular mass q has and p lacks is distance, not uncertainty
    assert tv.lo == tv.raw == 2e-3
    assert tv.width == pytest.approx(1e-3)
    assert tv.mid == pytest.approx(2.5e-3)


@pytest.mark.parametrize("m", [2**12, 256])
def test_tv_leaves_both_grids_unchanged(m):
    x = _axis(16.0, m)
    if m == 256:  # a product grid
        p = GridDensity(16.0, np.multiply.outer(normal_pdf(x), normal_pdf(x, mu=0.2)))
        q = GridDensity(16.0, np.multiply.outer(normal_pdf(x, s=1.3), normal_pdf(x)))
    else:
        p, q = _grid_from(normal_pdf, m=m), _grid_from(lambda t: normal_pdf(t, mu=0.2), m=m)
    pv, qv = p.values.copy(), q.values.copy()
    raw = tv_distance(p, q).raw
    assert np.array_equal(p.values, pv) and np.array_equal(q.values, qv)
    assert raw == float(np.abs(pv - qv).sum() * p.cell_volume)


def _random_signed_values(shape, seed):
    # magnitudes over about 17 decades, so the order of the additions shows
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 10.0, shape))


@pytest.mark.parametrize("shape", [(2**k,) for k in range(4, 17)]
                         + [(m, m) for m in (64, 128, 256, 512, 1024)] + [(128,) * 3],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_blocked_tv_is_numpy_sum_bit_for_bit(shape):
    # the blocks of 2^14 and their pairwise sums follow numpy's pairwise sum
    # of the whole |p - q| on every power-of-two size
    p = GridDensity(16.0, _random_signed_values(shape, 1))
    q = GridDensity(16.0, _random_signed_values(shape, 2))
    want = float(np.abs(p.values - q.values).sum() * p.cell_volume)
    assert tv_distance(p, q).raw == want


def test_blocked_tv_of_fortran_ordered_grids():
    # the grid keeps C order, so the blocks run over the elements in the order
    # numpy sums a C-ordered |p - q|
    pv, qv = _random_signed_values((256, 256), 3), _random_signed_values((256, 256), 4)
    p, q = GridDensity(16.0, np.asfortranarray(pv)), GridDensity(16.0, np.asfortranarray(qv))
    assert p.values.flags.c_contiguous and np.array_equal(p.values, pv)
    assert tv_distance(p, q).raw == float(np.abs(pv - qv).sum() * p.cell_volume)


def test_blocked_tv_allocates_no_grid_sized_temporary():
    p = GridDensity(16.0, _random_signed_values((512, 512), 5))
    q = GridDensity(16.0, _random_signed_values((512, 512), 6))
    tracemalloc.start()
    try:
        tv_distance(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.values.nbytes / 4


def test_tv_grid_mismatch():
    p = _grid_from(normal_pdf, m=2**10)
    q = _grid_from(normal_pdf, m=2**11)
    with pytest.raises(GridMismatch):
        tv_distance(p, q)
    r = _grid_from(normal_pdf, halfwidth=15.0, m=2**10)
    with pytest.raises(GridMismatch):
        tv_distance(p, r)


def test_grid_axis_shared_per_layout():
    # one read-only axis object per layout, so tv_distance matches it by identity
    d = make_distribution("laplace")
    g = law_of_sn(d, 8, points=2**10, halfwidth=12.0)
    e = edgeworth_grid(EdgeworthModel.build(d, 3), 8, points=2**10, halfwidth=12.0)
    assert g.axes[0] is e.axes[0] is law_of_sn(d, 16, points=2**10, halfwidth=12.0).axes[0]
    assert not g.axes[0].flags.writeable
    assert np.array_equal(g.axes[0], -12.0 + 24.0 / 2**10 * np.arange(2**10))


@pytest.mark.parametrize("points,halfwidth", [
    (2**10, -1.0), (2**10, 0.0), (2**10, math.inf), (2**10, math.nan), (1000, 12.0), (1, 12.0),
])
def test_bad_grid_layout_raises_on_every_call(points, halfwidth):
    d = make_distribution("laplace")
    for _ in range(2):  # a rejected layout is not cached
        with pytest.raises(ValueError):
            law_of_sn(d, 8, points=points, halfwidth=halfwidth)
        with pytest.raises(ValueError):
            edgeworth_grid(EdgeworthModel.build(d, 3), 8, points=points, halfwidth=halfwidth)


def test_atom_mixture_inversion_matches_monte_carlo():
    # end-to-end check of the atomic-part subtraction: grid CDF (plus the
    # pure-atom mass) against an empirical CDF of direct draws
    d = make_distribution("atom_mixture")
    n = 6
    g = law_of_sn(d, n)
    xs = g.axes[0]
    dx = xs[1] - xs[0]
    rng = np.random.default_rng(99)
    m = 200_000
    samp = d.sample(rng, (m, n)).sum(axis=1) / math.sqrt(n)
    (loc, mass), = d.atoms
    grid_cdf = np.cumsum(g.values) * dx + (xs >= loc * math.sqrt(n)) * mass**n
    emp = np.searchsorted(np.sort(samp), xs, side="right") / m
    assert np.max(np.abs(grid_cdf - emp)) < 4 / math.sqrt(m) + 2e-3


# --- 2-D path ----------------------------------------------------------------------

def test_2d_law_of_sn_mass():
    prod = make_distribution("exponential*uniform")
    g = law_of_sn(prod, 16, points=2**9, halfwidth=12.0)
    assert -1e-6 <= g.mass_defect() <= g.tail_mass_bound + 1e-6


def test_2d_gaussian_fixed_point():
    prod = make_distribution("normal*normal")
    g = law_of_sn(prod, 3, points=2**9, halfwidth=12.0)
    xx = np.stack(np.meshgrid(g.axes[0], g.axes[1], indexing="ij"), axis=-1)
    want = np.exp(-0.5 * np.sum(xx * xx, axis=-1)) / (2 * math.pi)
    assert np.max(np.abs(g.values - want)) < 1e-8


@pytest.mark.parametrize("spec", ["exponential*uniform", "laplace*gamma"])
@pytest.mark.parametrize("n", [1, 32, 1024])
@pytest.mark.parametrize("points", [64, 512])
def test_2d_law_of_sn_matches_meshgrid_oracle(spec, n, points):
    d = make_distribution(spec)
    g = law_of_sn(d, n, points)
    assert np.max(np.abs(g.values - law_of_sn_2d(d, n, points, 16.0))) <= 1e-12


@pytest.mark.parametrize("spec", ["exponential*uniform", "exponential*uniform*laplace"])
def test_product_law_of_sn_is_outer_product_of_marginals(spec):
    # S_n of a product law has independent coordinates
    d = make_distribution(spec)
    g = law_of_sn(d, 16, points=64, halfwidth=12.0)
    assert g.values.shape == (64,) * d.dim
    assert -1e-6 <= g.mass_defect() <= g.tail_mass_bound + 1e-6
    marginals = [law_of_sn(c, 16, points=64, halfwidth=12.0).values for c in d.children]
    want = marginals[0]
    for m in marginals[1:]:
        want = np.multiply.outer(want, m)
    assert np.max(np.abs(g.values - want)) < 1e-12


def test_non_product_multivariate_law_is_rejected():
    # a tail "bound" of 0 for a law the grid path cannot factor would be false
    class Plane(Distribution):
        dim = 2
        is_standardized = True

    with pytest.raises(NotImplementedError):
        sn_tail_bound(Plane(), 16, 8.0)
    with pytest.raises(NotImplementedError):
        law_of_sn(Plane(), 16, points=32)


# sn_tail_bound(make_distribution(spec), n, L) for L = 16, 4 and 1, as the
# per-factor recursion computed them; at L = 1 the cap at 1 binds for products
_TAIL_BOUND_BITS = {
    "uniform": {
        1: (2.092191309924123e-17, 8.985893253099508e-08, 1.0),
        32: (7.718903230527811e-14, 0.00033152436936105696, 1.0),
        1024: (1.0868956032272863e-13, 0.0004668181070027387, 1.0),
    },
    "exponential": {
        1: (4.1725868917512213e-07, 0.03515625, 1.0),
        32: (1.8566333076598175e-12, 0.002516782726161182, 1.0),
        1024: (1.32633098735868e-13, 0.000569654821437692, 1.0),
    },
    "laplace": {
        1: (4.430573095903778e-09, 0.02197265625, 1.0),
        32: (2.479150340586456e-13, 0.0009319161116169705, 1.0),
        1024: (1.1292386528050864e-13, 0.0004850043083176945, 1.0),
    },
    "gamma": {
        1: (5.476485854161075e-10, 0.013427734375, 1.0),
        32: (3.356919075088146e-13, 0.001064708704947126, 1.0),
        1024: (1.1543802601552645e-13, 0.0004958025464514833, 1.0),
    },
    "gauss_mixture": {
        1: (4.9131062052838016e-14, 0.0002110163047346859, 1.0),
        32: (1.0863085676675094e-13, 0.00046656597714965557, 1.0),
        1024: (1.098640831466334e-13, 0.00047186264411981524, 1.0),
    },
    "atom_mixture": {
        1: (1.2827033742424594e-14, 5.509169042840212e-05, 1.0),
        32: (9.339928844836136e-14, 0.00040114688935538264, 1.0),
        1024: (1.093122535945554e-13, 0.0004694925542406739, 1.0),
    },
    "normal": {
        1: (1.0988524543412148e-13, 0.0004719535354524851, 1.0),
        32: (1.0988524543412148e-13, 0.0004719535354524851, 1.0),
        1024: (1.0988524543412148e-13, 0.0004719535354524851, 1.0),
    },
    "exponential*uniform": {
        1: (4.1725868919604406e-07, 0.03515633985893253, 1.0),
        32: (1.9338223399650956e-12, 0.002848307095522239, 1.0),
        1024: (2.4132265905859665e-13, 0.0010364729284404307, 1.0),
    },
    "laplace*gamma": {
        1: (4.978221681319886e-09, 0.035400390625, 1.0),
        32: (5.836069415674602e-13, 0.0019966248165640965, 1.0),
        1024: (2.283618912960351e-13, 0.0009808068547691778, 1.0),
    },
}


@pytest.mark.parametrize("spec", sorted(_TAIL_BOUND_BITS))
def test_sn_tail_bound_bits_are_pinned(spec):
    d = make_distribution(spec)
    for n, want in _TAIL_BOUND_BITS[spec].items():
        for L, bound in zip((16.0, 4.0, 1.0), want):
            # the first call computes the law's cumulants, the rest reuse them
            assert sn_tail_bound(d, n, L) == bound, (n, L)

@pytest.mark.parametrize("spec", ["uniform", "atom_mixture", "exponential*uniform"])
def test_sn_tail_bound_at_extreme_halfwidths(spec):
    # L^2k underflows to 0 at L = 1e-25 (those orders bound nothing) and
    # overflows at L = 1e300 (their ratios are 0)
    d = make_distribution(spec)
    assert sn_tail_bound(d, 4, 1e-25) == 1.0
    assert sn_tail_bound(d, 4, 1e300) == 0.0


# --- observability and memory ------------------------------------------------------

def test_negative_mass():
    g = GridDensity(16.0, np.array([0.0, -0.25, 0.5, 0.0, -0.5, 0.25, 0.0, 0.0]))
    assert g.negative_mass() == pytest.approx(4.0 * 0.75)
    assert _grid_from(normal_pdf).negative_mass() == 0.0


def _triangle(x):
    return np.where((x >= 0) & (x <= 2), np.where(x <= 1, x, 2 - x), 0.0)


def test_user_density_law_of_sn_memory_is_bounded():
    # the dense char_fn kernel at 2^12 points was 4096 x 8193 complex (537 MB)
    tri = standardize(UserDensity(_triangle, (0, 2), label="triangle", max_order=6))
    tracemalloc.start()
    try:
        g = law_of_sn(tri, 64, points=2**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # the standardized triangle is the law of two standardized uniform summands
    reference = law_of_sn(make_distribution("uniform"), 128, points=2**12)
    assert tv_distance(g, reference).raw < 1e-6


@pytest.mark.parametrize("spec,limit_mib", [("exponential*uniform", 32),
                                             ("exponential*uniform*laplace", 48)])
def test_default_grid_law_of_sn_memory_is_bounded(spec, limit_mib):
    # one real m^N grid: a full m^N spectrum and fftn needed 64 and 128 MiB
    d = make_distribution(spec)
    tracemalloc.start()
    try:
        g = law_of_sn(d, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.values.shape == (default_grid_points(d.dim),) * d.dim
    assert peak < limit_mib * 2**20


# --- half-axis inversion and integer powers ------------------------------------------

def _user_triangle():
    return standardize(UserDensity(_triangle, (0, 2), label="triangle", max_order=6))


@pytest.mark.parametrize("spec", shipped_labels() + [
    "exponential*uniform", "exponential*uniform*laplace", "triangle"])
@pytest.mark.parametrize("n", [1, 32, 1024])
def test_half_axis_law_of_sn_matches_full_axis_oracle(spec, n):
    # the oracle takes one m^N fftn of the whole centered spectrum, an
    # independent check of the per-axis FFTs and their outer product
    d = _user_triangle() if spec == "triangle" else make_distribution(spec)
    top = 2**8 if spec == "triangle" else {1: 2**12, 2: 2**8, 3: 2**5}[d.dim]
    for points in [2, top]:  # 2 is the smallest grid the inverter accepts
        g = law_of_sn(d, n, points)
        want = law_of_sn_full(d, n, points, 16.0)
        assert np.max(np.abs(g.values - want)) <= 1e-12


# --- spectrum prefix -----------------------------------------------------------------

class _NoEnvelope(Distribution):
    """A standardized 1-D law less its ``char_envelope``: the whole spectrum is evaluated."""

    def __init__(self, law):
        self.law = law
        self.label, self.atoms, self.max_order = law.label, law.atoms, law.max_order
        self.is_standardized = law.is_standardized

    def char_fn(self, t):
        return self.law.char_fn(t)

    def raw_moment(self, k):
        return self.law.raw_moment(k)


@pytest.mark.parametrize("spec", [name for name in shipped_labels() if name != "atom_mixture"]
                         + ["exponential*uniform", "laplace*gamma"])
@pytest.mark.parametrize("n", [1, 32, 1024])
def test_spectrum_prefix_is_bitwise_exact(spec, n):
    # past the cut every entry of phi^n computes to 0 anyway, so leaving it 0
    # changes no bit of the density
    d = make_distribution(spec)
    bare = [_NoEnvelope(law) for law in d.factors()]
    bare = bare[0] if d.dim == 1 else ProductDistribution(bare)
    assert np.array_equal(law_of_sn(d, n).values, law_of_sn(bare, n).values)
    if n == 1024:  # and there is something to cut
        m = default_grid_points(d.dim)
        t = np.arange(m // 2 + 1) * (math.pi / 16.0)
        assert all(_spectrum_prefix(law, n, t / 32) < len(t) for law in d.factors())


@pytest.mark.parametrize("n", [1, 2, 32, 1024])
def test_atom_spectrum_prefix_is_the_exact_cut(n):
    # the a.c. transform phi^n - A^n is cut where (e + a)^n - a^n, taken in
    # exact arithmetic, falls below 2^-1074; the plain float difference of
    # the two powers cancels to 0 too early, and at n = 1024 a^n underflows
    law = make_distribution("atom_mixture")
    a = Fraction(sum(mass for _, mass in law.atoms))
    t = np.arange(2**14 // 2 + 1) * (math.pi / 16.0)
    s = t / math.sqrt(n)
    k = _spectrum_prefix(law, n, s)
    assert 0 < k < len(s)

    def bound(i):
        return (Fraction(float(law.char_envelope(s[i]))) + a) ** n - a**n

    tiny, tol = Fraction(2) ** -1074, Fraction(1, 10**9)
    assert bound(k - 1) >= tiny * (1 - tol)
    assert bound(k) < tiny * (1 + tol)


_CUT_LAWS = shipped_labels() + [
    "normal", "atom_mixture(p=0.1)", "atom_mixture(p=0.02)", "gamma(shape=3/2,scale=2/3)",
    "exponential*uniform[0]", "exponential*uniform[1]", "laplace*gamma[0]", "laplace*gamma[1]"]


@pytest.mark.parametrize("spec", _CUT_LAWS)
def test_spectrum_prefix_matches_full_scan(spec):
    # the cut is found from every 64th entry and one block between two; the
    # full scan bounds every entry of the axis
    name, _, i = spec.partition("[")
    law = make_distribution(name).factors()[int(i[:-1]) if i else 0]
    ns = list(range(1, 40)) + [64, 100, 128, 256, 512, 1000, 1024, 4096]
    for m in [64, 512, 2**10, 2**14, 2**16]:
        for halfwidth in [12.0, 16.0, 40.0]:
            t = np.arange(m // 2 + 1) * (math.pi / halfwidth)
            for n in ns:
                s = t / math.sqrt(n)
                want = spectrum_prefix_full(law, n, s)
                assert _spectrum_prefix(law, n, s) == want, (m, halfwidth, n)


@pytest.mark.parametrize("name", shipped_labels() + ["normal"])
@pytest.mark.parametrize("n", [1, 1024])
def test_law_of_sn_raises_no_warning(name, n):
    # the cut takes logs of envelopes that underflow to 0
    d = make_distribution(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law_of_sn(d, n)


def _decimal_power(z, n):
    """``z ** n`` in 60-digit decimal arithmetic, rounded to a complex."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(z.real), Decimal(z.imag)
        re, im = Decimal(1), Decimal(0)
        while n:
            if n & 1:
                re, im = re * a - im * b, re * b + im * a
            n >>= 1
            a, b = a * a - b * b, 2 * a * b
        return complex(float(re), float(im))


def _random_unit_disk_edge(size, seed):
    # |z| in [0.99, 1]: z ** 4096 stays above 1e-18, so no value underflows
    rng = np.random.default_rng(seed)
    return rng.uniform(0.99, 1.0, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))


def test_int_power_matches_numpy_power():
    z = _random_unit_disk_edge(256, 11)
    eps = np.finfo(float).eps
    for n in range(1, 4097):
        got, want = _int_power(z, n), z**n
        rel = np.max(np.abs(got - want) / np.abs(want))
        # numpy takes exp(n log z) for large n, itself up to about 1.2 n eps
        # off the exact power (squaring: 0.3 n eps), so 1e-13 holds only for
        # small n; the exact reference below bounds the squaring alone
        assert rel <= (1e-13 if n <= 128 else 3 * n * eps), n


def test_int_power_matches_exact_reference():
    z = _random_unit_disk_edge(32, 12)
    eps = np.finfo(float).eps
    ns = sorted({1, 2, 3, 1000, 3000} | {2**k + d for k in range(1, 13) for d in (-1, 0, 1)})
    for n in ns:
        want = np.array([_decimal_power(complex(v), n) for v in z])
        rel = np.max(np.abs(_int_power(z, n) - want) / np.abs(want))
        assert rel <= n * eps, n
    for unit in (1, -1, 1j, -1j):
        assert _int_power(np.array([unit], dtype=complex), 4095)[0] == _decimal_power(unit, 4095)


def test_default_grid_points():
    assert [default_grid_points(d) for d in (1, 2, 3)] == [2**14, 2**10, 2**7]
    assert all(default_grid_points(d) ** d <= 2**21 for d in (1, 2, 3))


def test_default_grid_is_per_dimension_and_bounded():
    # 2^14 points per axis in 2-D would ask for 2^28-point complex arrays
    d = make_distribution("exponential*uniform")
    model = EdgeworthModel.build(d, 3)
    tracemalloc.start()
    try:
        mu = law_of_sn(d, 32)
        gam = edgeworth_grid(model, 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mu.values.shape == gam.values.shape == (2**10, 2**10)
    assert peak < 128 * 2**20
    one = make_distribution("exponential")
    assert law_of_sn(one, 32).values.shape == (2**14,)
    assert edgeworth_grid(EdgeworthModel.build(one, 3), 32).values.shape == (2**14,)
