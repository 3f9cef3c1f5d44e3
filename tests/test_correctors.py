"""Hermite machinery, corrector polynomials, corrected measures."""

import math
import time
from fractions import Fraction as F
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeworth import correctors, moments
from edgeworth.correctors import (
    EdgeworthModel,
    edgeworth_density,
    edgeworth_grid,
    gaussian_expect_poly,
    gaussian_pdf,
    h_poly,
    hermite_1d,
    hermite_multi,
    k_poly,
)
from edgeworth.exactmath import multisets
from edgeworth.moments import MomentTable, fixture_table, make_distribution, shipped_labels
from edgeworth.numerics import _axis
from edgeworth.opalg import MultiPoly
from cumulant_oracle import k_poly_from_cumulants
from fixture_oracle import max_coeff_diff, table_from_deltas
from grid_oracle import edgeworth_grid_2d
from quadrature_oracle import gauss_hermite


@pytest.fixture(scope="module")
def exp_table():
    return MomentTable.from_distribution(make_distribution("exponential"), 9)


# --- Hermite polynomials ---------------------------------------------------------

def test_hermite_low_orders():
    x = MultiPoly.variable(1, 1)
    assert hermite_1d(0) == MultiPoly.constant(1, F(1))
    assert hermite_1d(2) == x * x - 1
    assert hermite_1d(3) == x * x * x - 3 * x


def test_hermite_multi_examples():
    assert hermite_multi((), 2) == MultiPoly.constant(2, F(1))
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    assert hermite_multi((1, 2), 2) == x1 * x2
    assert hermite_multi((1, 1), 2) == x1 * x1 - 1


def test_hermite_orthogonality():
    # int H_a H_b gamma = a! delta_ab, via quadrature, orders <= 8
    for a in range(9):
        for b in range(9):
            val = gauss_hermite(lambda x: hermite_1d(a)(x) * hermite_1d(b)(x), 1, 64)
            want = math.factorial(a) if a == b else 0.0
            assert abs(val - want) < 1e-10, (a, b)


@settings(max_examples=30)
@given(st.data())
def test_gaussian_integration_by_parts(data):
    # E(d_alpha f(G)) == E(f(G) H_alpha(G)) for random polynomials
    deg = data.draw(st.integers(0, 6))
    f = MultiPoly(1, {(e,): F(data.draw(st.integers(-3, 3))) for e in range(deg + 1)})
    order = data.draw(st.integers(1, 4))
    alpha = tuple([1] * order)
    lhs = gauss_hermite(f.diff(alpha), 1, 64)
    rhs = gauss_hermite(lambda x: f(x) * hermite_multi(alpha, 1)(x), 1, 64)
    assert abs(lhs - rhs) < 1e-10


# --- H^i_t --------------------------------------------------------------------------

def test_h_poly_examples(exp_table):
    assert h_poly(exp_table, 1, 3) == F(1, 3) * hermite_1d(3)
    assert h_poly(exp_table, 2, 5).is_zero()
    assert h_poly(exp_table, 2, 6) == F(1, 9) * hermite_1d(6)


# --- K_m vs the classical 1-D displays ------------------------------------------------

def classical_k(table):
    l3, l4, l5 = table.ell(3), table.ell(4), table.ell(5)
    H = hermite_1d
    k1 = F(l3, 6) * H(3)
    k2 = F(l4 - 3, 24) * H(4) + F(l3 * l3, 72) * H(6)
    k3 = (
        (F(l5, 120) - F(l3, 12)) * H(5)
        + F(l3 * (l4 - 3), 144) * H(7)
        + F(l3**3, 1296) * H(9)
    )
    return k1, k2, k3


@pytest.mark.parametrize("name", ["exponential", "uniform", "laplace"])
def test_k_polys_match_classical_displays(name):
    table = MomentTable.from_distribution(make_distribution(name), 9)
    k1c, k2c, k3c = classical_k(table)
    assert max_coeff_diff(k_poly(table, 1), k1c) == 0
    assert max_coeff_diff(k_poly(table, 2), k2c) == 0
    assert max_coeff_diff(k_poly(table, 3), k3c) == 0


def test_k1_multid_display():
    table = fixture_table(2, 6)
    want = MultiPoly.zero(2)
    for gamma in iproduct((1, 2), repeat=3):
        want = want + F(1, 6) * table.delta(gamma) * hermite_multi(gamma, 2)
    assert k_poly(table, 1) == want


def test_k4_three_dimensional_product_matches_cumulant_series():
    spec = "exponential*uniform*laplace"
    t0 = time.perf_counter()
    table = MomentTable.from_distribution(make_distribution(spec), 12)
    got = [k_poly(table, m) for m in range(1, 5)]
    elapsed = time.perf_counter() - t0
    assert got == [k_poly_from_cumulants(table, m) for m in range(1, 5)]
    assert elapsed < 5.0, f"3-D K_1..K_4 took {elapsed:.2f}s"


# --- K_m vs the classical cumulant expansion ------------------------------------------

# (table, largest m): every delta is a Fraction, so the two routes agree with ==.
# atom_mixture's odd deltas are floats (its sigma is irrational); at m <= 2 both
# routes do the same float operations, from m = 3 on they differ in the last bits.
CUMULANT_ORACLE_CASES = (
    [(name, 6) for name in ("exponential", "gamma", "laplace", "uniform", "normal")]
    + [("atom_mixture", 2), ("exponential*gamma", 4), ("exponential*uniform*laplace", 4)]
)


@pytest.mark.parametrize("name, m_max", CUMULANT_ORACLE_CASES)
def test_k_poly_matches_cumulant_oracle(name, m_max):
    table = MomentTable.from_distribution(make_distribution(name), m_max + 2)
    for m in range(1, m_max + 1):
        assert k_poly(table, m) == k_poly_from_cumulants(table, m), m


@pytest.mark.parametrize("dim, m_max", [(1, 7), (2, 5), (3, 4)])
def test_k_poly_matches_cumulant_oracle_on_fixture(dim, m_max):
    # the fixture's deltas mix coordinates, which no product law does
    table = fixture_table(dim, m_max + 2)
    for m in range(1, m_max + 1):
        assert k_poly(table, m) == k_poly_from_cumulants(table, m), m


@pytest.mark.parametrize("name", ["uniform", "laplace", "normal"])
def test_odd_correctors_vanish_on_symmetric_laws(name):
    # odd cumulants vanish, and K_m for odd m needs an odd number of odd-order
    # cumulants: so the corrected measure of order r gains nothing at odd r
    table = MomentTable.from_distribution(make_distribution(name), 7)
    for m in (1, 3, 5):
        assert k_poly(table, m).is_zero(), m
        assert k_poly_from_cumulants(table, m).is_zero(), m


def test_k_degree_bound():
    table = fixture_table(1, 9)
    for m in (1, 2, 3):
        assert k_poly(table, m).degree() <= 3 * m


def test_k_zero_when_moments_match():
    table = table_from_deltas(1, 9, {})
    for m in (1, 2, 3):
        assert k_poly(table, m).is_zero()


def test_k_needs_table_order():
    table = fixture_table(1, 3)
    with pytest.raises(ValueError):
        k_poly(table, 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_k_reads_no_delta_beyond_m_plus_2(data):
    # a term a_{i,(t-m)/2} A^i_t has t <= m + 2i, so its basic operators
    # stop at order m + 2: truncating the table there leaves K_m exactly,
    # and K_m is the sum of the per-(i, t) Hermite images H^i_t
    dim = data.draw(st.integers(1, 2), label="dim")
    m = data.draw(st.integers(1, 4 if dim == 1 else 3), label="m")
    keys = [a for t in range(3, 3 * m + 1) for a in multisets(dim, t)]
    values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                min_size=len(keys), max_size=len(keys)), label="deltas")
    deltas = dict(zip(keys, values))
    full = table_from_deltas(dim, 3 * m, deltas)
    cut = table_from_deltas(dim, m + 2, {a: v for a, v in deltas.items() if len(a) <= m + 2})
    km = k_poly(cut, m)
    assert km == k_poly(full, m)
    assert km == sum((a * h_poly(full, i, t) for a, i, t in correctors._corrector_terms(m)),
                     MultiPoly.zero(dim))


@pytest.mark.parametrize("spec,m", [("exponential", m) for m in range(1, 6)]
                         + [("exponential*gamma", m) for m in range(1, 5)]
                         + [("exponential*uniform*laplace", m) for m in range(1, 4)])
def test_k_evaluates_each_delta_up_to_m_plus_2_once(spec, m, monkeypatch):
    # an order-3m table computes a delta only when K_m reads it
    calls = []
    source = moments.delta
    monkeypatch.setattr(moments, "delta",
                        lambda dist, alpha: calls.append(alpha) or source(dist, alpha))
    table = MomentTable.from_distribution(make_distribution(spec), 3 * m)
    k_poly(table, m)
    assert calls and max(map(len, calls)) <= m + 2
    assert len(calls) == len(set(calls))


# --- corrected measures ------------------------------------------------------------------

def test_density_r2_is_gaussian():
    model = EdgeworthModel.build(make_distribution("exponential"), 2)
    assert model.k_polys == []
    xs = np.linspace(-4, 4, 101)
    assert np.allclose(edgeworth_density(model, 17, xs), gaussian_pdf(xs), atol=1e-15)


def test_density_at_zero_order_three():
    # H_3(0) = 0, so the first corrector does not move the origin
    model = EdgeworthModel.build(make_distribution("exponential"), 3)
    assert edgeworth_density(model, 9, np.array(0.0)) == pytest.approx(
        float(gaussian_pdf(np.array(0.0)))
    )


def test_density_gaussian_when_all_deltas_vanish():
    model = EdgeworthModel.build(make_distribution("normal"), 6)
    xs = np.linspace(-3, 3, 41)
    for n in (1, 10, 100):
        assert np.allclose(edgeworth_density(model, n, xs), gaussian_pdf(xs))


def test_density_may_go_negative():
    model = EdgeworthModel.build(make_distribution("exponential"), 3)
    xs = np.linspace(-8, 8, 2001)
    assert edgeworth_density(model, 2, xs).min() < 0  # signed measure, no clipping


@pytest.mark.parametrize("name", shipped_labels())
@pytest.mark.parametrize("n", [4, 64, 1024])
def test_normalization(name, n):
    model = EdgeworthModel.build(make_distribution(name), 6)
    total = gauss_hermite(
        lambda x: 1.0
        + sum(
            n ** (-m / 2.0) * km(x)
            for m, km in enumerate(model.k_polys, start=1)
            if not km.is_zero()
        ),
        1,
        64,
    )
    assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("name", shipped_labels())
@pytest.mark.parametrize("n", [4, 64, 1024])
def test_third_moment_identity(name, n):
    dist = make_distribution(name)
    model = EdgeworthModel.build(dist, 3)
    got = gauss_hermite(
        lambda x: x**3
        * (1.0 + sum(n ** (-m / 2.0) * km(x) for m, km in enumerate(model.k_polys, 1))),
        1,
        64,
    )
    ell3 = float(model.table.ell(3))
    assert abs(got - ell3 / math.sqrt(n)) < 1e-10


# --- functional coefficients ----------------------------------------------------------------
# For a polynomial f, E f(G) K_m(G) is the exact Gaussian moment of f K_m.

def _operator_form(table, f, m):
    """``E (O_m f)(G)``, one term ``a_{i,h} A^i_{m+2h}`` of ``O_m`` at a time."""
    return sum(a * gaussian_expect_poly(correctors.a_op(table, i, t).apply(f))
               for a, i, t in correctors._corrector_terms(m))


def test_d_m_of_constant_vanishes():
    model = EdgeworthModel.build(make_distribution("exponential"), 9)
    for m in (1, 2, 3):
        assert gaussian_expect_poly(model.k_polys[m - 1]) == 0


def test_d_1_of_cube_is_ell3():
    model = EdgeworthModel.build(make_distribution("exponential"), 3)
    x3 = MultiPoly(1, {(3,): F(1)})
    assert gaussian_expect_poly(x3 * model.k_polys[0]) == model.table.ell(3) == 2


def test_d_2_of_h4_is_excess_kurtosis():
    model = EdgeworthModel.build(make_distribution("exponential"), 6)
    got = gaussian_expect_poly(hermite_1d(4) * model.k_polys[1])
    assert got == model.table.ell(4) - 3 == 6


@pytest.mark.parametrize("name", ["exponential", "uniform", "laplace", "gamma"])
def test_d_m_of_polynomial_is_the_exact_gaussian_moment(name):
    # rational tables: the operator form and E(f K_m)(G) are equal Fractions
    model = EdgeworthModel.build(make_distribution(name), 6)
    x = MultiPoly.variable(1, 1)
    for f in (x * x * x, hermite_1d(4), x * x * x * x * x * x + 3 * x - 1):
        for m in (1, 2):
            exact = gaussian_expect_poly(f * model.k_polys[m - 1])
            assert isinstance(exact, (int, F)) and exact == _operator_form(model.table, f, m)


# (dim, table order, f as {exponents: coefficient}, m, E(f K_m)(G)); no value is 0
FIXTURE_IDENTITY_CASES = [
    (2, 5, {(2, 1): 1}, 1, F(-2)),
    (2, 5, {(2, 2): 1, (1, 0): 3, (0, 0): -1}, 2, F(11, 2)),
    (2, 5, {(5, 0): 1}, 3, F(107, 6)),
    (3, 4, {(1, 1, 1): 1}, 1, F(-5, 3)),
    (3, 4, {(1, 1, 2): 1}, 2, F(14, 5)),
]


@pytest.mark.parametrize("dim, order, terms, m, want", FIXTURE_IDENTITY_CASES)
def test_d_m_operator_form_on_fixture(dim, order, terms, m, want):
    # the fixture's deltas mix coordinates, so the identity is checked beyond 1-D
    table = fixture_table(dim, order)
    f = MultiPoly(dim, {e: F(c) for e, c in terms.items()})
    assert gaussian_expect_poly(f * k_poly(table, m)) == _operator_form(table, f, m) == want


def test_gaussian_expect_poly():
    p = MultiPoly(1, {(4,): F(1), (2,): F(2), (0,): F(-1)})
    assert gaussian_expect_poly(p) == 3 + 2 - 1
    q = MultiPoly(2, {(2, 2): F(1), (1, 0): F(7)})
    assert gaussian_expect_poly(q) == 1


# --- tensor-grid evaluation ------------------------------------------------------

@pytest.mark.parametrize("name", shipped_labels())
def test_1d_edgeworth_grid_is_pointwise_density(name):
    model = EdgeworthModel.build(make_distribution(name), 8)
    g = edgeworth_grid(model, 32, 2**10)
    assert np.array_equal(g.values, edgeworth_density(model, 32, g.axes[0]))


@pytest.mark.parametrize("spec", ["exponential*uniform", "laplace*gamma"])
@pytest.mark.parametrize("n", [1, 32, 1024])
@pytest.mark.parametrize("points", [64, 512])
def test_2d_edgeworth_grid_matches_meshgrid_oracle(spec, n, points):
    model = EdgeworthModel.build(make_distribution(spec), 6)
    g = edgeworth_grid(model, n, points)
    assert np.max(np.abs(g.values - edgeworth_grid_2d(model, n, points, 16.0))) <= 1e-12


def test_3d_edgeworth_grid_matches_pointwise_density():
    model = EdgeworthModel.build(make_distribution("exponential*uniform*laplace"), 3)
    g = edgeworth_grid(model, 8, 32, 8.0)
    pts = np.stack(np.meshgrid(*g.axes, indexing="ij"), axis=-1)
    assert g.values.shape == (32, 32, 32)
    assert np.max(np.abs(g.values - edgeworth_density(model, 8, pts))) <= 1e-12


# --- per-model grid memo ------------------------------------------------------------

@pytest.mark.parametrize("spec,points", [("exponential", 2**10), ("gamma", 2**10),
                                         ("laplace*gamma", 64)])
def test_edgeworth_grid_memo_matches_fresh_model(spec, points):
    d = make_distribution(spec)
    model = EdgeworthModel.build(d, 6)
    for n in (32, 1024, 32):
        got = edgeworth_grid(model, n, points)
        want = edgeworth_grid(EdgeworthModel.build(d, 6), n, points)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.axes[0], want.axes[0])
        assert got.tail_mass_bound == want.tail_mass_bound


@pytest.mark.parametrize("spec,points", [("exponential", None), ("laplace*gamma", 512)])
def test_edgeworth_grid_writes_only_its_own_array(spec, points):
    # r = 8 has two correctors; a 512^2 grid is several blocks of TERM_BLOCK
    model = EdgeworthModel.build(make_distribution(spec), 8)
    first = edgeworth_grid(model, 32, points)
    kept = first.values.copy()
    _, gauss, ks = model._grid_terms
    cached = [gauss.copy()] + [km.copy() for _, km in ks]
    assert len(ks) == 2
    # the allocating form (1 + n^(-1/2) K_1 + n^(-1) K_2) gamma, in that order
    factor = np.ones(gauss.shape)
    for m, km in ks:
        factor = factor + 32 ** (-m / 2.0) * km
    assert np.array_equal(kept, gauss * factor)
    edgeworth_grid(model, 1024, points)
    again = edgeworth_grid(model, 32, points)
    assert again.values is not first.values
    assert np.array_equal(again.values, kept) and np.array_equal(first.values, kept)
    assert all(np.array_equal(a, b)
               for a, b in zip([gauss] + [km for _, km in ks], cached))


def test_edgeworth_grid_memo_holds_last_layout(monkeypatch):
    model = EdgeworthModel.build(make_distribution("exponential"), 6)
    calls = []
    expect = correctors.gaussian_expect_poly
    monkeypatch.setattr(correctors, "gaussian_expect_poly",
                        lambda p: calls.append(p) or expect(p))
    edgeworth_grid(model, 32, 64)
    edgeworth_grid(model, 64, 128)
    key, gauss, ks = model._grid_terms
    assert key == (128, 16.0)
    assert gauss.shape == (128,)
    assert [m for m, _ in ks] == [1, 2] and all(k.shape == (128,) for _, k in ks)
    g = edgeworth_grid(model, 32, 128, 8.0)
    assert model._grid_terms[0] == (128, 8.0)
    # the exact E K_m(G)^2 of the tail bound: once per nonzero corrector
    assert len(calls) == 2
    assert g.axes[0] is _axis(8.0, 128) and not g.axes[0].flags.writeable
