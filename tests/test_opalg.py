"""Operator algebra: spec examples plus the exact structural identities."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgeworth.exactmath import q_value
from edgeworth.moments import MomentTable, fixture_table, make_distribution
from edgeworth.opalg import DiffOperator, MultiPoly, a_op, c_coeff, psi_k_op, psi_op, t_op
from edgeworth.correctors import h_poly
from ordered_oracle import a_ordered, h_ordered, psi_ordered
from recursion_oracle import psi_k_recursive


@pytest.fixture(scope="module")
def exp_table():
    return MomentTable.from_distribution(make_distribution("exponential"), 9)


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def rational_table(request):
    return fixture_table(request.param, 9)


# --- MultiPoly ----------------------------------------------------------------

def test_poly_diff_and_apply_examples():
    x = MultiPoly.variable(1, 1)
    cube = x * x * x
    d2 = DiffOperator.partial(1, (1, 1))
    assert d2.apply(cube) == 6 * x
    zero = DiffOperator.zero(1)
    assert zero.apply(cube).is_zero()
    quart = cube * x
    third = DiffOperator.partial(1, (1, 1, 1), F(1, 3))
    assert third.apply(quart) == 8 * x


def test_poly_evaluation_vectorized():
    p = MultiPoly(2, {(2, 0): F(1), (0, 1): F(-2), (0, 0): F(5)})
    pts = np.array([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]])
    assert np.allclose(p(pts), [1 - 4 + 5, 5, 9 - 2 + 5])


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-5, 5)), min_size=0, max_size=6
    ),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(-5, 5)), min_size=0, max_size=6
    ),
    st.floats(-2, 2),
)
def test_poly_ring_ops_agree_with_pointwise(ta, tb, x):
    pa = MultiPoly(1, {(e,): F(c) for e, c in ta})
    pb = MultiPoly(1, {(e,): F(c) for e, c in tb})
    xs = np.array([x])
    assert (pa + pb)(xs)[0] == pytest.approx(pa(xs)[0] + pb(xs)[0], abs=1e-9)
    assert (pa * pb)(xs)[0] == pytest.approx(pa(xs)[0] * pb(xs)[0], rel=1e-9, abs=1e-9)


# --- compose ------------------------------------------------------------------

def test_compose_examples():
    d1 = DiffOperator.partial(2, (1,))
    d2 = DiffOperator.partial(2, (2,))
    assert d1.compose(d2) == DiffOperator.partial(2, (1, 2))
    a = DiffOperator.partial(1, (1, 1, 1), F(2))
    b = DiffOperator.partial(1, (1, 1, 1), F(3))
    assert a.compose(b) == DiffOperator.partial(1, tuple([1] * 6), F(6))
    assert DiffOperator.zero(1).compose(a).is_zero()


@settings(max_examples=40)
@given(st.data())
def test_apply_after_compose_associates(data):
    dim = 1
    def rand_op():
        terms = {}
        for _ in range(data.draw(st.integers(0, 3))):
            k = tuple([1] * data.draw(st.integers(0, 3)))
            terms[k] = terms.get(k, 0) + F(data.draw(st.integers(-4, 4)))
        return DiffOperator(dim, terms)

    a, b = rand_op(), rand_op()
    fterms = {
        (e,): F(data.draw(st.integers(-4, 4)))
        for e in range(data.draw(st.integers(1, 11)))  # degree up to 10
    }
    f = MultiPoly(dim, fterms)
    assert a.compose(b).apply(f) == a.apply(b.apply(f))


# --- psi operators -------------------------------------------------------------

def test_psi_vanishes_up_to_order_two(exp_table):
    for t in (0, 1, 2):
        assert psi_op(exp_table, t).is_zero()


def test_psi_3_exponential(exp_table):
    # single p = 3 term: (Delta_3 / 3!) d^3 = (1/3) d^3
    assert psi_op(exp_table, 3) == DiffOperator.partial(1, (1, 1, 1), F(1, 3))


def test_psi_4_exponential(exp_table):
    # p = 3 killed by the pairing indicator on odd |beta|; only Delta_4/4! d^4
    d4 = exp_table.delta((1, 1, 1, 1))
    assert psi_op(exp_table, 4) == DiffOperator.partial(1, (1, 1, 1, 1), F(d4, 24))


def test_psi_zero_when_all_deltas_vanish():
    t = MomentTable.from_deltas(1, 9, {})
    for order in range(10):
        assert psi_op(t, order).is_zero()


# --- c coefficients --------------------------------------------------------------

def test_c1_is_scaled_delta_on_short_indices(exp_table):
    assert c_coeff(exp_table, 1, (1, 1, 1)) == F(2, 6)
    assert c_coeff(exp_table, 1, (1, 1)) == 0


def test_c2_exponential_length_six(exp_table):
    assert c_coeff(exp_table, 2, tuple([1] * 6)) == F(1, 9)


def test_c_vanishes_below_triple_order(rational_table):
    for i in (1, 2, 3):
        for length in range(0, 3 * i):
            gamma = tuple([1] * length)
            assert c_coeff(rational_table, i, gamma) == 0


def test_c_closed_forms_low_orders(rational_table):
    # the short-multiindex closed forms: c^1 = Delta/|g|! at lengths 3 and 4,
    # c^2 at length 7 is the two-split Delta_3 Delta_4 combination,
    # c^3 at length 9 is the triple product of Delta_3's over 3!^3
    t = rational_table
    g3 = tuple([1] * 3)
    g4 = (1,) * 4 if t.dim == 1 else (1, 2, 2, 1)
    assert c_coeff(t, 1, g3) == t.delta(g3) / 6
    assert c_coeff(t, 1, g4) == t.delta(g4) / 24
    g7 = (1,) * 7 if t.dim == 1 else (1, 2, 1, 1, 2, 1, 2)
    want7 = (
        t.delta(g7[:3]) * t.delta(g7[3:]) + t.delta(g7[:4]) * t.delta(g7[4:])
    ) / F(144)
    assert c_coeff(t, 2, g7) == want7
    g9 = (1,) * 9 if t.dim == 1 else (1, 2, 1) * 3
    want9 = t.delta(g9[:3]) * t.delta(g9[3:6]) * t.delta(g9[6:]) / F(216)
    assert c_coeff(t, 3, g9) == want9


def test_c1_length_five_closed_form(rational_table):
    # c^1_gamma = Delta_gamma/5! - Delta_{gamma_1..3}/(3! 2!) 1_{g4=g5}
    t = rational_table
    for gamma in [(1, 1, 1, 1, 1), tuple([min(2, t.dim)] * 5)]:
        gamma = tuple(g if g <= t.dim else 1 for g in gamma)
        want = t.delta(gamma) / 120 - t.delta(gamma[:3]) / 12
        assert c_coeff(t, 1, gamma) == want


# --- a operators ------------------------------------------------------------------

def test_a1_equals_psi_both_modes(rational_table):
    for t in range(0, 10):
        assert a_op(rational_table, 1, t, "direct") == psi_op(rational_table, t)
        assert a_op(rational_table, 1, t, "recursive") == psi_op(rational_table, t)


def test_a_vanishes_below_3i(rational_table):
    assert a_op(rational_table, 2, 5, "direct").is_zero()
    assert a_op(rational_table, 3, 8, "recursive").is_zero()


def test_a2_6_exponential_is_psi3_squared(exp_table):
    assert a_op(exp_table, 2, 6, "direct") == DiffOperator.partial(
        1, tuple([1] * 6), F(1, 9)
    )


def test_operator_order_below_one_rejected(rational_table):
    for i in (0, -1):
        with pytest.raises(ValueError, match="i must be >= 1"):
            c_coeff(rational_table, i, (1, 1, 1))
        for mode in ("direct", "recursive"):
            with pytest.raises(ValueError, match="i must be >= 1"):
                a_op(rational_table, i, 6, mode)
        with pytest.raises(ValueError, match="i must be >= 1"):
            h_poly(rational_table, i, 6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operators_match_ordered_oracle(dim):
    # the sorted-multiset builders (and h_poly on top of them) against the
    # dim^t ordered sums, exactly
    table = fixture_table(dim, 9)
    for t in range(0, 10):
        assert psi_op(table, t) == psi_ordered(table, t), t
        for i in range(1, t // 3 + 1):
            want = a_ordered(table, i, t)
            assert a_op(table, i, t, "direct") == want, (i, t)
            assert a_op(table, i, t, "recursive") == want, (i, t)
            assert h_poly(table, i, t) == h_ordered(table, i, t), (i, t)


@pytest.mark.parametrize("spec", ["gauss_mixture", "gauss_mixture*exponential"])
def test_operators_match_ordered_oracle_float_table(spec):
    # float deltas: the summation order differs, so only rounding may differ
    table = MomentTable.from_distribution(make_distribution(spec), 9)
    for t in range(0, 10):
        assert psi_op(table, t).max_coeff_diff(psi_ordered(table, t)) < 1e-12, t
        for i in range(1, t // 3 + 1):
            want = a_ordered(table, i, t)
            for mode in ("direct", "recursive"):
                assert a_op(table, i, t, mode).max_coeff_diff(want) < 1e-12, (i, t, mode)
            assert h_poly(table, i, t).max_coeff_diff(h_ordered(table, i, t)) < 1e-12


def test_cache_sizes_count_each_family():
    table = fixture_table(2, 9)
    assert table.cache_sizes() == {}
    # A^2_7 = psi_3 A^1_4 + psi_4 A^1_3, and A^1 is psi itself
    a_op(table, 2, 7, "direct")
    assert table.cache_sizes() == {"psi": 2, "a": 1}
    a_op(table, 2, 7, "recursive")  # both modes share the entry
    psi_op(table, 4)
    c_coeff(table, 1, (1, 2, 1))
    assert table.cache_sizes() == {"psi": 2, "a": 1, "c": 1}
    assert table.cache_sizes() == {"psi": 2, "a": 1, "c": 1}  # reading adds nothing


def test_a_modes_agree(rational_table):
    for i in (1, 2, 3):
        for t in range(0, 10):
            assert a_op(rational_table, i, t, "direct") == a_op(
                rational_table, i, t, "recursive"
            ), (i, t)


# --- psi^(k) -----------------------------------------------------------------------

def test_psi_k_examples(rational_table):
    t = rational_table
    for k in (1, 2, 5):
        assert psi_k_op(t, k, 3) == psi_op(t, 3)
        assert psi_k_op(t, k, 2).is_zero()
    assert psi_k_op(t, 1, 6) == a_op(t, 1, 6, "direct")


def test_psi_k_full_range_convolution_equivalent(rational_table):
    # summing p from 0 adds only zero operators; the truncated form is used
    t = rational_table
    for k in (2, 3):
        for order in range(0, 10):
            full = psi_k_op(t, k - 1, order)
            for p in range(0, order + 1):
                full = full + psi_op(t, p).compose(psi_k_op(t, k - 1, order - p))
            assert full == psi_k_op(t, k, order)


def test_psi_k_collapse_identity(rational_table):
    # the paper's recursion == sum_i Q_{i-1}(k) A^i_t == psi_k_op, exactly
    t = rational_table
    rows = psi_k_recursive(t, 12, 9)
    for order in range(0, 10):
        ops = [a_op(t, i, order, "direct") for i in range(1, order // 3 + 1)]
        for k in range(1, 13):
            rhs = DiffOperator.zero(t.dim)
            for i, op in enumerate(ops, start=1):
                rhs = rhs + q_value(i - 1, k) * op
            assert rows[k][order] == rhs, (order, k)
            assert psi_k_op(t, k, order) == rows[k][order], (order, k)


# --- T^n -----------------------------------------------------------------------------

def test_t_op_examples(rational_table):
    t = rational_table
    for n in (1, 4, 9):
        assert t_op(t, n, 3, "direct") == n * psi_op(t, 3)
        for order in (0, 1, 2):
            assert t_op(t, n, order, "direct").is_zero()
    assert t_op(t, 1, 6, "direct") == a_op(t, 1, 6, "direct")  # P_2(1) = 0


def test_t_op_sum_equals_direct(rational_table):
    t = rational_table
    for order in range(0, 10):
        for n in (1, 2, 3, 7, 12):
            assert t_op(t, n, order, "sum") == t_op(t, n, order, "direct"), (order, n)


def test_table_cache_is_thread_safe():
    # the delta and operator memos are unsynchronized dicts: racing threads
    # may both compute an entry, and the pure sources and builders make
    # every result equal to a serial build on a fresh table
    from concurrent.futures import ThreadPoolExecutor

    table = fixture_table(2, 9)
    with ThreadPoolExecutor(8) as pool:
        res = list(pool.map(lambda k: psi_k_op(table, k, 9), [6] * 32))
    assert all(r == res[0] for r in res)
    assert res[0] == psi_k_op(fixture_table(2, 9), 6, 9)


def test_t_op_float_tables_close(exp_table):
    # float-delta tables run the same machinery; agreement within rounding
    dist = make_distribution("gauss_mixture")
    t = MomentTable.from_distribution(dist, 9)
    for order in (6, 9):
        d = t_op(t, 8, order, "sum").max_coeff_diff(t_op(t, 8, order, "direct"))
        assert d < 1e-10


# --- the shared sparse-term base ----------------------------------------------------

def test_diff_operator_constructor_sums_orderings_of_one_key():
    # (1, 2) and (2, 1) are one sorted key: their coefficients add
    op = DiffOperator(2, {(1, 2): 1, (2, 1): 1})
    assert op == DiffOperator.partial(2, (1, 2)) + DiffOperator.partial(2, (2, 1))
    assert op.terms == {(1, 2): 2}
    assert DiffOperator(2, {(1, 2): F(1), (2, 1): F(-1)}).is_zero()


def test_constructor_takes_pairs_and_drops_cancelled_keys():
    p = MultiPoly(1, [((2,), F(1)), ((2,), F(-1)), ((1,), F(3))])
    assert p.terms == {(1,): F(3)}
    assert DiffOperator(1, [((1,), F(2)), ((1,), F(1, 2))]).terms == {(1,): F(5, 2)}


@pytest.mark.parametrize("cls,a,b", [
    (MultiPoly, MultiPoly.variable(1, 1), MultiPoly.variable(2, 2)),
    (DiffOperator, DiffOperator.partial(1, (1,)), DiffOperator.partial(2, (2,))),
])
def test_dimension_mismatch_raises(cls, a, b):
    for combine in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a,
                    lambda: a.max_coeff_diff(b)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine()


def test_keys_outside_the_dimension_raise():
    with pytest.raises(ValueError):
        MultiPoly(1, {(1, 2): F(1)})
    with pytest.raises(ValueError):
        DiffOperator(2, {(1, 3): F(1)})
    with pytest.raises(ValueError):
        DiffOperator(2, {(0,): F(1)})
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 1).diff((3,))


def test_polynomial_and_operator_do_not_mix():
    p, d = MultiPoly.variable(2, 1), DiffOperator.partial(2, (1,))
    for combine in (lambda: p + d, lambda: d + p, lambda: p * d, lambda: d * p,
                    lambda: d.compose(p), lambda: p - d):
        with pytest.raises(TypeError):
            combine()
    assert p != d and d != p


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scalar_operand_is_the_constant_term(dim):
    p = MultiPoly.variable(dim, dim) * MultiPoly.variable(dim, 1)
    d = DiffOperator.partial(dim, (1, dim))
    for x in (p, d):
        one = type(x).constant(dim, F(1))
        assert x + 3 == 3 + x == x + 3 * one
        assert x - F(1, 2) == x + F(-1, 2) * one
        assert 2 * x == x * 2 == x + x == x * (2 * one)
        assert (0 * x).is_zero()
    assert DiffOperator.constant(dim, F(5)).apply(p) == 5 * p
    assert MultiPoly.constant(dim, F(5)).terms == {(0,) * dim: F(5)}


def _coefficients():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _polys(draw, dim, max_exponent=3):
    pairs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, max_exponent)] * dim),
                                    _coefficients()), max_size=5))
    return MultiPoly(dim, pairs)


@st.composite
def _operators(draw, dim):
    # unsorted multiindices, so the constructor's canonicalization is exercised
    pairs = draw(st.lists(st.tuples(st.lists(st.integers(1, dim), max_size=3),
                                    _coefficients()), max_size=4))
    return DiffOperator(dim, pairs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_laws_hold_exactly(data):
    dim = data.draw(st.integers(1, 3))
    s = data.draw(_coefficients())
    for elements in (_polys(dim), _operators(dim)):
        a, b, c = (data.draw(elements) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert s * (a + b) == s * a + s * b
        assert (s * a) * b == s * (a * b)
        assert (a - b) + b == a
        assert (a - a).is_zero()
        assert hash(a + b) == hash(b + a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_is_compatible_with_compose_and_diff(data):
    dim = data.draw(st.integers(1, 3))
    a, b = data.draw(_operators(dim)), data.draw(_operators(dim))
    f = data.draw(_polys(dim, max_exponent=6))
    assert a.compose(b).apply(f) == a.apply(b.apply(f))
    assert (a + b).apply(f) == a.apply(f) + b.apply(f)
    gamma = tuple(data.draw(st.lists(st.integers(1, dim), max_size=4)))
    assert DiffOperator.partial(dim, gamma).apply(f) == f.diff(gamma)
