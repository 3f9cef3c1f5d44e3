"""Exact-arithmetic tests: every assertion here is an exact Fraction equality."""

from fractions import Fraction as F
from functools import cache
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from edgeworth.exactmath import (
    a_coeffs,
    multisets,
    orderings,
    p_value,
    prefix_splits,
    q_value,
    theta,
)
from faulhaber_oracle import a_coeffs_faulhaber, b_coeffs, bernoulli, power_sum


def power_sum_direct(l, L):
    """Brute-force oracle for the power sums."""
    return F(sum(k**l for k in range(1, L + 1)))


@cache
def p_oracle(i, n):
    """Iterated-summation oracle: P_1(n) = n, P_{i+1}(n) = sum_{k=i}^{n-1} P_i(k)."""
    if i == 1:
        return F(n)
    return sum((p_oracle(i - 1, k) for k in range(i - 1, n)), F(0))


# --- Bernoulli numbers -------------------------------------------------------

def test_bernoulli_printed_list():
    want = [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0), F(-1, 30)]
    assert [bernoulli(m) for m in range(9)] == want


def test_bernoulli_odd_vanish():
    assert all(bernoulli(m) == 0 for m in range(3, 26, 2))


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# --- power sums --------------------------------------------------------------

@pytest.mark.parametrize("l,L,want", [(1, 3, 6), (0, 5, 5), (2, 3, 14)])
def test_power_sum_examples(l, L, want):
    assert power_sum(l, L) == F(want)


def test_power_sum_zero_terms():
    assert power_sum(3, 0) == 0


@given(st.integers(0, 8), st.integers(0, 200))
def test_power_sum_matches_direct(l, L):
    assert power_sum(l, L) == power_sum_direct(l, L)


# --- b table -----------------------------------------------------------------

def test_b_rows_printed_values():
    assert b_coeffs(0) == (F(-1), F(1))
    assert b_coeffs(1) == (F(0), F(-1, 2), F(1, 2))
    assert b_coeffs(2) == (F(0), F(1, 6), F(-1, 2), F(1, 3))


def test_b_row_lengths():
    for l in range(9):
        assert len(b_coeffs(l)) == l + 2


def test_b_rows_against_direct_summation():
    # sum_{k=1}^{n-1} k^l == sum_q b_{l,q} n^q, exactly
    for l in range(9):
        row = b_coeffs(l)
        for n in range(1, 101):
            poly = sum((c * F(n) ** q for q, c in enumerate(row)), F(0))
            assert poly == power_sum_direct(l, n - 1), (l, n)


# --- a table -----------------------------------------------------------------

def test_a_rows_printed_values():
    assert a_coeffs(1) == (F(0), F(1))
    assert a_coeffs(3)[3] == F(1, 6)  # a_{3,3} = a_{2,2} b_{2,3} = 1/2 * 1/3
    assert a_coeffs(2)[2] == F(1, 2)


def test_a_row_2_from_summation_oracle():
    # P_2(n) = sum_{k=1}^{n-1} k = n(n-1)/2
    assert a_coeffs(2) == (F(0), F(-1, 2), F(1, 2))


def test_a_rows_match_faulhaber_recursion():
    for i in range(1, 16):
        row = a_coeffs(i)
        assert row == a_coeffs_faulhaber(i), i
        assert all(type(c) is F for c in row), i


def test_a_row_lengths():
    for i in range(1, 8):
        assert len(a_coeffs(i)) == i + 1


def test_p_matches_iterated_summation_oracle():
    for i in range(1, 7):
        for n in range(1, 51):
            assert p_value(i, n) == p_oracle(i, n), (i, n)


def test_p_is_partial_sum_of_q():
    for i in range(1, 7):
        for n in range(1, 31):
            assert p_value(i, n) == sum(
                (q_value(i - 1, k) for k in range(1, n + 1)), F(0)
            )


def test_p_vanishes_below_diagonal():
    for i in range(2, 8):
        for n in range(1, i):
            assert p_value(i, n) == 0


# --- Q polynomials -----------------------------------------------------------

@pytest.mark.parametrize("l,k,want", [(0, 7, 1), (1, 4, 3), (2, 2, 0)])
def test_q_examples(l, k, want):
    assert q_value(l, k) == F(want)


def test_q_sign_pattern():
    for l in range(6):
        for k in range(1, 25):
            v = q_value(l, k)
            assert (v == 0) == (k <= l)
            if k > l:
                assert v > 0


# --- pairing indicator and splits ---------------------------------------------

@pytest.mark.parametrize("beta,want", [((1, 1), 1), ((1, 2), 0), ((), 1)])
def test_theta_examples(beta, want):
    assert theta(beta) == want


def test_theta_even_length_needed():
    assert theta((1,)) == 0
    assert theta((2, 2, 2)) == 0


@given(st.lists(st.integers(1, 3), min_size=0, max_size=10))
def test_theta_one_implies_even(entries):
    beta = tuple(entries)
    if theta(beta):
        assert len(beta) % 2 == 0


@given(st.lists(st.integers(1, 3), min_size=2, max_size=10), st.data())
def test_theta_swap_invariance(entries, data):
    beta = tuple(entries)
    if len(beta) % 2:
        beta = beta[:-1]
    if not beta:
        return
    j = data.draw(st.integers(0, len(beta) // 2 - 1))
    swapped = list(beta)
    swapped[2 * j], swapped[2 * j + 1] = swapped[2 * j + 1], swapped[2 * j]
    assert theta(beta) == theta(tuple(swapped))


def test_prefix_splits_examples():
    assert prefix_splits((1, 2)) == [((), (1, 2)), ((1,), (2,)), ((1, 2), ())]
    assert prefix_splits(()) == [((), ())]
    assert len(prefix_splits((1, 1, 1))) == 4


@given(st.lists(st.integers(1, 3), min_size=0, max_size=9))
def test_prefix_splits_concatenate_back(entries):
    gamma = tuple(entries)
    pairs = prefix_splits(gamma)
    assert len(pairs) == len(gamma) + 1
    assert all(a + b == gamma for a, b in pairs)


# --- sorted multiindices -------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("length", [0, 1, 4, 7])
def test_multisets_stand_for_every_ordered_tuple(dim, length):
    keys = list(multisets(dim, length))
    assert len(keys) == len(set(keys)) == comb(length + dim - 1, length)
    assert all(list(k) == sorted(k) for k in keys)
    assert sum(orderings(k) for k in keys) == dim**length
    counts = {}
    for gamma in product(range(1, dim + 1), repeat=length):
        key = tuple(sorted(gamma))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {k: orderings(k) for k in keys}


def test_orderings_examples():
    assert orderings(()) == 1
    assert orderings((1, 1, 1)) == 1
    assert orderings((1, 2, 2, 3)) == 12
    assert orderings((1, 1, 2, 2)) == len(set(permutations((1, 1, 2, 2)))) == 6

