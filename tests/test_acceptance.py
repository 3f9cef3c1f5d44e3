"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them stream) and asserts the stated bounds, including runtime caps.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
from scipy import stats

from edgeworth.correctors import EdgeworthModel, hermite_1d, k_poly
from edgeworth.exactmath import a_coeffs, p_value, q_value
from edgeworth.harness import RateConfig, run_rate
from edgeworth.malliavin import (
    backward_taylor_check,
    default_test_functions,
    ibp_battery,
    sigma_tail,
)
from edgeworth.moments import MomentTable, fixture_table, make_distribution, shipped_labels
from edgeworth.opalg import DiffOperator, MultiPoly, a_op, psi_k_op, t_op
from edgeworth.splitting import split
from faulhaber_oracle import a_coeffs_faulhaber, b_coeffs, bernoulli
from ordered_oracle import a_ordered
from quadrature_oracle import gauss_hermite
from recursion_oracle import psi_k_recursive


def _verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_operator_collapse_identity():
    """Psi^(k)_t == sum_i Q_{i-1}(k) A^i_t exactly, t <= 9, k <= 20, 1-D and 2-D.

    Psi^(k)_t is taken by the paper's convolution recursion; each A^i_t is
    also checked against the ordered dim^t coefficient sum, and the
    library's closed-form ``psi_k_op`` against the recursion.
    """
    t0 = time.perf_counter()
    checked = 0
    for dim in (1, 2):
        table = fixture_table(dim, 9)
        rows = psi_k_recursive(table, 20, 9)
        for order in range(0, 10):
            base = [a_op(table, i, order, "direct") for i in range(1, order // 3 + 1)]
            for i, op in enumerate(base, start=1):
                assert op == a_ordered(table, i, order), (dim, order, i)
                checked += 1
            for k in range(1, 21):
                rhs = DiffOperator.zero(dim)
                for i, op in enumerate(base, start=1):
                    rhs = rhs + q_value(i - 1, k) * op
                assert rows[k][order] == rhs, (dim, order, k)
                assert psi_k_op(table, k, order) == rows[k][order], (dim, order, k)
                checked += 2
    elapsed = time.perf_counter() - t0
    _verdict(1, elapsed < 10.0,
             f"{checked} exact operator equalities in {elapsed:.2f}s (< 10s)")


def test_criterion_02_partial_sum_identity_and_a_table():
    """T^n_t collapse exact (t <= 9, n <= 30); a-table matches the summation oracle.

    T^n_t is the running sum of Psi^(k)_t taken by the paper's recursion;
    the A^i_t behind it are also checked against the ordered dim^t sum.
    """
    t0 = time.perf_counter()
    checked = 0
    for dim in (1, 2):
        table = fixture_table(dim, 9)
        rows = psi_k_recursive(table, 30, 9)
        for order in range(0, 10):
            for i in range(1, order // 3 + 1):
                assert a_op(table, i, order, "direct") == a_ordered(table, i, order), (
                    dim, order, i)
                checked += 1
            running = DiffOperator.zero(dim)
            for n in range(1, 31):
                running = running + rows[n][order]
                assert running == t_op(table, n, order, "direct"), (dim, order, n)
                checked += 1

    # (rec-Pi) oracle: P_i(n) = sum_{k=i-1}^{n-1} P_{i-1}(k)
    cache = {}

    def p_oracle(i, n):
        if i == 1:
            return F(n)
        if (i, n) not in cache:
            cache[(i, n)] = sum((p_oracle(i - 1, k) for k in range(i - 1, n)), F(0))
        return cache[(i, n)]

    for i in range(1, 7):
        for n in range(1, 51):
            assert p_value(i, n) == p_oracle(i, n), (i, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, elapsed < 10.0,
             f"{checked} exact equalities in {elapsed:.2f}s (< 10s)")


def test_criterion_03_printed_coefficient_fixtures():
    """Bernoulli, b-table, a-table values exactly as printed in the source.

    The Bernoulli numbers and the b table come from the Faulhaber oracle,
    whose a rows must equal the library's closed-form rows for i <= 15.
    """
    ok = (
        [bernoulli(m) for m in range(9)]
        == [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0), F(-1, 30)]
        and b_coeffs(0) == (F(-1), F(1))
        and b_coeffs(1) == (F(0), F(-1, 2), F(1, 2))
        and b_coeffs(2) == (F(0), F(1, 6), F(-1, 2), F(1, 3))
        and a_coeffs(1) == (F(0), F(1))
        and a_coeffs(2)[2] == F(1, 2)
        and a_coeffs(3)[3] == F(1, 6)
        and all(a_coeffs(i) == a_coeffs_faulhaber(i) for i in range(1, 16))
    )
    _verdict(3, ok, "all printed Bernoulli/b/a values reproduced as exact rationals")


def test_criterion_04_classical_edgeworth_recovery():
    """Generic correctors reproduce the classical 1-D K_1, K_2, K_3 displays."""
    worst = 0.0
    for name in ("exponential", "uniform", "laplace"):
        table = MomentTable.from_distribution(make_distribution(name), 9)
        l3, l4, l5 = table.ell(3), table.ell(4), table.ell(5)
        H = hermite_1d
        k1c = F(l3, 6) * H(3)
        k2c = F(l4 - 3, 24) * H(4) + F(l3 * l3, 72) * H(6)
        k3c = (
            (F(l5, 120) - F(l3, 12)) * H(5)
            + F(l3 * (l4 - 3), 144) * H(7)
            + F(l3**3, 1296) * H(9)
        )
        for got, want in ((k_poly(table, 1), k1c), (k_poly(table, 2), k2c),
                          (k_poly(table, 3), k3c)):
            worst = max(worst, got.max_coeff_diff(want))
    _verdict(4, worst <= 1e-12,
             f"coefficient-wise deviation {worst:.2e} (<= 1e-12) on 3 laws")


def _rate(dist, r):
    cfg = RateConfig(dist=dist, r=r, n_list=(32, 64, 128, 256, 512, 1024))
    return run_rate(cfg)


def test_criterion_05_rate_skewed_baseline():
    """Centered exponential vs the plain Gaussian: slope in [-0.60, -0.40]."""
    t0 = time.perf_counter()
    report = _rate("exponential", 2)
    elapsed = time.perf_counter() - t0
    ok = -0.60 <= report.slope <= -0.40 and elapsed < 60.0
    _verdict(5, ok, f"slope {report.slope:.4f} in [-0.60,-0.40], {elapsed:.1f}s (< 60s)")


def test_criterion_06_rate_first_correction():
    """Centered exponential vs the first-corrected measure: slope in [-1.20, -0.85]."""
    t0 = time.perf_counter()
    report = _rate("exponential", 3)
    elapsed = time.perf_counter() - t0
    ok = -1.20 <= report.slope <= -0.85 and elapsed < 60.0
    _verdict(6, ok, f"slope {report.slope:.4f} in [-1.20,-0.85], {elapsed:.1f}s (< 60s)")


def test_criterion_07_rate_moment_matched():
    """Symmetric uniform (third moment vanishes) vs Gaussian: slope in [-1.15, -0.85]."""
    report = _rate("uniform", 3)
    assert report.expected_slope == -1.0  # moment-matching branch
    ok = -1.15 <= report.slope <= -0.85
    _verdict(7, ok, f"slope {report.slope:.4f} in [-1.15,-0.85]")


def test_criterion_08_normalization_and_third_moment():
    """Mass 1 and exact third moment of the corrected measures, all laws."""
    worst_mass, worst_m3 = 0.0, 0.0
    for name in shipped_labels():
        dist = make_distribution(name)
        m6 = EdgeworthModel.build(dist, 6)
        m3 = EdgeworthModel.build(dist, 3)
        ell3 = float(m3.table.ell(3))
        for n in (4, 64, 1024):
            mass = gauss_hermite(
                lambda x: 1.0
                + sum(n ** (-m / 2.0) * km(x) for m, km in enumerate(m6.k_polys, 1)),
                1, 64,
            )
            worst_mass = max(worst_mass, abs(mass - 1.0))
            third = gauss_hermite(
                lambda x: x**3
                * (1.0 + sum(n ** (-m / 2.0) * km(x)
                             for m, km in enumerate(m3.k_polys, 1))),
                1, 64,
            )
            worst_m3 = max(worst_m3, abs(third - ell3 / math.sqrt(n)))
    ok = worst_mass < 1e-10 and worst_m3 < 1e-10
    _verdict(8, ok,
             f"max |mass-1| {worst_mass:.2e}, max third-moment error {worst_m3:.2e} (< 1e-10)")


def test_criterion_09_integration_by_parts():
    """Localized IBP: z < 4 for the 4-function battery, n in {16, 64}, 1e6 samples."""
    t0 = time.perf_counter()
    rep = split(make_distribution("uniform"))
    rng = np.random.default_rng(20260809)
    worst = 0.0
    details = []
    for n in (16, 64):
        for r in ibp_battery(rep, n, default_test_functions(), 1_000_000, rng):
            worst = max(worst, r.z_score)
            details.append(f"{r.label}@{n}:z={r.z_score:.2f}")
    elapsed = time.perf_counter() - t0
    ok = worst < 4.0 and elapsed < 120.0
    _verdict(9, ok, f"max z {worst:.2f} (< 4), {elapsed:.1f}s (< 120s)")


def test_criterion_10_covariance_degeneracy_tail():
    """Monte Carlo within 4 SE of the exact binomial; exponential decay of the oracle."""
    rep = split(make_distribution("uniform"))
    rng = np.random.default_rng(77)
    reports = {n: sigma_tail(rep, n, 1_000_000, rng) for n in (10, 50, 200)}
    zs = {n: r.z_score for n, r in reports.items()}
    ok = all(z < 4.0 for z in zs.values())
    # decay at least exponential: the Chernoff bound exp(-n D(k/n || m0)) dominates
    ok = ok and all(r.exact <= r.bound * (1 + 1e-12) for r in reports.values())
    ok = ok and reports[10].exact > reports[50].exact > reports[200].exact
    _verdict(10, ok,
             "z " + ", ".join(f"{n}:{z:.2f}" for n, z in zs.items())
             + "; exact " + ", ".join(f"{reports[n].exact:.2e}" for n in (10, 50, 200)))


def test_criterion_11_backward_taylor():
    """Residuals are exactly 0, with a vanishing and with a nonzero integral remainder."""
    mono = lambda k: MultiPoly(1, {(k,): F(1)})
    worst_exact = max(
        backward_taylor_check(mono(2), 1),
        backward_taylor_check(mono(4), 2),
        backward_taylor_check(mono(6), 3),
    )
    worst_remainder = max(
        backward_taylor_check(mono(2), 0),
        backward_taylor_check(mono(4), 1),
        backward_taylor_check(mono(6), 1),
        backward_taylor_check(mono(6), 2),
    )
    ok = worst_exact == 0 and worst_remainder == 0
    _verdict(11, ok,
             f"vanishing-remainder residual {worst_exact:.2e} (== 0), "
             f"integral-remainder residual {worst_remainder:.2e} (== 0)")


def test_criterion_12_splitting_reconstruction_and_sampling():
    """Reconstruction sup-error < 1e-8; split sampler passes KS at 1%, 1e5 draws."""
    rng = np.random.default_rng(31337)
    worst_rec, worst_p = 0.0, 1.0
    for name in shipped_labels():
        dist = make_distribution(name)
        if dist.atoms:
            continue
        rep = split(dist)
        lo, hi = dist.support()
        xs = np.linspace(lo, hi, 4096)
        worst_rec = max(worst_rec, rep.reconstruction_error(xs))
        ks = stats.ks_2samp(
            rep.sample(rng, 100_000), dist.sample(rng, 100_000)
        )
        worst_p = min(worst_p, ks.pvalue)
    ok = worst_rec < 1e-8 and worst_p > 0.01
    _verdict(12, ok,
             f"max reconstruction error {worst_rec:.2e} (< 1e-8), "
             f"min KS p {worst_p:.3f} (> 0.01)")
