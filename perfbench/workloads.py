"""The benchmark workloads: their inputs, operations and output checks.

A workload's ``setup(seed, rep, size)`` constructs the distributions, the
splitting representations and the oracles, and returns the operations of
one pass.  Every pass may run the same operations again, so an operation
builds whatever caches results itself (moment tables, user densities).
An operation is one user-level library call.  Each operation
carries an ``oracle`` check, which an output must pass to count as correct,
and optionally a ``verdict`` check, the program's own pass/fail judgement
of its result.  An operation that fails either check, or raises, counts as
failed; only a failed oracle or an exception makes the run incorrect.

Library entry points are looked up as module attributes when an operation
is built, so the tracer's shims (``tracing.py``) see every call.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product

import numpy as np

from edgeworth import correctors, harness, malliavin, moments, numerics, opalg, splitting
from edgeworth.exactmath import p_value, psi_scale, q_value
from edgeworth.opalg import DiffOperator, MultiPoly


class Op:
    """One timed library call with its output checks and work count."""

    __slots__ = ("label", "run", "oracle", "verdict", "work")

    def __init__(self, label, run, oracle, verdict=None, work=1):
        self.label, self.run, self.oracle = label, run, oracle
        self.verdict, self.work = verdict, work


# -- mc_ibp ---------------------------------------------------------------------

# (law, n, samples per call).  The exponential n=64 battery has by far the
# largest standard errors, so it sets ``s_to_accuracy`` and gets the samples:
# the spread of that metric over seeds falls with the time a run spends on it.
MC_IBP = {
    "full": (("uniform", 16, 5_000), ("uniform", 64, 5_000),
             ("exponential", 16, 5_000), ("exponential", 64, 25_000)),
    "tiny": (("uniform", 4, 2_000), ("uniform", 8, 2_000),
             ("exponential", 4, 2_000), ("exponential", 8, 2_000)),
}
TARGET_SE = 1e-3


def _ibp_finite(reports) -> bool:
    return all(math.isfinite(r.z_score) for r in reports)


def setup_mc_ibp(seed: int, rep: int, size: str) -> list[Op]:
    split_reps = {law: splitting.split(moments.make_distribution(law))
                  for law in dict.fromkeys(law for law, _, _ in MC_IBP[size])}
    ops = []
    for law, n, samples in MC_IBP[size]:
        rng = np.random.default_rng([seed, rep, len(ops)])
        run = partial(malliavin.ibp_battery, split_reps[law], n,
                      malliavin.default_test_functions(), samples, rng)
        ops.append(Op(f"ibp_battery {law} n={n}", run, _ibp_finite, work=2 * samples * n))
    return ops


def ibp_summary(reports) -> list[tuple[float, float]]:
    """``(lhs - rhs, its squared standard error)`` for each battery entry."""
    return [(r.lhs - r.rhs, math.hypot(r.lhs_se, r.rhs_se) ** 2) for r in reports]


def ibp_pooled_ok(summaries) -> bool:
    """Every entry's ``lhs - rhs``, pooled over the calls, within 4 SE of 0.

    ``summaries`` holds one ``ibp_summary`` per call, all with the same
    sample count.  A run makes hundreds of calls, so a z < 4 gate on each
    call alone would fail by chance; pooled, it is criterion 9's gate.
    """
    for entry in zip(*summaries):
        diff = statistics.fmean(d for d, _ in entry)
        se = math.sqrt(sum(v for _, v in entry)) / len(entry)
        if not abs(diff) < 4.0 * se:
            return False
    return True


def runs_for_target_se(summaries) -> float:
    """Calls needed for a standard error of ``TARGET_SE`` on every entry.

    ``summaries`` holds one ``ibp_summary`` per call, all with the same
    sample count.  The IBP weights are heavy-tailed, so a single call's
    variance estimate can be several times the typical one; the geometric
    mean over calls is used, which such a call moves little and which
    spreads less over seeds than the median or the mean.
    """
    return statistics.geometric_mean(max(v for _, v in s) for s in summaries) / TARGET_SE**2


# -- rate_sweep -------------------------------------------------------------------

RATE_SWEEP = {
    "full": {
        "laws": tuple(moments.shipped_labels()), "orders": tuple(range(2, 9)),
        "n_list": (32, 64, 128, 256, 512, 1024), "grid": None,
        "products": ("exponential*uniform", "laplace*gamma"), "product_grid": 512,
        "user_n": 64, "user_grid": 2**10,
    },
    "tiny": {
        "laws": ("exponential", "uniform"), "orders": (2, 3),
        "n_list": (32, 64, 128, 256), "grid": 2**10,
        "products": ("exponential*uniform",), "product_grid": 64,
        "user_n": 16, "user_grid": 2**8,
    },
}
HALFWIDTH = 16.0


def _triangle(x):
    return np.where((x >= 0) & (x <= 2), np.where(x <= 1, x, 2 - x), 0.0)


def _rate_ok(report) -> bool:
    """Every TV interval well formed, and the slope fitted from them."""
    tvs = report.tv_values
    if not all(math.isfinite(t.raw) and t.raw >= 0 and t.slack >= 0 and t.mid > 0
               for t in tvs):
        return False
    ns, mids = list(report.n_values), [t.mid for t in tvs]
    if len(ns) >= 4:
        ns, mids = ns[1:], mids[1:]
    slope = np.polyfit(np.log(ns), np.log(mids), 1)[0]
    return abs(slope - report.slope) <= 1e-9 * max(1.0, abs(slope))


def _rate_passed(report) -> bool:
    return report.verdict == "pass"


def _user_tv(n, points):
    # built here: the law caches its quadrature moments, and each call is cold
    dist = moments.standardize(
        moments.UserDensity(_triangle, (0, 2), label="triangle", max_order=6))
    model = correctors.EdgeworthModel.build(dist, 3)
    mu = numerics.law_of_sn(dist, n, points, HALFWIDTH)
    gam = correctors.edgeworth_grid(model, n, points, HALFWIDTH)
    return gam, numerics.tv_distance(mu, gam)


def setup_rate_sweep(seed: int, rep: int, size: str) -> list[Op]:
    cfg = RATE_SWEEP[size]
    n_list = cfg["n_list"]
    runs = [(law, r, cfg["grid"]) for law in cfg["laws"] for r in cfg["orders"]]
    runs += [(spec, 3, cfg["product_grid"]) for spec in cfg["products"]]
    ops = []
    for spec, r, grid in runs:
        kwargs = {} if grid is None else {"grid_points": grid}
        config = harness.RateConfig(dist=spec, r=r, n_list=n_list, **kwargs)
        points = config.grid_points ** (spec.count("*") + 1)
        ops.append(Op(f"run_rate {spec} r={r}", partial(harness.run_rate, config),
                      _rate_ok, _rate_passed, work=2 * len(n_list) * points))

    # The standardized triangle is the law of two standardized uniform
    # summands, so S_n of it is S_2n of the uniform law: the oracle density.
    n, points = cfg["user_n"], cfg["user_grid"]
    reference = numerics.law_of_sn(moments.make_distribution("uniform"), 2 * n,
                                   points, HALFWIDTH)

    def user_ok(result):
        gam, tv = result
        return abs(tv.raw - numerics.tv_distance(reference, gam).raw) <= 1e-6

    ops.append(Op(f"tv user triangle n={n}", partial(_user_tv, n, points),
                  user_ok, work=2 * points))
    return ops


# -- exact_tables -----------------------------------------------------------------

EXACT_TABLES = {
    "full": {
        "kpoly": (("exponential", 5), ("exponential*gamma", 4),
                  ("exponential*uniform*laplace", 3)),
        "a_t": 12, "a_orders": (2, 3, 4), "psi_law": "exponential*uniform*laplace",
        "psi_t": 12, "t_n": 100, "sweep_t": 9, "sweep_n": 30,
    },
    "tiny": {
        "kpoly": (("exponential", 2), ("exponential*gamma", 2),
                  ("exponential*uniform*laplace", 1)),
        "a_t": 7, "a_orders": (2,), "psi_law": "exponential*uniform*laplace",
        "psi_t": 6, "t_n": 10, "sweep_t": 6, "sweep_n": 8,
    },
}


def _orderings(index) -> int:
    out = math.factorial(len(index))
    for count in Counter(index).values():
        out //= math.factorial(count)
    return out


def psi_oracle(table, t: int) -> DiffOperator:
    """``psi_op`` summed over sorted multiindices with multinomial weights."""
    dim, terms = table.dim, {}
    for p in range(3, t + 1):
        if (t - p) % 2:
            continue
        q = (t - p) // 2
        scale = psi_scale(p, q)
        for alpha in combinations_with_replacement(range(1, dim + 1), p):
            da = table.delta(alpha)
            if da == 0:
                continue
            weight = scale * da * _orderings(alpha)
            for pairs in combinations_with_replacement(range(1, dim + 1), q):
                key = tuple(sorted(alpha + tuple(c for c in pairs for _ in (0, 1))))
                terms[key] = terms.get(key, 0) + weight * _orderings(pairs)
    return DiffOperator(dim, terms)


def a_oracle(table, t_max: int, i_max: int) -> dict:
    """``A^i_t`` by the convolution recursion over :func:`psi_oracle`."""
    psi = {t: psi_oracle(table, t) for t in range(t_max + 1)}
    a = {(1, t): psi[t] for t in range(t_max + 1)}
    for i in range(2, i_max + 1):
        for t in range(t_max + 1):
            acc = DiffOperator.zero(table.dim)
            for p in range(3, t - 3 * (i - 1) + 1):
                acc = acc + psi[p].compose(a[(i - 1, t - p)])
            a[(i, t)] = acc
    return a


def _cumulants(ms):
    ks = [Fraction(0)] * len(ms)
    for n in range(1, len(ms)):
        ks[n] = ms[n] - sum(math.comb(n - 1, k - 1) * ks[k] * ms[n - k]
                            for k in range(1, n))
    return ks


def classical_k(dist, m_max: int, dim: int = 1, axis: int = 0) -> list[MultiPoly]:
    """``[1, K_1, ..., K_m_max]`` of a 1-D law from its cumulant series.

    ``exp(sum_j kappa_j s^j u^(j-2) / j!) = sum_m u^m sum_k c_mk s^k`` and
    ``K_m = sum_k c_mk H_k``; the polynomials act on coordinate ``axis``.
    """
    ms = [Fraction(1)] + [dist.moment((1,) * k) for k in range(1, m_max + 3)]
    ks = _cumulants(ms)
    base = {(j - 2, j): ks[j] / math.factorial(j) for j in range(3, m_max + 3)}
    series, power = {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)}
    for order in range(1, m_max + 1):
        nxt = {}
        for (u1, s1), c1 in power.items():
            for (u2, s2), c2 in base.items():
                if u1 + u2 <= m_max:
                    nxt[(u1 + u2, s1 + s2)] = nxt.get((u1 + u2, s1 + s2), 0) + c1 * c2
        power = {key: c / order for key, c in nxt.items()}
        for key, c in power.items():
            series[key] = series.get(key, 0) + c
    out = []
    for m in range(m_max + 1):
        poly = MultiPoly.zero(dim)
        for (u, s), c in series.items():
            if u == m:
                terms = {}
                for e, h in correctors.hermite_1d(s).terms.items():
                    key = [0] * dim
                    key[axis] = e[0]
                    terms[tuple(key)] = h
                poly = poly + c * MultiPoly(dim, terms)
        out.append(poly)
    return out


def product_k_oracle(spec: str, m_max: int) -> list[MultiPoly]:
    """``K_m`` of an independent product: the factors' series multiply."""
    factors = [moments.make_distribution(s) for s in spec.split("*")]
    dim = len(factors)
    series = [classical_k(f, m_max, dim, axis) for axis, f in enumerate(factors)]
    out = []
    for m in range(m_max + 1):
        acc = MultiPoly.zero(dim)
        for parts in product(range(m + 1), repeat=dim):
            if sum(parts) == m:
                term = MultiPoly.constant(dim, Fraction(1))
                for axis, part in enumerate(parts):
                    term = term * series[axis][part]
                acc = acc + term
        out.append(acc)
    return out


def _k_op(dist, m):
    return correctors.k_poly(moments.MomentTable.from_distribution(dist, 3 * m), m)


def _a_op(dim, i, t):
    return opalg.a_op(moments.fixture_table(dim, t), i, t, "direct")


def _psi_op(dist, t):
    return opalg.psi_op(moments.MomentTable.from_distribution(dist, t), t)


def _t_op(dim, n, t):
    return opalg.t_op(moments.fixture_table(dim, t), n, t, "direct")


def _sweep(dim, t_max, n_max):
    table = moments.fixture_table(dim, t_max)
    return {(t, n): (opalg.psi_k_op(table, n, t), opalg.t_op(table, n, t, "direct"))
            for t in range(t_max + 1) for n in range(1, n_max + 1)}


def _sweep_ok(a, t_max, n_max, dim, result) -> bool:
    """Criteria 1 and 2: Psi^(k)_t = sum Q_(i-1)(k) A^i_t and T^n_t = sum Psi^(k)_t."""
    for t in range(t_max + 1):
        running = DiffOperator.zero(dim)
        for n in range(1, n_max + 1):
            psi_k, t_n = result[(t, n)]
            want = DiffOperator.zero(dim)
            for i in range(1, t // 3 + 1):
                want = want + q_value(i - 1, n) * a[(i, t)]
            running = running + psi_k
            if psi_k != want or t_n != running:
                return False
    return True


def _equals(want, got) -> bool:
    return got == want


def setup_exact_tables(seed: int, rep: int, size: str) -> list[Op]:
    cfg = EXACT_TABLES[size]
    ops = []
    for spec, m_max in cfg["kpoly"]:
        dist = moments.make_distribution(spec)
        want = product_k_oracle(spec, m_max)
        for m in range(1, m_max + 1):
            ops.append(Op(f"k_poly {spec} m={m}", partial(_k_op, dist, m),
                          partial(_equals, want[m])))

    t, i_max = cfg["a_t"], max(cfg["a_orders"])
    a2 = a_oracle(moments.fixture_table(2, t), t, max(i_max, t // 3))
    for i in cfg["a_orders"]:
        ops.append(Op(f"a_op direct dim=2 i={i} t={t}", partial(_a_op, 2, i, t),
                      partial(_equals, a2[(i, t)])))

    t = cfg["psi_t"]
    dist = moments.make_distribution(cfg["psi_law"])
    want = psi_oracle(moments.MomentTable.from_distribution(dist, t), t)
    ops.append(Op(f"psi_op {cfg['psi_law']} t={t}", partial(_psi_op, dist, t),
                  partial(_equals, want)))

    t, n = cfg["a_t"], cfg["t_n"]
    want = DiffOperator.zero(2)
    for i in range(1, t // 3 + 1):
        want = want + p_value(i, n) * a2[(i, t)]
    ops.append(Op(f"t_op dim=2 n={n} t={t}", partial(_t_op, 2, n, t),
                  partial(_equals, want)))

    t_max, n_max = cfg["sweep_t"], cfg["sweep_n"]
    for dim in (1, 2):
        a = a_oracle(moments.fixture_table(dim, t_max), t_max, t_max // 3)
        ops.append(Op(f"collapse sweep dim={dim}", partial(_sweep, dim, t_max, n_max),
                      partial(_sweep_ok, a, t_max, n_max, dim)))
    return ops


# name -> (setup, per-call summary of a Monte Carlo result or None).  A
# summarized operation is also checked pooled over the run (``ibp_pooled_ok``)
# and needs ``runs_for_target_se`` calls for the stated accuracy; a
# deterministic one is final after one call.
WORKLOADS = {
    "mc_ibp": (setup_mc_ibp, ibp_summary),
    "rate_sweep": (setup_rate_sweep, None),
    "exact_tables": (setup_exact_tables, None),
}
