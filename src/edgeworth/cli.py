"""Command-line interface.

Subcommands::

    rate     fit log-log TV slopes against the corrected measures
    kpoly    dump corrector-polynomial coefficients as CSV
    density  evaluate the law of S_n and/or the corrected density on a grid
    tv       one total-variation distance with its tail and singular-mass slack
    ops      dump operator term tables as CSV
    split    build a splitting representation and run its checks
    ibp      Monte Carlo check of the localized integration by parts
    sigtail  covariance-degeneracy tail vs the exact binomial oracle
    taylor   exact residuals of the backward Gaussian Taylor identity

Every subcommand takes ``--out`` (CSV destination, defaults to stdout).
``rate`` alone takes ``--config`` (key = value file, which excludes its
``--dist``/``--r``/``--n-list`` flags), the gridded commands ``density``
and ``tv`` share ``--points`` and ``--halfwidth``, and the random
commands ``split``, ``ibp`` and ``sigtail`` alone take ``--seed`` (master
seed, default 0).

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 bad
configuration or any runtime error, reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import correctors, harness, malliavin, numerics, opalg, splitting
from .moments import MomentTable, fixture_table, make_distribution

__all__ = ["main"]


def _table_for(spec: str, order: int) -> MomentTable:
    fixture_dim = {"fixture1d": 1, "fixture2d": 2}.get(spec)
    if fixture_dim:
        return fixture_table(fixture_dim, order)
    return MomentTable.from_distribution(make_distribution(spec), order)


def _print_cache_sizes(table) -> None:
    sizes = " ".join(f"{k}={v}" for k, v in table.cache_sizes().items())
    print(f"# table cache entries: {sizes}", file=sys.stderr)


def _print_negativity(grid) -> None:
    # signed measure: negativity is a diagnostic, not an error
    neg = float(grid.values.min())
    if neg < 0:
        print(f"# corrected density min value {neg:.3e} (signed measure)",
              file=sys.stderr)
    print(f"# corrected density negative mass {grid.negative_mass():.3e}",
          file=sys.stderr)


def _dist_1d(args, command: str):
    dist = make_distribution(args.dist)
    if dist.dim != 1:
        raise harness.ConfigError(f"{command} is 1-D in the CLI")
    return dist


def _write(args, header: str, rows) -> None:
    harness.write_csv(args.out or sys.stdout, header, rows)


def cmd_rate(args) -> bool:
    if args.config:
        flags = (("--dist", args.dist), ("--r", args.r), ("--n-list", args.n_list))
        ignored = [flag for flag, val in flags if val is not None]
        if ignored:
            raise harness.ConfigError("rate --config takes its settings from the file; "
                                      f"drop {', '.join(ignored)}")
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
    else:
        if None in (args.dist, args.r, args.n_list):
            raise harness.ConfigError("rate needs --config or --dist/--r/--n-list")
        cfg = harness.RateConfig(dist=args.dist, r=args.r,
                                 n_list=tuple(harness.parse_list(args.n_list)))
    report = harness.run_rate(cfg)
    harness.emit_report(report, args.out or cfg.out or sys.stdout)
    print(
        f"# {report.dist_label} r={report.r}: slope {report.slope:.4f} "
        f"(expected {report.expected_slope}) -> {report.verdict}",
        file=sys.stderr,
    )
    return report.verdict == "pass"


def cmd_kpoly(args) -> bool:
    table = _table_for(args.dist, max(args.m + 2, 3))
    km = correctors.k_poly(table, args.m)
    _write(args, "exponents,coefficient", [
        ("|".join(map(str, e)), c if isinstance(c, Fraction) else float(c))
        for e, c in sorted(km.terms.items())
    ])
    _print_cache_sizes(table)
    return True


def cmd_density(args) -> bool:
    dist = _dist_1d(args, "density")
    columns = []
    if args.kind in ("sn", "both"):
        g = numerics.law_of_sn(dist, args.n, args.points, args.halfwidth)
        columns.append(g.values)
    if args.kind in ("edgeworth", "both"):
        model = correctors.EdgeworthModel.build(dist, args.r)
        g = correctors.edgeworth_grid(model, args.n, args.points, args.halfwidth)
        columns.append(g.values)
        _print_negativity(g)
    header = "x,density_sn,density_edgeworth" if args.kind == "both" else "x,density"
    _write(args, header, zip(g.axes[0], *columns))
    return True


def cmd_tv(args) -> bool:
    dist = make_distribution(args.dist)
    model = correctors.EdgeworthModel.build(dist, args.r)
    mu = numerics.law_of_sn(dist, args.n, args.points, args.halfwidth)
    gam = correctors.edgeworth_grid(model, args.n, args.points, args.halfwidth)
    _print_negativity(gam)
    tv = numerics.tv_distance(mu, gam)
    _write(args, "n,r,tv_raw,tv_lo,tv_hi", [(args.n, args.r, tv.raw, tv.lo, tv.hi)])
    return True


def cmd_ops(args) -> bool:
    if args.t < 0:
        raise harness.ConfigError(f"ops --t must be >= 0, got {args.t}")
    table = _table_for(args.dist, args.t)
    if args.family == "psi":
        op = opalg.psi_op(table, args.t)
    elif args.family == "a":
        op = opalg.a_op(table, args.i, args.t, "direct")
    else:
        op = opalg.t_op(table, args.n, args.t, "direct")
    exact = any(isinstance(v, Fraction) for v in op.terms.values()) or not op.terms
    header = "multiindex,numerator,denominator" if exact else "multiindex,coefficient"
    _write(args, header, [
        ("|".join(map(str, key)),
         *((val.numerator, val.denominator) if isinstance(val, Fraction) else (float(val),)))
        for key, val in op.items()
    ])
    _print_cache_sizes(table)
    return True


def _ks_2samp(a, b):
    """Two-sample Kolmogorov-Smirnov test; ``scipy.stats`` loads only here."""
    from scipy import stats

    return stats.ks_2samp(a, b)


def cmd_split(args) -> bool:
    if args.samples < 1:
        raise harness.ConfigError(f"split --samples must be >= 1, got {args.samples}")
    dist = _dist_1d(args, "split")
    rep = splitting.split(dist)
    xs = np.linspace(*dist.support(), 4096)
    err = rep.reconstruction_residual(xs)
    rec = float(err.max())
    w_min = float(rep.w_pdf(xs).min())  # the splitting's claim: eps0 psi <= p_F
    rng = np.random.default_rng(args.seed)
    ks = _ks_2samp(rep.sample(rng, args.samples), dist.sample(rng, args.samples))
    acceptance = "".join(
        f" accept_{k}={c.accepted / c.proposed:.4f}"
        for k, c in rep.counters.items() if c.proposed
    )
    print(
        f"# v0={harness.fmt(float(rep.v0))} r0={harness.fmt(rep.r0)} "
        f"eps0={harness.fmt(rep.eps0)} m0={harness.fmt(rep.m0)} "
        f"reconstruction_sup_error={rec:.3e} min_w_pdf={w_min:.3e} "
        f"ks_p={ks.pvalue:.4f}{acceptance}",
        file=sys.stderr,
    )
    _write(args, "x,reconstruction_error", zip(xs, err))
    return rec < 1e-8 and w_min >= 0 and ks.pvalue > 0.01


def cmd_ibp(args) -> bool:
    rep = splitting.split(_dist_1d(args, "ibp"))
    reports = malliavin.ibp_battery(rep, args.n, malliavin.default_test_functions(),
                                    args.samples, np.random.default_rng(args.seed))
    _write(args, "f,n,samples,lhs,lhs_se,rhs,rhs_se,diff_se,z", [
        (r.label, r.n, r.samples, r.lhs, r.lhs_se, r.rhs, r.rhs_se, r.diff_se, r.z_score)
        for r in reports
    ])
    # a NaN z compares false against 4.0, so it fails the verdict
    return all(r.z_score < 4.0 for r in reports)


def cmd_sigtail(args) -> bool:
    ns = harness.parse_list(args.n_list)
    if not ns:
        raise harness.ConfigError("sigtail --n-list must be nonempty")
    rep = splitting.split(make_distribution(args.dist))
    rng = np.random.default_rng(args.seed)
    rows, ok = [], True
    for n in ns:
        r = malliavin.sigma_tail(rep, n, args.samples, rng)
        ok = ok and r.z_score < 4.0 and r.exact <= r.bound * (1 + 1e-9)
        rows.append((n, r.samples, r.estimate, r.se, r.exact, r.bound, r.z_score))
    _write(args, "n,samples,estimate,se,exact_binomial,exponential_bound,z", rows)
    return ok


def cmd_taylor(args) -> bool:
    coeffs = harness.parse_list(args.coeffs, Fraction)
    if not coeffs:
        raise harness.ConfigError("taylor --coeffs must be nonempty")
    if args.max_level < 0:
        raise harness.ConfigError(f"taylor --max-level must be >= 0, got {args.max_level}")
    g = opalg.MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})
    rows, ok = [], True
    for level in range(args.max_level + 1):
        res = malliavin.backward_taylor_check(g, level)
        ok = ok and res == 0
        rows.append((level, res))
    _write(args, "L,residual", rows)
    return ok


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="CSV output path (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="master seed")
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    defaults = ", ".join(f"2^{numerics.default_grid_points(dim).bit_length() - 1} in {dim}-D"
                         for dim in (1, 2, 3))
    gridded.add_argument("--points", type=int, default=None,
                         help=f"points per axis (default {defaults})")
    gridded.add_argument("--halfwidth", type=float, default=numerics.DEFAULT_HALFWIDTH)

    p = argparse.ArgumentParser(
        prog="edgeworth",
        description="Corrected-Gaussian CLT toolkit: exact operator algebra, "
        "corrector polynomials, FFT total variation, splitting and "
        "Malliavin Monte Carlo checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rate", parents=[common], help="TV rate experiment")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--dist")
    sp.add_argument("--r", type=int)
    sp.add_argument("--n-list", dest="n_list")
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("kpoly", parents=[common], help="corrector coefficients")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.set_defaults(func=cmd_kpoly)

    sp = sub.add_parser("density", parents=[gridded], help="densities on a grid")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--kind", choices=["sn", "edgeworth", "both"], default="both")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("tv", parents=[gridded], help="one TV distance")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=3)
    sp.set_defaults(func=cmd_tv)

    sp = sub.add_parser("ops", parents=[common], help="operator term tables")
    sp.add_argument("--dist", required=True,
                    help="distribution spec or fixture1d/fixture2d")
    sp.add_argument("--family", choices=["psi", "a", "t"], default="psi")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--n", type=int, default=1)
    sp.set_defaults(func=cmd_ops)

    sp = sub.add_parser("split", parents=[seeded], help="splitting representation")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.set_defaults(func=cmd_split)

    sp = sub.add_parser("ibp", parents=[seeded], help="integration-by-parts check")
    sp.add_argument("--dist", default="uniform")
    sp.add_argument("--n", type=int, default=16)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.set_defaults(func=cmd_ibp)

    sp = sub.add_parser("sigtail", parents=[seeded], help="degeneracy tail")
    sp.add_argument("--dist", default="uniform")
    sp.add_argument("--n-list", dest="n_list", default="10,50,200")
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.set_defaults(func=cmd_sigtail)

    sp = sub.add_parser("taylor", parents=[common], help="backward Taylor residuals")
    sp.add_argument("--coeffs", default="0,0,0,0,1",
                    help="polynomial coefficients, constant term first")
    sp.add_argument("--max-level", type=int, default=3)
    sp.set_defaults(func=cmd_taylor)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return 0 if args.func(args) else 1
    except Exception as exc:  # every configuration or runtime error exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
