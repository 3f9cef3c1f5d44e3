"""Command-line interface.

Subcommands::

    rate     fit log-log TV slopes against the corrected measures
    kpoly    dump corrector-polynomial coefficients as CSV
    density  evaluate the law of S_n and/or the corrected density on a grid
    tv       one total-variation distance with its certified interval
    ops      dump operator term tables as CSV
    split    build a splitting representation and run its checks
    ibp      Monte Carlo check of the localized integration by parts
    sigtail  covariance-degeneracy tail vs the exact binomial oracle
    taylor   residuals of the backward Gaussian Taylor identity

Every subcommand takes ``--out`` (CSV destination, defaults to stdout).
``rate`` alone takes ``--config`` (key = value file, which excludes its
``--dist``/``--r``/``--n-list`` flags), and the random
commands ``split``, ``ibp`` and ``sigtail`` alone take ``--seed`` (master
seed, default 0).

Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 bad
configuration or runtime error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np
from scipy import stats

from . import correctors, harness, malliavin, numerics, opalg, splitting
from .moments import MomentTable, fixture_table, make_distribution

__all__ = ["main"]


def _out_stream(args):
    if args.out:
        return open(args.out, "w")
    return sys.stdout


def _emit(args, lines):
    stream = _out_stream(args)
    try:
        stream.write("\n".join(lines) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


def _rng(args):
    return np.random.default_rng(args.seed)


def _table_for(spec: str, order: int) -> MomentTable:
    if spec == "fixture1d":
        return fixture_table(1, order)
    if spec == "fixture2d":
        return fixture_table(2, order)
    dist = make_distribution(spec)
    return MomentTable.from_distribution(dist, order)


def _coeff_cells(value):
    if isinstance(value, Fraction):
        return f"{value.numerator},{value.denominator}"
    return harness.fmt(float(value))


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


def cmd_rate(args) -> int:
    if args.config:
        flags = (("--dist", args.dist), ("--r", args.r), ("--n-list", args.n_list))
        ignored = [flag for flag, val in flags if val is not None]
        if ignored:
            raise harness.ConfigError("rate --config takes its settings from the file; "
                                      f"drop {', '.join(ignored)}")
        with open(args.config) as fh:
            cfg = harness.parse_config(fh.read())
    else:
        if not (args.dist and args.r and args.n_list):
            raise harness.ConfigError("rate needs --config or --dist/--r/--n-list")
        cfg = harness.RateConfig(
            dist=args.dist, r=args.r,
            n_list=tuple(int(p) for p in args.n_list.replace(",", " ").split()),
        )
    report = harness.run_rate(cfg)
    dest = args.out or cfg.out
    if dest:
        harness.emit_report(report, dest)
    else:
        harness.emit_report(report, sys.stdout)
    print(
        f"# {report.dist_label} r={report.r}: slope {report.slope:.4f} "
        f"(expected {report.expected_slope}) -> {report.verdict}",
        file=sys.stderr,
    )
    return 0 if report.verdict == "pass" else 1


def cmd_kpoly(args) -> int:
    table = _table_for(args.dist, max(3 * args.m, 3))
    km = correctors.k_poly(table, args.m)
    lines = ["exponents,coefficient"]
    for e, c in sorted(km.terms.items()):
        cell = str(c) if isinstance(c, Fraction) else harness.fmt(float(c))
        lines.append("|".join(str(p) for p in e) + "," + cell)
    _emit(args, lines)
    _print_cache_sizes(table)
    return 0


def cmd_density(args) -> int:
    dist = _dist_1d(args, "density")
    lines = None
    if args.kind in ("sn", "both"):
        g = numerics.law_of_sn(dist, args.n, args.points, args.halfwidth)
        xs, sn_vals = g.axes[0], g.values
    if args.kind in ("edgeworth", "both"):
        model = correctors.EdgeworthModel.build(dist, args.r)
        ge = correctors.edgeworth_grid(model, args.n, args.points, args.halfwidth)
        xs, ed_vals = ge.axes[0], ge.values
        _print_negativity(ge)
    if args.kind == "sn":
        lines = ["x,density"] + [
            f"{harness.fmt(float(x))},{harness.fmt(float(v))}"
            for x, v in zip(xs, sn_vals)
        ]
    elif args.kind == "edgeworth":
        lines = ["x,density"] + [
            f"{harness.fmt(float(x))},{harness.fmt(float(v))}"
            for x, v in zip(xs, ed_vals)
        ]
    else:
        lines = ["x,density_sn,density_edgeworth"] + [
            f"{harness.fmt(float(x))},{harness.fmt(float(a))},{harness.fmt(float(b))}"
            for x, a, b in zip(xs, sn_vals, ed_vals)
        ]
    _emit(args, lines)
    return 0


def cmd_tv(args) -> int:
    dist = make_distribution(args.dist)
    model = correctors.EdgeworthModel.build(dist, args.r)
    mu = numerics.law_of_sn(dist, args.n, args.points, args.halfwidth)
    gam = correctors.edgeworth_grid(model, args.n, args.points, args.halfwidth)
    _print_negativity(gam)
    tv = numerics.tv_distance(mu, gam)
    _emit(args, [
        "n,r,tv_raw,tv_lo,tv_hi",
        f"{args.n},{args.r},{harness.fmt(tv.raw)},{harness.fmt(tv.lo)},{harness.fmt(tv.hi)}",
    ])
    return 0


def cmd_ops(args) -> int:
    table = _table_for(args.dist, args.t)
    if args.family == "psi":
        op = opalg.psi_op(table, args.t)
    elif args.family == "a":
        op = opalg.a_op(table, args.i, args.t, "direct")
    else:
        op = opalg.t_op(table, args.n, args.t, "direct")
    exact = any(isinstance(v, Fraction) for v in op.terms.values()) or not op.terms
    header = "multiindex,numerator,denominator" if exact else "multiindex,coefficient"
    lines = [header]
    for key, val in op.items():
        cell = "|".join(str(i) for i in key)
        lines.append(f"{cell},{_coeff_cells(val)}")
    _emit(args, lines)
    _print_cache_sizes(table)
    return 0


def cmd_split(args) -> int:
    dist = _dist_1d(args, "split")
    rep = splitting.split(dist)
    rng = _rng(args)
    lo, hi = dist.support()
    xs = np.linspace(lo, hi, 4096)
    rec = rep.reconstruction_error(xs)
    draws = rep.sample(rng, args.samples)
    direct = dist.sample(rng, args.samples)
    ks = stats.ks_2samp(draws, direct)
    acceptance = "".join(
        f" accept_{k}={c.accepted / c.proposed:.4f}"
        for k, c in rep.counters.items() if c.proposed
    )
    print(
        f"# v0={harness.fmt(float(np.atleast_1d(rep.v0)[0]))} r0={harness.fmt(rep.r0)} "
        f"eps0={harness.fmt(rep.eps0)} m0={harness.fmt(rep.m0)} "
        f"reconstruction_sup_error={rec:.3e} ks_p={ks.pvalue:.4f}{acceptance}",
        file=sys.stderr,
    )
    err = np.abs(
        rep.m0 * rep.v_pdf(xs) + (1 - rep.m0) * rep.w_pdf(xs) - dist.pdf(xs)
    )
    lines = ["x,reconstruction_error"] + [
        f"{harness.fmt(float(x))},{harness.fmt(float(e))}" for x, e in zip(xs, err)
    ]
    _emit(args, lines)
    return 0 if (rec < 1e-8 and ks.pvalue > 0.01) else 1


def cmd_ibp(args) -> int:
    dist = _dist_1d(args, "ibp")
    rep = splitting.split(dist)
    rng = _rng(args)
    reports = malliavin.ibp_battery(
        rep, args.n, malliavin.default_test_functions(), args.samples, rng
    )
    lines = ["f,n,samples,lhs,lhs_se,rhs,rhs_se,z"]
    worst = 0.0
    for rep_ in reports:
        worst = max(worst, rep_.z_score)
        lines.append(
            f"{rep_.label},{rep_.n},{rep_.samples},{harness.fmt(rep_.lhs)},"
            f"{harness.fmt(rep_.lhs_se)},{harness.fmt(rep_.rhs)},"
            f"{harness.fmt(rep_.rhs_se)},{harness.fmt(rep_.z_score)}"
        )
    _emit(args, lines)
    return 0 if worst < 4.0 else 1


def cmd_sigtail(args) -> int:
    dist = make_distribution(args.dist)
    rep = splitting.split(dist)
    rng = _rng(args)
    ns = [int(p) for p in args.n_list.replace(",", " ").split()]
    lines = ["n,samples,estimate,se,exact_binomial,exponential_bound,z"]
    ok = True
    for n in ns:
        r = malliavin.sigma_tail(rep, n, args.samples, rng)
        ok = ok and r.z_score < 4.0
        if n >= malliavin.TAIL_CALIBRATION_N:
            ok = ok and r.exact <= r.bound * (1 + 1e-9)
        lines.append(
            f"{n},{r.samples},{harness.fmt(r.estimate)},{harness.fmt(r.se)},"
            f"{harness.fmt(r.exact)},{harness.fmt(r.bound)},{harness.fmt(r.z_score)}"
        )
    _emit(args, lines)
    return 0 if ok else 1


def cmd_taylor(args) -> int:
    coeffs = [Fraction(c) for c in args.coeffs.replace(",", " ").split()]
    g = opalg.MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})
    lines = ["L,residual"]
    ok = True
    for level in range(args.max_level + 1):
        res = malliavin.backward_taylor_check(g, level)
        tol = 1e-10 if g.diff(tuple([1] * (2 * level + 2))).is_zero() else 1e-8
        ok = ok and res < tol
        lines.append(f"{level},{harness.fmt(res)}")
    _emit(args, lines)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="CSV output path (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="master seed")

    p = argparse.ArgumentParser(
        prog="edgeworth",
        description="Corrected-Gaussian CLT toolkit: exact operator algebra, "
        "corrector polynomials, FFT-exact total variation, splitting and "
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

    sp = sub.add_parser("density", parents=[common], help="densities on a grid")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--kind", choices=["sn", "edgeworth", "both"], default="both")
    sp.add_argument("--points", type=int, default=None,
                    help="points per axis (default 2^14 in 1-D, 2^10 in 2-D, "
                    "2^7 in 3-D)")
    sp.add_argument("--halfwidth", type=float, default=16.0)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("tv", parents=[common], help="one TV distance")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, default=3)
    sp.add_argument("--points", type=int, default=None,
                    help="points per axis (default 2^14 in 1-D, 2^10 in 2-D, "
                    "2^7 in 3-D)")
    sp.add_argument("--halfwidth", type=float, default=16.0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
