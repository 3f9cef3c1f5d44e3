"""CLI surface: schemas, exit codes, determinism."""

import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from edgeworth import cli, malliavin
from edgeworth.cli import build_parser, main
from edgeworth.correctors import k_poly
from edgeworth.moments import fixture_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rate_pass_and_exit_code(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("dist = exponential\nr = 3\nn_list = 32,64,128,256\n")
    out_csv = tmp_path / "rate.csv"
    code, _, err = run(capsys, "rate", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    assert "pass" in err
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,tv_mid,tv_lo,tv_hi"
    assert len(lines) == 6


def test_rate_config_with_workers_exits_2(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("dist = exponential\nr = 3\nn_list = 32,64\nworkers = 4\n")
    code, _, err = run(capsys, "rate", "--config", str(cfg))
    assert code == 2
    assert "unknown key 'workers'" in err


def test_rate_inline_flags(capsys):
    code, out, _ = run(capsys, "rate", "--dist", "exponential", "--r", "2",
                       "--n-list", "32,64,128")
    assert code == 0
    assert out.startswith("n,tv_mid")


def test_rate_determinism(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("dist = uniform\nr = 3\nn_list = 32,64,128\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "rate", "--config", str(cfg), "--out", str(a))[0] == 0
    assert run(capsys, "rate", "--config", str(cfg), "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_rate_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dist = exponential\nr = 3\nn_list = 64, 32\n")
    code, _, err = run(capsys, "rate", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_rate_config_with_inline_flags_exits_2(tmp_path, capsys):
    # the file says exponential r=3; the flags must not be silently dropped
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("dist = exponential\nr = 3\nn_list = 32,64\n")
    code, out, err = run(capsys, "rate", "--config", str(cfg), "--dist", "uniform",
                         "--r", "5")
    assert code == 2
    assert out == ""
    assert "--dist" in err and "--r" in err and "--n-list" not in err


def cache_sizes_from(err):
    line = next(l for l in err.splitlines() if l.startswith("# table cache entries:"))
    fields = dict(f.split("=") for f in line.split(":", 1)[1].split())
    return {k: int(v) for k, v in fields.items()}


def test_kpoly_matches_library(capsys):
    code, out, err = run(capsys, "kpoly", "--dist", "fixture1d", "--m", "2")
    assert code == 0
    assert cache_sizes_from(err) == {"psi": 2, "a": 1}
    lines = out.strip().splitlines()
    assert lines[0] == "exponents,coefficient"
    got = {}
    for row in lines[1:]:
        e, c = row.split(",")
        got[tuple(int(p) for p in e.split("|"))] = c
    km = k_poly(fixture_table(1, 6), 2)
    assert got == {e: str(c) for e, c in km.terms.items()}


def test_ops_fixture_table_exact(capsys):
    code, out, err = run(capsys, "ops", "--dist", "fixture2d", "--family", "a",
                         "--t", "6", "--i", "2")
    assert code == 0
    assert cache_sizes_from(err) == {"psi": 1, "a": 1}
    lines = out.strip().splitlines()
    assert lines[0] == "multiindex,numerator,denominator"
    assert len(lines) > 1
    key, num, den = lines[1].split(",")
    assert den.lstrip("-").isdigit() and num.lstrip("-").isdigit()


def test_ops_float_table(capsys):
    code, out, _ = run(capsys, "ops", "--dist", "gauss_mixture", "--t", "3")
    assert code == 0
    assert out.splitlines()[0] == "multiindex,coefficient"


def test_density_both_kinds(tmp_path, capsys):
    out_csv = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", "--dist", "exponential", "--n", "64",
                     "--r", "3", "--points", "1024", "--halfwidth", "12",
                     "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x,density_sn,density_edgeworth"
    assert len(lines) == 1025


def test_density_single_kinds(capsys):
    for kind in ("sn", "edgeworth"):
        code, out, _ = run(capsys, "density", "--dist", "exponential", "--n", "8",
                           "--r", "3", "--kind", kind, "--points", "512",
                           "--halfwidth", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 513


def test_density_negativity_diagnostic(capsys):
    # at tiny n the signed corrected density dips negative; the CLI says so
    code, _, err = run(capsys, "density", "--dist", "exponential", "--n", "2",
                       "--r", "3", "--kind", "edgeworth", "--points", "512",
                       "--halfwidth", "12")
    assert code == 0
    assert "min value" in err
    assert "negative mass" in err


def test_tv_row(capsys):
    code, out, err = run(capsys, "tv", "--dist", "uniform", "--n", "64", "--r", "3")
    assert code == 0
    assert "# corrected density negative mass " in err
    header, row = out.strip().splitlines()
    assert header == "n,r,tv_raw,tv_lo,tv_hi"
    n, r, raw, lo, hi = row.split(",")
    assert float(lo) <= float(hi)


def test_tv_2d_default_grid_memory_is_bounded(capsys):
    # the default is 2^10 points per axis in 2-D; at 2^14 per axis one
    # complex grid array alone would take 4 GB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "tv", "--dist", "exponential*uniform", "--n", "32")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 256 * 2**20
    _, explicit, _ = run(capsys, "tv", "--dist", "exponential*uniform", "--n", "32",
                         "--points", "1024")
    assert out == explicit


def test_split_command(capsys):
    code, out, err = run(capsys, "split", "--dist", "laplace",
                         "--samples", "20000", "--seed", "1")
    assert code == 0
    assert "m0=" in err and "ks_p=" in err
    assert "accept_v=" in err and "accept_w=" in err
    assert out.splitlines()[0] == "x,reconstruction_error"


def test_ibp_command_small(capsys):
    code, out, _ = run(capsys, "ibp", "--dist", "uniform", "--n", "8",
                       "--samples", "40000", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "f,n,samples,lhs,lhs_se,rhs,rhs_se,diff_se,z"
    assert len(lines) == 5


@pytest.mark.parametrize("command", ["split", "ibp", "density"])
def test_product_law_is_rejected_by_1d_commands(capsys, command):
    argv = [command, "--dist", "uniform*uniform"]
    if command == "density":
        argv += ["--n", "4"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"error: {command} is 1-D in the CLI" in err


def test_sigtail_command(capsys):
    for dist in ("uniform", "exponential*uniform*laplace"):
        code, out, _ = run(capsys, "sigtail", "--dist", dist, "--n-list", "10,50",
                           "--samples", "50000", "--seed", "3")
        assert code == 0, dist
        lines = out.strip().splitlines()
        assert lines[0] == "n,samples,estimate,se,exact_binomial,exponential_bound,z"
        assert len(lines) == 3


def test_taylor_command(capsys):
    code, out, _ = run(capsys, "taylor", "--coeffs", "0,0,0,0,1",
                       "--max-level", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,residual"
    assert [r.split(",")[1] for r in lines[1:]] == ["0"] * 3


# --- flag surface: each flag only where its command reads it ---------------------

REQUIRED_ARGS = {
    "rate": [], "kpoly": ["--dist", "uniform"],
    "density": ["--dist", "uniform", "--n", "4"], "tv": ["--dist", "uniform", "--n", "4"],
    "ops": ["--dist", "fixture1d", "--t", "3"], "split": ["--dist", "uniform"],
    "ibp": [], "sigtail": [], "taylor": [],
}
FLAG_OWNERS = {"--seed": {"split", "ibp", "sigtail"}, "--config": {"rate"}}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_flags_only_on_commands_that_read_them(capsys, command):
    # parsing only: an accepted flag set is checked without running the command
    argv = [command, *REQUIRED_ARGS[command], "--out", "x.csv"]
    assert build_parser().parse_args(argv).out == "x.csv"
    for flag, owners in FLAG_OWNERS.items():
        if command in owners:
            build_parser().parse_args(argv + [flag, "5"])
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def test_rate_config_with_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("dist = exponential\nr = 3\nn_list = 32,64\nseed = 3\n")
    code, _, err = run(capsys, "rate", "--config", str(cfg))
    assert code == 2
    assert "unknown key 'seed'" in err



# --- one writer, one exit path -----------------------------------------------------

TABLES = {
    "rate": ["rate", "--dist", "exponential", "--r", "2", "--n-list", "32,64,128"],
    "kpoly": ["kpoly", "--dist", "fixture2d", "--m", "2"],
    "density": ["density", "--dist", "exponential", "--n", "8", "--points", "512",
                "--halfwidth", "12"],
    "tv": ["tv", "--dist", "exponential*uniform", "--n", "32", "--points", "256"],
    "ops-exact": ["ops", "--dist", "fixture2d", "--family", "t", "--n", "3", "--t", "5"],
    "ops-float": ["ops", "--dist", "gauss_mixture", "--t", "3"],
    "split": ["split", "--dist", "laplace", "--samples", "2000"],
    "ibp": ["ibp", "--n", "4", "--samples", "2000"],
    "sigtail": ["sigtail", "--n-list", "10,50", "--samples", "2000"],
    "taylor": ["taylor", "--max-level", "2"],
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_row_has_a_cell_per_column(capsys, name):
    code, out, _ = run(capsys, *TABLES[name])
    assert code == 0
    header, *rows = out.splitlines()
    assert rows
    assert {len(row.split(",")) for row in rows} == {len(header.split(","))}


def _fail_verdict(monkeypatch, command):
    if command == "split":
        ks = SimpleNamespace(pvalue=0.0)
        monkeypatch.setattr(cli, "_ks_2samp", lambda a, b: ks)
    elif command == "ibp":
        battery = malliavin.ibp_battery
        monkeypatch.setattr(malliavin, "ibp_battery", lambda *a: [
            replace(r, lhs=r.lhs + 1e6) for r in battery(*a)])
    elif command == "sigtail":
        tail = malliavin.sigma_tail
        monkeypatch.setattr(malliavin, "sigma_tail", lambda *a: replace(
            tail(*a), estimate=2.0))
    else:
        monkeypatch.setattr(malliavin, "backward_taylor_check", lambda g, level: 1.0)


@pytest.mark.parametrize("command,rows", [
    ("split", 4096), ("ibp", 4), ("sigtail", 2), ("taylor", 3),
])
def test_failed_verdict_exits_1_with_full_table(capsys, monkeypatch, command, rows):
    _fail_verdict(monkeypatch, command)
    code, out, _ = run(capsys, *TABLES[command])
    assert code == 1
    assert len(out.splitlines()) == 1 + rows


def test_ibp_nan_z_fails(capsys, monkeypatch):
    # a NaN z-score compares false against every threshold: it must not pass
    battery = malliavin.ibp_battery
    monkeypatch.setattr(malliavin, "ibp_battery", lambda *a: [
        replace(r, lhs=float("nan")) for r in battery(*a)])
    code, out, _ = run(capsys, *TABLES["ibp"])
    assert code == 1
    assert out.splitlines()[1].split(",")[-1] == "nan"


@pytest.mark.parametrize("argv,message", [
    (["kpoly", "--dist", "atom_mixture(p=0)"], "degenerate"),
    (["tv", "--dist", "exponential", "--n", "1", "--halfwidth", "2", "--points", "64"],
     "window too small"),
    (["kpoly", "--dist", "exponential", "--m", "15"], "requested order 17 > declared 16"),
    (["sigtail", "--samples", "0"], "samples must be >= 1"),
    (["ibp", "--samples", "0"], "samples must be >= 2"),
    (["sigtail", "--n-list", ""], "--n-list must be nonempty"),
    (["ibp", "--n", "0", "--samples", "10"], "n must be >= 1"),
    (["sigtail", "--n-list", "0", "--samples", "10"], "n must be >= 1"),
    (["taylor", "--coeffs", ""], "--coeffs must be nonempty"),
    (["tv", "--dist", "uniform", "--n", "4", "--halfwidth", "-16"],
     "halfwidth must be finite and > 0"),
    (["tv", "--dist", "uniform", "--n", "4", "--halfwidth", "0"],
     "halfwidth must be finite and > 0"),
    (["density", "--dist", "uniform", "--n", "4", "--halfwidth", "-3"],
     "halfwidth must be finite and > 0"),
    (["density", "--dist", "uniform", "--n", "4", "--halfwidth", "0", "--kind", "edgeworth"],
     "halfwidth must be finite and > 0"),
    (["tv", "--dist", "uniform", "--n", "4", "--halfwidth", "inf"],
     "halfwidth must be finite and > 0"),
    (["split", "--dist", "uniform", "--samples", "0"], "--samples must be >= 1"),
    (["taylor", "--max-level", "-1"], "--max-level must be >= 0"),
    (["ops", "--dist", "fixture1d", "--t", "-1"], "--t must be >= 0"),
    (["ops", "--dist", "fixture1d", "--family", "a", "--t", "-1"], "--t must be >= 0"),
    (["ops", "--dist", "fixture1d", "--family", "t", "--t", "-1"], "--t must be >= 0"),
    (["rate", "--dist", "uniform", "--r", "0", "--n-list", "32"], "order r must be in 2..8"),
    (["rate", "--dist", "uniform", "--r", "3", "--n-list", ""], "n_list must be nonempty"),
    (["tv", "--dist", "exponential(rate=-1)", "--n", "8"],
     "exponential parameter rate must be > 0"),
    (["kpoly", "--dist", "uniform(a=0,b=0)"], "uniform parameters need a < b"),
    (["tv", "--dist", "uniform", "--n", "1", "--points", "2"], "mass defect"),
    (["density", "--dist", "exponential", "--n", "4", "--points", "4", "--kind", "edgeworth"],
     "mass defect"),
    (["ibp", "--dist", "uniform", "--n", "4", "--samples", "1"], "samples must be >= 2"),
    (["rate"], "rate needs --config or --dist/--r/--n-list"),
    (["ops", "--dist", "fixture2d", "--family", "a", "--t", "6", "--i", "0"], "i must be >= 1"),
    (["kpoly", "--dist", "zeta"], "unknown distribution 'zeta'"),
], ids=["singular-covariance", "aliasing", "order-exceeded", "sigtail-no-samples",
        "ibp-no-samples", "sigtail-no-n", "ibp-n-zero", "sigtail-n-zero", "taylor-no-coeffs",
        "tv-negative-halfwidth", "tv-zero-halfwidth", "density-negative-halfwidth",
        "density-zero-halfwidth", "tv-infinite-halfwidth", "split-no-samples",
        "taylor-negative-level", "ops-psi-negative-t", "ops-a-negative-t",
        "ops-t-negative-t", "rate-r-zero", "rate-empty-n-list",
        "tv-negative-exponential-rate", "kpoly-empty-uniform", "tv-coarse-gamma-grid",
        "density-coarse-gamma-grid", "ibp-one-sample", "rate-missing-args", "ops-a-order-zero",
        "unknown-distribution"])
def test_runtime_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# --- entry-point runs: each exits 0, and its table matches the pattern given -----

NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.mark.parametrize("row", [
    ("split --dist uniform --samples 2000", ""),
    ("sigtail --dist uniform --n-list 10,50 --samples 10000", ""),
    # the Chernoff bound holds at every n: no calibration point, no exempt small n
    ("sigtail --dist uniform --n-list 12 --samples 10000", ""),
    ("sigtail --dist laplace --n-list 17 --samples 10000", ""),
    ("sigtail --dist uniform --n-list 1,2,3 --samples 10000", ""),
    # the Taylor identity is exact: every residual cell reads 0
    ("taylor --out {out}", r"L,residual\n(\d+,0\n)+\Z"),
    # both sides of the IBP identity on one paired stream: its SE is a column
    ("ibp --dist exponential --n 16 --samples 20000 --out {out}",
     "f,n,samples,lhs,lhs_se,rhs,rhs_se,diff_se,z\n"),
    # the spectrum cut takes logs of envelopes that underflow: no warning may escape
    pytest.param(("rate --dist atom_mixture --r 3 --n-list 32,1024", ""),
                 marks=NO_RUNTIME_WARNING),
    pytest.param(("tv --dist uniform --n 1", ""), marks=NO_RUNTIME_WARNING),
    # a product grid is one real irfft per axis; its tail bound loops over the factors
    pytest.param(("tv --dist exponential*uniform --n 4", ""), marks=NO_RUNTIME_WARNING),
    pytest.param(("tv --dist exponential*uniform*laplace --n 8", ""), marks=NO_RUNTIME_WARNING),
    ("ops --dist fixture2d --family a --i 2 --t 7", "multiindex,numerator,denominator\n"),
    ("ops --dist fixture2d --family t --n 12 --t 9", "multiindex,numerator,denominator\n"),
    # K_6 from an order-8 table, a 3-D table filled on first read, non-integer Gamma moments
    ("kpoly --dist exponential --m 6", "exponents,coefficient\n"),
    ("kpoly --dist exponential*uniform*laplace --m 3", "exponents,coefficient\n"),
    ("kpoly --dist gamma(shape=3/2,scale=2/3) --m 4", "exponents,coefficient\n"),
], ids=lambda row: row[0])
def test_entry_point_runs(tmp_path, capsys, row):
    command, pattern = row
    out_file = tmp_path / "table.csv"
    code, out, _ = run(capsys, *(arg.format(out=out_file) for arg in command.split()))
    assert code == 0
    assert re.match(pattern, out_file.read_text() if "{out}" in command else out)


@NO_RUNTIME_WARNING
@pytest.mark.parametrize("spec", ["exponential*uniform", "laplace*gamma"])
def test_product_rate_runs_on_512_grids(tmp_path, capsys, spec):
    # the benchmark's product rate runs, summed in place; rate has no --points flag
    cfg = tmp_path / "rate2d.cfg"
    cfg.write_text(f"dist = {spec}\nr = 3\nn_list = 32, 64, 128, 256, 512, 1024\n"
                   "grid_points = 512\n")
    assert run(capsys, "rate", "--config", str(cfg))[0] == 0
