"""Config parsing, rate reports, CSV emission, determinism."""

import io
import math
from fractions import Fraction as F

import pytest

from edgeworth.harness import (
    ConfigError,
    RateConfig,
    emit_report,
    expected_slope,
    fmt,
    parse_config,
    parse_list,
    run_rate,
    write_csv,
)
from edgeworth.moments import MomentTable, make_distribution

GOOD = """
# comment lines and blanks are fine
dist = exponential
r = 3
n_list = 32, 64, 128
grid_points = 4096
slope_tol = 0.5
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.dist == "exponential"
    assert cfg.r == 3
    assert cfg.n_list == (32, 64, 128)
    assert cfg.grid_points == 4096


def test_default_grid_points_per_dimension():
    assert RateConfig(dist="exponential", r=3, n_list=(32,)).grid_points == 2**14
    assert RateConfig(dist="exponential*uniform", r=3, n_list=(32,)).grid_points == 2**10
    cfg = parse_config("dist = exponential*uniform*laplace\nr = 3\nn_list = 32")
    assert cfg.grid_points == 2**7
    assert RateConfig(dist="exponential*uniform", r=3, n_list=(32,),
                      grid_points=512).grid_points == 512


@pytest.mark.parametrize(
    "text",
    [
        "dist = exponential\nr = 3",                      # missing n_list
        "dist = exponential\nr = 3\nn_list =",            # empty n_list
        "dist = exponential\nr = 3\nn_list = 64, 32",     # not increasing
        "dist = exponential\nr = 1\nn_list = 32",         # r out of range
        "dist = exponential\nr = 3\nn_list = 32\nbogus = 1",
        "dist = exponential\nr = 3\nn_list = 32\nseed = 3",  # rate draws nothing
        "dist = exponential\nr = 3\nn_list = 32\ngrid_points = 1000",
        "dist = exponential\nr = 3\nn_list = 32\ngrid_points = 1",
        "dist = exponential\nr = 3\nn_list = 32\ngrid_halfwidth = -16",
        "dist = exponential\nr = 3\nn_list = 32\ngrid_halfwidth = inf",
        "dist exponential",                               # no equals sign
    ],
)
def test_parse_rejects_bad_configs(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_expected_slope_rule():
    exp_t = MomentTable.from_distribution(make_distribution("exponential"), 6)
    uni_t = MomentTable.from_distribution(make_distribution("uniform"), 6)
    nrm_t = MomentTable.from_distribution(make_distribution("normal"), 6)
    assert expected_slope(exp_t, 2) == -0.5   # [r/3] = 0
    assert expected_slope(exp_t, 3) == -1.0
    assert expected_slope(exp_t, 6) == -1.5
    assert expected_slope(uni_t, 3) == -1.0   # moment-matched branch, (r-1)/2
    assert expected_slope(nrm_t, 6) == -2.5   # fully matched
    assert expected_slope(uni_t, 4) == -1.0   # Delta_4 != 0: general branch


def test_single_n_fails_with_reason():
    cfg = RateConfig(dist="exponential", r=3, n_list=(64,))
    report = run_rate(cfg)
    assert report.verdict == "fail"
    assert report.reason == "insufficient points"
    assert math.isnan(report.slope)
    buf = io.StringIO()
    emit_report(report, buf)
    assert "insufficient points" in buf.getvalue()


def test_report_schema_and_determinism(tmp_path):
    cfg = parse_config("dist = exponential\nr = 2\nn_list = 32, 64, 128, 256")
    rep1 = run_rate(cfg)
    rep2 = run_rate(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rep1, str(p1))
    emit_report(rep2, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "n,tv_mid,tv_lo,tv_hi"
    assert len(lines) == 1 + len(cfg.n_list) + 1  # header + data + summary
    assert lines[-1].endswith("pass") or "fail" in lines[-1]
    for row in lines[1:-1]:
        n, mid, lo, hi = row.split(",")
        assert float(lo) <= float(mid) <= float(hi)


def test_rate_verdict_tolerance():
    cfg = RateConfig(
        dist="exponential", r=3, n_list=(32, 64, 128, 256), slope_tol=1e-4
    )
    report = run_rate(cfg)
    assert report.verdict == "fail"
    assert "slope" in report.reason


@pytest.mark.parametrize(
    "dist,r",
    [("gamma", 2), ("gamma", 3), ("gauss_mixture", 2), ("laplace", 3)],
)
def test_rate_slopes_generalize_across_registry(dist, r):
    # the acceptance criteria pin exponential/uniform; the other shipped
    # laws obey the same exponents
    cfg = RateConfig(dist=dist, r=r, n_list=(32, 64, 128, 256, 512, 1024))
    report = run_rate(cfg)
    assert report.verdict == "pass", (report.slope, report.reason)
    assert abs(report.slope - report.expected_slope) < 0.15


def test_monotone_correction_quality():
    # higher-order corrected measure approximates the n = 1024 law better
    from edgeworth.correctors import EdgeworthModel, edgeworth_grid
    from edgeworth.numerics import law_of_sn, tv_distance

    d = make_distribution("exponential")
    mu = law_of_sn(d, 1024)
    tv5 = tv_distance(mu, edgeworth_grid(EdgeworthModel.build(d, 5), 1024)).mid
    tv2 = tv_distance(mu, edgeworth_grid(EdgeworthModel.build(d, 2), 1024)).mid
    assert tv5 < tv2


def test_write_csv_to_stream_and_path(tmp_path):
    rows = [(1, 0.1, "pass"), (2, float("nan"), F(1, 3))]
    buf = io.StringIO()
    write_csv(buf, "n,x,note", rows)
    assert buf.getvalue() == "n,x,note\n1,0.1,pass\n2,nan,1/3\n"
    path = tmp_path / "t.csv"
    write_csv(str(path), "n,x,note", rows)
    assert path.read_text() == buf.getvalue()


def test_parse_list_commas_and_spaces():
    assert parse_list("32, 64 128,") == [32, 64, 128]
    assert parse_list("1/2 3", F) == [F(1, 2), F(3)]
    assert parse_list("") == []


def test_fmt_stability():
    assert fmt(0.1) == "0.1"
    assert fmt(float("nan")) == "nan"
    assert fmt(123) == "123"


def test_workers_key_is_rejected():
    # the serial run has no worker count to set
    text = "dist = exponential\nr = 3\nn_list = 32, 64\nworkers = 4\n"
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        parse_config(text)


# emit_report output of the 1-D default grid, written by the full-spectrum
# inverter (one FFT of the whole centered frequency axis, then the (-1)^j
# signs); the per-axis FFT must reproduce every digit
GOLDEN_1D_REPORTS = {
    ("exponential", 3): """\
n,tv_mid,tv_lo,tv_hi
32,0.0120303452429,0.012030345242,0.0120303452438
64,0.00597060712612,0.00597060712578,0.00597060712646
128,0.00297396905862,0.00297396905845,0.00297396905878
256,0.00148413001524,0.00148413001513,0.00148413001534
512,0.000741349073102,0.000741349073024,0.000741349073181
1024,0.000370495132536,0.000370495132469,0.000370495132602
-1.00248670128,0.000547507532407,-1,pass
""",
    ("atom_mixture", 6): """\
n,tv_mid,tv_lo,tv_hi
32,0.000252498708204,0.000252498708158,0.000252498708251
64,8.82246357544e-05,8.82246357038e-05,8.8224635805e-05
128,3.10108097747e-05,3.1010809722e-05,3.10108098274e-05
256,1.09322511564e-05,1.09322511026e-05,1.09322512102e-05
512,3.85955297434e-06,3.85955291997e-06,3.85955302871e-06
1024,1.3635726144e-06,1.36357255974e-06,1.36357266905e-06
-1.5037701801,0.00084201332306,-1.5,pass
""",
}


@pytest.mark.parametrize("dist,r", sorted(GOLDEN_1D_REPORTS))
def test_1d_report_matches_golden_csv(dist, r):
    buf = io.StringIO()
    emit_report(run_rate(RateConfig(dist=dist, r=r, n_list=(32, 64, 128, 256, 512, 1024))),
                buf)
    assert buf.getvalue() == GOLDEN_1D_REPORTS[dist, r]
