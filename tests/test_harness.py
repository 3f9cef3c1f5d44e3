"""Config parsing, rate reports, CSV emission, determinism."""

import io
import math

import pytest

from edgeworth.harness import (
    ConfigError,
    RateConfig,
    emit_report,
    expected_slope,
    fmt,
    parse_config,
    run_rate,
)
from edgeworth.moments import MomentTable, make_distribution

GOOD = """
# comment lines and blanks are fine
dist = exponential
r = 3
n_list = 32, 64, 128
seed = 7
grid_points = 4096
slope_tol = 0.5
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.dist == "exponential"
    assert cfg.r == 3
    assert cfg.n_list == (32, 64, 128)
    assert cfg.seed == 7
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
        "dist = exponential\nr = 3\nn_list = 32\ngrid_points = 1000",
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


def test_fmt_stability():
    assert fmt(0.1) == "0.1"
    assert fmt(float("nan")) == "nan"
    assert fmt(123) == "123"


def test_workers_key_is_rejected():
    # the serial run has no worker count to set
    text = "dist = exponential\nr = 3\nn_list = 32, 64\nworkers = 4\n"
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        parse_config(text)
