"""Rate experiments: total variation against the corrected measures.

For a shipped law and expansion order ``r`` the harness computes
``d_TV(mu_n, Gamma_{n,r})`` over a grid of ``n`` (FFT-exact densities),
fits the log-log slope, and compares it with the theoretical exponent:

* ``-([r/3] + 1) / 2`` in general,
* ``-(r - 1) / 2`` when every moment difference up to order r vanishes
  (the moment-matching regime, where the plain Gaussian already achieves
  the faster rate).

Only slopes are verified; the theorem constants depend on unquantified
spectral data of the law and are out of scope.  Runs are deterministic
and draw no random numbers: an identical config produces byte-identical
CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .correctors import EdgeworthModel, edgeworth_grid
from .moments import make_distribution
from .numerics import TVInterval, default_grid_points, law_of_sn, tv_distance

__all__ = [
    "ConfigError",
    "RateConfig",
    "RateReport",
    "parse_config",
    "expected_slope",
    "run_rate",
    "emit_report",
    "fmt",
    "parse_list",
    "write_csv",
]


class ConfigError(Exception):
    """Malformed or incomplete experiment configuration."""


def fmt(v) -> str:
    """Stable cell formatting: floats as ``.12g``, anything else via ``str``."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(dest, header: str, rows) -> None:
    """Write ``header`` and ``rows``, every cell through :func:`fmt`, as CSV
    to a path or a writable stream."""
    lines = [header, *(",".join(map(fmt, row)) for row in rows)]
    data = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(data)
    else:
        with open(dest, "w") as fh:
            fh.write(data)


def parse_list(text: str, kind=int) -> list:
    """Items of a comma- or space-separated list, each through ``kind``."""
    return [kind(p) for p in text.replace(",", " ").split()]


@dataclass
class RateConfig:
    """One rate experiment.  ``grid_points`` left unset becomes
    ``default_grid_points`` of the law's dimension (the number of
    ``*``-joined factors in ``dist``)."""

    dist: str
    r: int
    n_list: tuple
    grid_points: int | None = None
    grid_halfwidth: float = 16.0
    out: str | None = None
    slope_tol: float = 0.2

    def __post_init__(self):
        if self.grid_points is None:
            self.grid_points = default_grid_points(len(self.dist.split("*")))


_CONFIG_KEYS = {
    "dist": str,
    "r": int,
    "n_list": "intlist",
    "grid_points": int,
    "grid_halfwidth": float,
    "out": str,
    "slope_tol": float,
}


def parse_config(text: str) -> RateConfig:
    """Parse the plain ``key = value`` config format (one pair per line).

    Keys: dist, r, n_list (comma separated), grid_points,
    grid_halfwidth, out, slope_tol.  Without ``grid_points`` the grid has
    ``default_grid_points`` of the law's dimension per axis.  ``#`` starts
    a comment.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind == "intlist":
                values[key] = tuple(parse_list(val))
            elif kind is int:
                values[key] = int(val)
            elif kind is float:
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    for required in ("dist", "r", "n_list"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    cfg = RateConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RateConfig):
    if cfg.r < 2 or cfg.r > 8:
        raise ConfigError("order r must be in 2..8")
    if not cfg.n_list:
        raise ConfigError("n_list must be nonempty")
    if any(n < 1 for n in cfg.n_list):
        raise ConfigError("n values must be >= 1")
    if list(cfg.n_list) != sorted(set(cfg.n_list)):
        raise ConfigError("n_list must be strictly increasing")
    if cfg.grid_points < 2 or cfg.grid_points & (cfg.grid_points - 1):
        raise ConfigError(f"grid_points must be a power of two >= 2, got {cfg.grid_points}")
    if not 0 < cfg.grid_halfwidth < math.inf:
        raise ConfigError(f"grid_halfwidth must be finite and > 0, got {cfg.grid_halfwidth}")


@dataclass
class RateReport:
    dist_label: str
    r: int
    n_values: tuple
    tv_values: list  # list of TVInterval
    slope: float
    slope_stderr: float
    expected_slope: float
    verdict: str  # "pass" or "fail"
    reason: str = ""
    config: RateConfig | None = field(default=None, repr=False)


def expected_slope(table, r: int) -> float:
    """Theoretical log-log exponent for ``d_TV(mu_n, Gamma_{n,r})``.

    ``-(r-1)/2`` when every moment difference up to order r vanishes,
    otherwise ``-([r/3]+1)/2``.
    """
    if table.sup_delta(r) == 0:
        return -(r - 1) / 2.0
    return -(r // 3 + 1) / 2.0


def _ols_slope(xs, ys):
    m = len(xs)
    mx = sum(xs) / m
    my = sum(ys) / m
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    if m > 2:
        ssr = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
        se = math.sqrt(ssr / (m - 2) / sxx)
    else:
        se = float("nan")
    return slope, se


def run_rate(config: RateConfig) -> RateReport:
    """Run one rate experiment; deterministic given the config."""
    _validate(config)
    dist = make_distribution(config.dist)
    model = EdgeworthModel.build(dist, config.r)
    expected = expected_slope(model.table, config.r)

    def one(n: int) -> TVInterval:
        mu_n = law_of_sn(dist, n, config.grid_points, config.grid_halfwidth)
        gam = edgeworth_grid(model, n, config.grid_points, config.grid_halfwidth)
        return tv_distance(mu_n, gam)

    tvs = [one(n) for n in config.n_list]

    ns = list(config.n_list)
    fit_ns, fit_tvs = ns, tvs
    if len(ns) >= 4:
        fit_ns, fit_tvs = ns[1:], tvs[1:]  # drop the pre-asymptotic point
    verdict, reason = "pass", ""
    if len(fit_ns) < 2 or any(t.mid <= 0 for t in fit_tvs):
        slope, se = float("nan"), float("nan")
        verdict, reason = "fail", "insufficient points"
    else:
        slope, se = _ols_slope(
            [math.log(n) for n in fit_ns], [math.log(t.mid) for t in fit_tvs]
        )
        if abs(slope - expected) > config.slope_tol:
            verdict = "fail"
            reason = f"slope {slope:.3f} outside {expected}+-{config.slope_tol}"
        for t in tvs:
            if t.width >= 0.1 * t.mid:
                verdict = "fail"
                reason = (reason + "; " if reason else "") + "interval too wide"
                break
    return RateReport(
        dist_label=dist.label,
        r=config.r,
        n_values=tuple(ns),
        tv_values=tvs,
        slope=slope,
        slope_stderr=se,
        expected_slope=expected,
        verdict=verdict,
        reason=reason,
        config=config,
    )


def emit_report(report: RateReport, path) -> None:
    """CSV: data rows ``(n, tv_mid, tv_lo, tv_hi)`` + one summary row.

    Byte-identical across runs for the same config.
    """
    rows = [(n, tv.mid, tv.lo, tv.hi) for n, tv in zip(report.n_values, report.tv_values)]
    verdict = report.verdict if not report.reason else f"{report.verdict} ({report.reason})"
    rows.append((report.slope, report.slope_stderr, report.expected_slope, verdict))
    write_csv(path, "n,tv_mid,tv_lo,tv_hi", rows)
