"""Smoke test of the benchmark: each workload at tiny size, traced and not.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()
import workloads  # noqa: E402

ALL = [name for name, _ in run.WORKLOADS]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ALL)
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=1, trace=trace, size="tiny")
    assert result["correct"]
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    if trace:
        names = [name for name, _, _ in run.PER_LAYER]
    else:
        names = [name for name, _, _, _ in run.END_TO_END]
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] >= 0
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_traced_sampler_counts():
    layers = run.measure("mc_ibp", seed=3, seconds=1, trace=1, size="tiny")["metrics"]
    for sampler in ("splitting.sample_v", "splitting.sample_w"):
        draws = layers[f"{sampler}.draws"]["value"]
        proposals = layers[f"{sampler}.proposals"]["value"]
        assert 0 < draws <= proposals
        assert layers[f"{sampler}.useful_ratio"]["value"] == pytest.approx(
            draws / proposals, rel=0.2)
    assert layers["splitting.split.calls"]["value"] == 2


def test_planted_wrong_oracle_counts_as_failed(monkeypatch):
    real = workloads.product_k_oracle

    def wrong_k1(spec, m_max):
        out = real(spec, m_max)
        out[1] = out[1] + 1
        return out

    monkeypatch.setattr(workloads, "product_k_oracle", wrong_k1)
    result = run.measure("exact_tables", seed=3, seconds=1, trace=0, size="tiny")
    per_pass = len(workloads.setup_exact_tables(3, 0, "tiny"))
    passes = result["attempted"] // per_pass
    assert not result["correct"]
    # one K_1 operation per law in the tiny table list
    assert result["failed"] == len(workloads.EXACT_TABLES["tiny"]["kpoly"]) * passes


def test_ibp_check_pools_calls():
    # each call alone is within 1 SE; pooled over 100 calls the bias is 10 SE
    biased = [[(0.01, 1e-4)]] * 100
    unbiased = [[(0.01 * (-1) ** k, 1e-4)] for k in range(100)]
    assert not workloads.ibp_pooled_ok(biased)
    assert workloads.ibp_pooled_ok(unbiased)
    assert workloads.runs_for_target_se(biased) == pytest.approx(100.0)


def test_rate_verdict_failure_is_failed_not_wrong():
    result = run.measure("rate_sweep", seed=3, seconds=1, trace=0, size="tiny")
    # uniform at r=2 fails its slope verdict (the theorem exponent is not sharp)
    assert result["correct"] and result["failed"] > 0


def test_without_library_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_matches_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()
