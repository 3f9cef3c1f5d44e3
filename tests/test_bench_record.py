"""The benchmark recorder's JSON assembly, fed canned ``perfbench/run.py`` output."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run_output(wall, ok_ratio, failed=8):
    """What ``perfbench/run.py --workload rate_sweep --trace 0`` prints."""
    result = {"correct": True, "attempted": 45, "failed": failed,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}}
    return "\n".join([f"rate_sweep wall_s {wall:.6g} s",
                      f"rate_sweep ok_ratio {ok_ratio:.6g} ratio",
                      f"rate_sweep attempted 45 failed {failed} correct True",
                      json.dumps(result)]) + "\n"


def _pairs(base_walls, change_walls):
    return [{"seed": i + 1, "first": "base" if i % 2 == 0 else "change",
             "base": bench_record.parse_result(_run_output(b, 37 / 45)),
             "change": bench_record.parse_result(_run_output(c, 37 / 45))}
            for i, (b, c) in enumerate(zip(base_walls, change_walls))]


def test_record_summarizes_each_metric_over_the_pairs():
    runs = {"rate_sweep": _pairs([0.33, 0.32, 0.34], [0.29, 0.30, 0.35])}
    record = bench_record.assemble({"commit": "a" * 40}, {"commit": "b" * 40},
                                   {"nproc": 2}, 40, runs,
                                   {"wall_s": "lower", "ok_ratio": "higher"})
    record = json.loads(json.dumps(record))  # what the file holds
    assert (record["base"]["commit"], record["change"]["commit"]) == ("a" * 40, "b" * 40)
    assert record["machine"] == {"nproc": 2} and record["seconds"] == 40
    wall = record["workloads"]["rate_sweep"]["metrics"]["wall_s"]
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert wall["base"]["runs"] == [0.33, 0.32, 0.34]
    assert wall["base"]["median"] == 0.33 and wall["change"]["median"] == 0.30
    assert wall["base"]["q1"] == pytest.approx(0.325) and wall["base"]["q3"] == pytest.approx(0.335)
    assert wall["change_wins"] == 2  # the third pair is lost
    assert wall["relative_change"] == pytest.approx(-0.03 / 0.33)
    assert wall["beyond_base_iqr"] is True  # 0.03 apart, base quartiles 0.01 apart
    ok = record["workloads"]["rate_sweep"]["metrics"]["ok_ratio"]
    assert ok["change_wins"] == 0 and ok["relative_change"] == 0.0  # ties count for neither
    assert ok["beyond_base_iqr"] is False
    pair = record["workloads"]["rate_sweep"]["pairs"][1]
    assert pair["seed"] == 2 and pair["first"] == "change"
    assert pair["base"] == {"correct": True, "attempted": 45, "failed": 8}


def test_one_pair_has_its_run_as_median_and_quartiles():
    record = bench_record.assemble({}, {}, {}, 40, {"rate_sweep": _pairs([0.3], [0.2])},
                                   {"wall_s": "lower"})
    wall = record["workloads"]["rate_sweep"]["metrics"]["wall_s"]
    assert wall["base"] == {"runs": [0.3], "q1": 0.3, "median": 0.3, "q3": 0.3}
    assert wall["change_wins"] == 1
    assert "change_wins" not in record["workloads"]["rate_sweep"]["metrics"]["ok_ratio"]


def test_tier1_command_is_ci_s():
    # the timed suite is CI's Tier-1 command, warnings-as-errors flags included
    ci = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tests.yml")
    with open(ci) as fh:
        line = next(ln for ln in fh if "-W" in ln and "--continue-on-collection-errors" in ln)
    flags = ["error::DeprecationWarning", "error::RuntimeWarning"]
    assert [w for w in line.split() if w.startswith("error::")] == flags
    cmd = bench_record.TIER1
    assert cmd[1:4] == ["-m", "pytest", "-q"] and "--continue-on-collection-errors" in cmd
    assert [cmd[i + 1] for i, arg in enumerate(cmd) if arg == "-W"] == flags


def test_plan_entries():
    assert bench_record.parse_plan(["rate_sweep=10", "rate_sweep/trace=2"]) == [
        ("rate_sweep", False, 10), ("rate_sweep", True, 2)]
    for bad in ["rate_sweep", "rate_sweep=0", "rate_sweep/fast=2", "rate_sweep=x"]:
        with pytest.raises(ValueError):
            bench_record.parse_plan([bad])
