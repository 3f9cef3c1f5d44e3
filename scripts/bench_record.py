"""Time the benchmark at a base commit and in the working tree, in
alternating pairs, and write every run and its summary to one JSON file.

    python3 scripts/bench_record.py --base HEAD~1 --out BENCH_27.json \\
        --plan rate_sweep=10 --plan mc_ibp=3 --plan exact_tables=3 \\
        --plan rate_sweep/trace=2

Run from the root of a source checkout.  The base commit is extracted with
``git archive`` into a temporary directory.  Pair ``i = 0, 1, ...`` of a
plan entry ``W=PAIRS`` runs the benchmark's command (``BENCHMARK.json``)
with ``--workload W --seed i+1`` once in each tree, at the benchmark's own
run length: the base first on even ``i``, the working tree first on odd
``i``.  ``W/trace=PAIRS`` adds ``--trace 1`` and reports the per-layer
metrics.  Last, each tree's Tier-1 suite is timed
once.  The file is rewritten after every pair, so a stopped recording keeps
the pairs it finished.

For each workload and metric the file holds both sides' runs, median and
quartiles, how many pairs the working tree won (ties count for neither),
the relative change of the medians, and whether the medians differ by more
than the base's interquartile range.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

# CI's Tier-1 command (.github/workflows/tests.yml), without the cache
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::DeprecationWarning", "-W", "error::RuntimeWarning",
         "--continue-on-collection-errors"]


def git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.rstrip("\n")


def parse_result(stdout: str) -> dict:
    """The result object: the last line ``perfbench/run.py`` prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def parse_plan(entries) -> list[tuple[str, bool, int]]:
    """``["rate_sweep=10", "rate_sweep/trace=2"]`` -> ``[(workload, trace, pairs)]``."""
    plan = []
    for entry in entries:
        name, sep, pairs = entry.partition("=")
        workload, _, mode = name.partition("/")
        if not sep or not pairs.isdigit() or int(pairs) < 1 or mode not in ("", "trace"):
            raise ValueError(f"plan entry {entry!r} is not WORKLOAD[/trace]=PAIRS")
        plan.append((workload, mode == "trace", int(pairs)))
    return plan


def summarize_side(values: list[float]) -> dict:
    """The runs with their median and quartiles (inclusive: within the runs)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per-metric summary of the pairs of one plan entry.

    Each pair is ``{"seed", "first", "base", "change"}`` with the two result
    objects; ``better`` maps a metric name to ``"lower"`` or ``"higher"``.
    A metric missing from ``better`` is reported without wins.
    """
    names = [name for name in pairs[0]["base"]["metrics"]
             if all(name in p[side]["metrics"] for p in pairs for side in ("base", "change"))]
    metrics = {}
    for name in names:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"],
                 "better": better.get(name),
                 "base": summarize_side(base), "change": summarize_side(change)}
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            entry["change_wins"] = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        b_med, c_med = entry["base"]["median"], entry["change"]["median"]
        entry["relative_change"] = (c_med - b_med) / b_med if b_med else None
        entry["beyond_base_iqr"] = abs(c_med - b_med) > entry["base"]["q3"] - entry["base"]["q1"]
        metrics[name] = entry
    checks = ("correct", "attempted", "failed")
    return {
        "pairs": [{"seed": p["seed"], "first": p["first"],
                   **{side: {k: p[side][k] for k in checks} for side in ("base", "change")}}
                  for p in pairs],
        "metrics": metrics,
    }


def assemble(base: dict, change: dict, machine: dict, seconds: int,
             runs: dict, better: dict) -> dict:
    """The record: ``runs`` maps a plan key (``W`` or ``W/trace``) to its pairs."""
    return {
        "base": base,
        "change": change,
        "machine": machine,
        "seconds": seconds,
        "workloads": {key: summarize(pairs, better) for key, pairs in runs.items() if pairs},
    }


def machine() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "platform": platform.platform()}


def run_bench(command, tree, workload, seed, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    return parse_result(out.stdout)


def time_tier1(tree) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    t0 = time.perf_counter()
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": out.returncode, "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--plan", action="append", required=True,
                        help="WORKLOAD[/trace]=PAIRS; repeat for several")
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)

    root = git("rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    out_path = os.path.abspath(args.out)
    dirty = [line for line in git("status", "--porcelain", cwd=root).splitlines()
             if os.path.join(root, line[3:]) != out_path]
    base = {"commit": git("rev-parse", args.base, cwd=root)}
    change = {"commit": git("rev-parse", "HEAD", cwd=root), "uncommitted_changes": bool(dirty)}

    runs: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", base["commit"]], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"base": tmp, "change": root}

        def write():
            record = assemble(base, change, machine(), spec["run_seconds"], runs, better)
            with open(out_path, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")

        for workload, trace, n_pairs in plan:
            key = workload + ("/trace" if trace else "")
            for i in range(n_pairs):
                seed = i + 1
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(spec["command"], trees[side], workload, seed, trace)
                runs.setdefault(key, []).append(pair)
                print(f"{key} pair {i + 1}/{n_pairs} seed {seed} done", file=sys.stderr)
                write()
        for side, record in (("base", base), ("change", change)):
            record["tier1"] = time_tier1(trees[side])
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
