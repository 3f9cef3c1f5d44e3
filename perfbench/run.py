"""Benchmark of the edgeworth library: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  A run repeats passes
over the workload's operations for at most ``--seconds`` (it starts no pass
that, as long as the last, would end later), the first ``MIN_REPS`` each
after a fresh set-up, checks every operation's
output outside the timed region, prints each metric with its unit, and
ends with one JSON line.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run spends half its time untraced and half traced and reports the
per-layer ones.  The end-to-end times are scaled to a reference speed of
the machine (``at_reference_speed``).  See README.md in this directory for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

from tracing import SAMPLERS, SPAN_NAMES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 40
MIN_REPS = 5          # untraced run; also the number of set-ups it times
MIN_TRACED_REPS = 2   # each half of a traced run
PROBE_S = 0.010       # the probe's time at the reference speed

WORKLOADS = [
    ("mc_ibp", "IBP battery on uniform (mostly V draws) and exponential (mostly W "
               "draws): samplers and sn_batch, no FFT, almost no exact algebra"),
    ("rate_sweep", "run_rate over every shipped 1-D law and r=2..8, two 2-D products "
                   "and a user density: FFT inversion, grids, TV and the thread pool"),
    ("exact_tables", "cold Fraction algebra with a fresh table per operation: dim^t "
                     "enumerations in k_poly/a_op/psi_op/t_op, plus the compose sweep"),
]
# name, unit, better, bound
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("s_to_accuracy", "s", "lower", 0.25),
]


PER_LAYER = [m for name in SPAN_NAMES
             for m in ((f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower"))]
for _sampler in SAMPLERS:
    PER_LAYER += [(f"{_sampler}.useful_ratio", "ratio", "higher"),
                  (f"{_sampler}.draws", "count", "higher"),
                  (f"{_sampler}.proposals", "count", "lower")]
PER_LAYER += [
    ("harness.run_rate.busy_s", "s", "lower"),
    ("numerics.law_of_sn.grid_points", "count", "lower"),
    ("numerics.law_of_sn.bytes_computed", "B", "lower"),
    ("opalg.c_coeff.calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def import_library() -> float:
    """Import ``edgeworth`` from this checkout's ``src/``; return the reference
    seconds taken (``at_reference_speed``)."""
    if not os.path.isfile(os.path.join(SRC, "edgeworth", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import edgeworth

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(edgeworth.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: edgeworth imported from {edgeworth.__file__}, not {SRC}")
    probe()  # the first call also pays numpy's one-time costs; do not scale by it
    return at_reference_speed(elapsed)


def probe() -> float:
    """Seconds a fixed piece of work takes now: ``Fraction`` sums stored in a
    dict, then a sort and an exp over 2e5 doubles.  It calls no library code
    and runs with the garbage collector off, so nothing the library left on
    the heap is charged to it."""
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        x, store = Fraction(0), {}
        for i in range(1, 1500):
            x += Fraction(i, i + 1)
            store[i % 50, i % 7] = x
        a = np.random.default_rng(0).random(200_000)
        float((np.exp(np.sort(a)) * a).sum())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(seconds: float) -> float:
    """``seconds`` just measured, as they would read if the probe took ``PROBE_S``.

    Other tenants of the machine slow it by 25–50% for spells of seconds to
    tens of minutes.  A probe run right after the timed code is slowed alike,
    so the ratio of the two follows the program and not the machine's state.
    Over ten runs of the same code, the scaled pass times of the two
    single-threaded workloads spread 3.5 times less than the raw ones.
    """
    return seconds * PROBE_S / probe()


class Rep:
    """One repetition: set-up unless ``ops`` are given, one timed pass, the checks."""

    def __init__(self, setup_fn, summarize, seed, index, size, tracer=None, ops=None):
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        self.setup_s = None
        if ops is None:
            t0 = time.perf_counter()
            ops = setup_fn(seed, index, size)
            self.setup_s = at_reference_speed(time.perf_counter() - t0)
        self.ops = ops
        self.times, results, errors = [], [], []
        for op in ops:
            start = time.perf_counter()
            try:
                results.append(op.run())
                errors.append(None)
            except Exception:  # a raising operation is a failed one; keep measuring
                results.append(None)
                errors.append(traceback.format_exc())
            self.times.append(at_reference_speed(time.perf_counter() - start))
        self.layers = None
        if tracer is not None:
            tracer.active = False
            self.layers = tracer.layer_metrics()
        self.work = [op.work for op in ops]
        self.summaries = [summarize(res) if summarize and not e else None
                          for res, e in zip(results, errors)]
        self.failed, self.wrong, self.messages = 0, 0, []
        for op, result, error in zip(ops, results, errors):
            oracle_ok = error is None and _safe(op.oracle, result)
            verdict_ok = op.verdict is None or (error is None and _safe(op.verdict, result))
            if not oracle_ok:
                self.wrong += 1
                self.messages.append(f"wrong output: {op.label}\n{error or ''}")
            elif not verdict_ok:
                self.messages.append(f"failed verdict: {op.label}")
            self.failed += not (oracle_ok and verdict_ok)


def _safe(check, result) -> bool:
    try:
        return bool(check(result))
    except Exception:  # a check that cannot evaluate the output rejects it
        traceback.print_exc()
        return False


def run_reps(workload, seed, size, seconds, min_reps, first=0, tracer=None, setups=None):
    """Repeat while the next repetition, as long as the last one, ends within
    ``seconds``; only the first ``setups`` repetitions set up, and later ones
    rerun the last set-up's operations."""
    import workloads

    setup_fn, summarize = workloads.WORKLOADS[workload]
    reps, last = [], 0.0
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start + last <= seconds:
        ops = reps[-1].ops if setups is not None and len(reps) >= setups else None
        t0 = time.perf_counter()
        reps.append(Rep(setup_fn, summarize, seed, first + len(reps), size, tracer, ops))
        last = time.perf_counter() - t0
    return reps


def op_medians(reps) -> list[float]:
    """Each operation's median time over the repetitions.

    The median over a whole run's calls spread less from run to run than
    the fastest call did, which depends on whether the run happened to
    catch a quiet moment of the machine.
    """
    return [statistics.median(times) for times in zip(*(r.times for r in reps))]


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; return the result object the benchmark prints."""
    import_s = import_library()
    import workloads

    if trace:
        reps = run_reps(workload, seed, size, seconds / 2, MIN_TRACED_REPS)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_reps(workload, seed, size, seconds / 2, MIN_TRACED_REPS,
                              first=len(reps), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = {name: statistics.median(r.layers[name] for r in traced)
                   for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (
            (statistics.median(r.setup_s for r in traced) + sum(op_medians(traced)))
            / (statistics.median(r.setup_s for r in reps) + sum(op_medians(reps))))
        units = {name: unit for name, unit, _ in PER_LAYER}
        reps += traced
    else:
        reps = run_reps(workload, seed, size, seconds, MIN_REPS, setups=MIN_REPS)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    # Monte Carlo results are checked and costed pooled over the run's calls
    summaries = [[s for s in per_op if s is not None]
                 for per_op in zip(*(r.summaries for r in reps))]
    messages = {m for r in reps for m in r.messages}
    pooled_failed = 0
    for op, per_op in zip(reps[0].ops, summaries):
        if per_op and not workloads.ibp_pooled_ok(per_op):
            pooled_failed += 1
            messages.add(f"wrong output: {op.label} (pooled over the run)")
    attempted = sum(len(r.times) for r in reps)
    failed = pooled_failed + sum(r.failed for r in reps)

    if not trace:
        medians = op_medians(reps)
        wall = sum(medians)
        factors = [workloads.runs_for_target_se(s) if s else 1.0 for s in summaries]
        metrics = {
            "wall_s": wall,
            "setup_s": import_s + statistics.median(
                r.setup_s for r in reps if r.setup_s is not None),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_ratio": 1.0 - failed / attempted,
            "throughput_per_s": sum(reps[0].work) / wall,
            "s_to_accuracy": sum(m * f for m, f in zip(medians, factors)),
        }
    for message in sorted(messages):
        print(f"perfbench: {message}", file=sys.stderr)
    return {
        "correct": pooled_failed == 0 and all(r.wrong == 0 for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
