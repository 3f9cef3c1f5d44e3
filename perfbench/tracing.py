"""Runtime timing shims for the library's layer boundaries.

The tracer wraps public functions and methods of ``edgeworth`` from outside:
nothing under ``src/`` knows about it.  Each wrapped call records a span
``(id, parent, name, thread, start, end)`` in memory.  A call made while the
innermost open span of the same thread has the same name is part of that
span (recursion and delegation, such as a standardized law's ``char_fn``
calling its base law's, count once).  Spans opened by a worker thread with
no open span of its own are children of the main thread's innermost open
span, so the work ``run_rate`` hands to its thread pool nests under it.

A span's self time is its duration minus the part of that interval its
child spans cover.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (metric prefix, module, attribute); "Class.method" names a method and
# "*.char_fn" every class of the module that defines ``char_fn`` itself.
SPANS = [
    ("splitting.split", "edgeworth.splitting", "split"),
    ("splitting.sample_v", "edgeworth.splitting", "SplitRep.sample_v"),
    ("splitting.sample_w", "edgeworth.splitting", "SplitRep.sample_w"),
    ("splitting.psi_loc", "edgeworth.splitting", "psi_loc"),
    ("splitting.log_psi_gradient", "edgeworth.splitting", "SplitRep.log_psi_gradient"),
    ("malliavin.sn_batch", "edgeworth.malliavin", "sn_batch"),
    ("malliavin.localizer", "edgeworth.malliavin", "localizer"),
    ("malliavin.ibp_battery", "edgeworth.malliavin", "ibp_battery"),
    ("numerics.law_of_sn", "edgeworth.numerics", "law_of_sn"),
    ("numerics.tv_distance", "edgeworth.numerics", "tv_distance"),
    ("correctors.edgeworth_grid", "edgeworth.correctors", "edgeworth_grid"),
    ("moments.char_fn", "edgeworth.moments", "*.char_fn"),
    ("harness.run_rate", "edgeworth.harness", "run_rate"),
    ("moments.from_distribution", "edgeworth.moments", "MomentTable.from_distribution"),
    ("opalg.psi_op", "edgeworth.opalg", "psi_op"),
    ("opalg.a_op", "edgeworth.opalg", "a_op"),
    ("opalg.psi_k_op", "edgeworth.opalg", "psi_k_op"),
    ("opalg.t_op", "edgeworth.opalg", "t_op"),
    ("correctors.h_poly", "edgeworth.correctors", "h_poly"),
    ("correctors.k_poly", "edgeworth.correctors", "k_poly"),
]
SPAN_NAMES = [name for name, _, _ in SPANS]
SAMPLERS = ("splitting.sample_v", "splitting.sample_w")
# complex spectrum in, complex FFT out, real density: bytes per grid point
GRID_BYTES_PER_POINT = 16 + 16 + 8


class _Span:
    __slots__ = ("id", "parent", "name", "thread", "t0", "t1")

    def __init__(self, id_, parent, name, thread):
        self.id, self.parent, self.name, self.thread = id_, parent, name, thread
        self.t0 = self.t1 = 0.0


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: dict = defaultdict(int)
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._main_stack: list[_Span] = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------
    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            with tracer._lock:
                tracer._next_id += 1
                span = _Span(tracer._next_id, parent.id if parent else None,
                             name, threading.get_ident())
                tracer.spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return shim

    def _counter(self, fn, on_call):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if tracer.active:
                on_call(args, kwargs)
            return fn(*args, **kwargs)

        return shim

    # -- hooks ----------------------------------------------------------------
    def _draws(self, name):
        def after(args, kwargs, result):
            self._count(f"{name}.draws", len(result))
        return after

    def _grid(self, args, kwargs, result):
        points = int(result.values.size)
        self._count("numerics.law_of_sn.grid_points", points)
        self._count("numerics.law_of_sn.bytes_computed", points * GRID_BYTES_PER_POINT)

    def _proposals(self, args, kwargs):
        # SplitRep.psi_bump(self, x): x holds the proposals of one sampler round
        for span in reversed(self._stack()):
            if span.name in SAMPLERS:
                self._count(f"{span.name}.proposals", len(args[1]))
                return

    def _c_coeff(self, args, kwargs):
        self._count("opalg.c_coeff.calls", 1)

    # -- patching --------------------------------------------------------------
    def _patch_function(self, module, attr, shim_for):
        orig = getattr(module, attr)
        shim = shim_for(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "edgeworth" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, shim)

    def _patch_method(self, cls, attr, shim_for):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            shim = classmethod(shim_for(raw.__func__))
        else:
            shim = shim_for(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, shim)

    def install(self):
        """Patch every span, count and hook into the loaded library."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "splitting.sample_v": self._draws("splitting.sample_v"),
            "splitting.sample_w": self._draws("splitting.sample_w"),
            "numerics.law_of_sn": self._grid,
        }
        for name, mod_name, attr in SPANS:
            module = sys.modules[mod_name]
            shim_for = functools.partial(self._wrap, name, after=after.get(name))
            if attr.startswith("*."):
                method = attr[2:]
                for value in list(vars(module).values()):
                    if isinstance(value, type) and method in value.__dict__:
                        self._patch_method(value, method, shim_for)
            elif "." in attr:
                cls_name, method = attr.split(".")
                self._patch_method(getattr(module, cls_name), method, shim_for)
            else:
                self._patch_function(module, attr, shim_for)
        splitting = sys.modules["edgeworth.splitting"]
        self._patch_method(splitting.SplitRep, "psi_bump",
                           functools.partial(self._counter, on_call=self._proposals))
        self._patch_function(sys.modules["edgeworth.opalg"], "c_coeff",
                             functools.partial(self._counter, on_call=self._c_coeff))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []
        self.active = False

    # -- reporting ---------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Self time and calls per span, plus the counts, for the recorded spans."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        busy = 0.0
        for span in self.spans:
            kids = children[span.id]
            covered = _union_length(
                [(max(k.t0, span.t0), min(k.t1, span.t1)) for k in kids])
            out[f"{span.name}.s"] += (span.t1 - span.t0) - covered
            out[f"{span.name}.calls"] += 1
            if span.name == "harness.run_rate":
                busy += sum(k.t1 - k.t0 for k in kids if k.thread != span.thread)
        out["harness.run_rate.busy_s"] = busy
        for sampler in SAMPLERS:
            draws = self.counts[f"{sampler}.draws"]
            proposals = self.counts[f"{sampler}.proposals"]
            out[f"{sampler}.draws"] = draws
            out[f"{sampler}.proposals"] = proposals
            out[f"{sampler}.useful_ratio"] = draws / proposals if proposals else 0.0
        for key in ("numerics.law_of_sn.grid_points",
                    "numerics.law_of_sn.bytes_computed", "opalg.c_coeff.calls"):
            out[key] = self.counts[key]
        return out


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
