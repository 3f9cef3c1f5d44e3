"""The benchmark's tracer patches names that exist in the library.

``perfbench/tracing.py`` wraps library functions and methods by name;
``Tracer.install`` raises when one of them is gone.  This installs it,
records a tiny traced IBP battery, and always uninstalls it.
"""

import importlib.util
import os

import numpy as np

import edgeworth  # noqa: F401  (loads every module the tracer patches)
from edgeworth import malliavin, moments, splitting

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_installs_records_and_restores():
    originals = (splitting.SplitRep.sample_v, splitting.psi_loc, malliavin.localizer)
    rep = splitting.split(moments.make_distribution("uniform"))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        malliavin.ibp_battery(rep, 4, malliavin.default_test_functions(), 500,
                              np.random.default_rng(3))
        tracer.active = False
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert (splitting.SplitRep.sample_v, splitting.psi_loc, malliavin.localizer) == originals
    assert layers["malliavin.ibp_battery.calls"] == 1
    # one localizer pass per battery chunk
    assert layers["malliavin.localizer.calls"] == layers["malliavin.ibp_battery.calls"]
    assert layers["splitting.sample_v.calls"] == layers["splitting.sample_w.calls"] == 1
    assert 0 < layers["splitting.sample_v.draws"] <= layers["splitting.sample_v.proposals"]
