"""The layer wrappers: where they patch, what they restore, and that
their self times add up to the wall clock."""

from __future__ import annotations

import sys
import threading
import types

import pytest

import layers
from common import median, tail
from tracer import Target, Tracer

LAYERED = '''
clock = None

def inner(step):
    clock.t += step

def outer():
    clock.t += 1.0
    inner(2.0)
    clock.t += 3.0
    inner(4.0)

def recurse(depth):
    clock.t += 1.0
    if depth:
        recurse(depth - 1)
'''


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def fake_modules():
    """``fake_layered`` plus ``fake_caller``, which binds ``inner`` at
    import the way ``repro.spice.transient`` binds ``newton_solve``."""
    layered = types.ModuleType("fake_layered")
    exec(LAYERED, layered.__dict__)
    sys.modules["fake_layered"] = layered
    caller = types.ModuleType("fake_caller")
    exec("from fake_layered import inner\n"
         "def call(step):\n    inner(step)\n", caller.__dict__)
    sys.modules["fake_caller"] = caller
    clock = Clock()
    layered.clock = clock
    yield layered, caller, clock
    del sys.modules["fake_layered"], sys.modules["fake_caller"]


def _self_seconds(tracer) -> float:
    return sum(record[2] for record in tracer.layers.values())


TARGETS = [Target("fake_layered:outer", "outer"),
           Target("fake_layered:inner", "inner"),
           Target("fake_layered:recurse", "recurse")]


def test_wrappers_patch_bound_names_and_restore_originals(fake_modules):
    layered, caller, _ = fake_modules
    originals = (layered.inner, layered.outer, caller.inner)
    tracer = Tracer(clock=layered.clock)
    tracer.install(TARGETS)
    try:
        assert layered.inner is not originals[0]
        assert caller.inner is layered.inner  # the import-time binding
        caller.call(1.0)
        assert tracer.layers["inner"][0] == 1
    finally:
        tracer.uninstall()
    assert (layered.inner, layered.outer, caller.inner) == originals
    assert tracer.patched == []


def test_self_times_plus_other_add_up_to_the_wall(fake_modules):
    layered, _, clock = fake_modules
    tracer = Tracer(clock=clock)
    tracer.install(TARGETS)
    try:
        start = clock()
        layered.outer()
        clock.t += 0.5  # work outside every span
        wall = clock() - start
    finally:
        tracer.uninstall()
    assert tracer.layers["outer"] == [1, 10.0, 4.0]
    assert tracer.layers["inner"] == [2, 6.0, 6.0]
    metrics = layers.layer_metrics(tracer, wall)
    assert metrics["trace.other_s"] == pytest.approx(0.5)
    assert _self_seconds(tracer) + metrics["trace.other_s"] == \
        pytest.approx(wall)


def test_a_layer_reentered_from_itself_counts_one_call(fake_modules):
    layered, _, clock = fake_modules
    tracer = Tracer(clock=clock)
    tracer.install(TARGETS)
    try:
        layered.recurse(2)
    finally:
        tracer.uninstall()
    calls, inclusive, self_s = tracer.layers["recurse"]
    assert (calls, inclusive, self_s) == (1, 3.0, 3.0)
    assert tracer.span_count == 3


def test_counters_lose_no_increments_under_threads():
    tracer = Tracer()
    threads = [threading.Thread(
        target=lambda: [tracer.count("n") for _ in range(5000)])
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tracer.counters["n"] == 8 * 5000


def test_program_wrappers_restore_every_original():
    import repro.service  # noqa: F401  (binds run_sweep at import)
    import repro.spice.dcop as dcop
    import repro.spice.transient as transient
    import repro.verify  # noqa: F401
    from repro.spice.engine import CompiledCircuit, DenseLUSolver

    newton = dcop.newton_solve
    init = CompiledCircuit.__dict__["__init__"]
    solve = DenseLUSolver.__dict__["solve"]
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    patched = tracer.patched
    try:
        assert transient.newton_solve is not newton
        assert dcop.newton_solve is transient.newton_solve
        assert CompiledCircuit.__dict__["__init__"] is not init
        assert DenseLUSolver.__dict__["solve"] is not solve
    finally:
        tracer.uninstall()
    assert transient.newton_solve is newton and dcop.newton_solve is newton
    assert CompiledCircuit.__dict__["__init__"] is init
    assert DenseLUSolver.__dict__["solve"] is solve
    for owner, name, original in patched:
        assert getattr(owner, name) is original, (owner, name)


def test_traced_transient_reaches_every_engine_layer():
    from repro.geometry import ModelParameterGenerator, default_reference
    from repro.rfsystems import build_ring_oscillator
    from repro.spice import Simulator

    generator = ModelParameterGenerator(reference=default_reference())
    circuit = build_ring_oscillator(generator.generate("N1.2-12D"),
                                    generator.generate("N1.2-6D"))
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        start = tracer.clock()
        Simulator(circuit).transient(stop_time=0.2e-9, max_step=10e-12)
        wall = tracer.clock() - start
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, wall)
    for name in ("spice.engine.compile.calls", "spice.engine.device.calls",
                 "spice.engine.assemble.calls", "spice.engine.linsolve.calls",
                 "spice.dcop.calls", "spice.dcop.iterations",
                 "spice.transient.accepted_steps"):
        assert metrics[name] > 0, name
    # Newton runs inside the transient, through its import-time binding.
    assert metrics["spice.dcop.calls"] > 10
    assert 0.0 <= metrics["trace.other_s"] < 0.05 * wall
    assert _self_seconds(tracer) + metrics["trace.other_s"] == \
        pytest.approx(wall)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert tail(values) == (90.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert median(values) == 50.5
