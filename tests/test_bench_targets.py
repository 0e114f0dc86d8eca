"""The repo benchmark's trace targets stay wired to the program.

``perfbench/layers.py`` names the calls the benchmark's tracer wraps.
The tracer silently skips a method that moved to a shared base class
(it patches only classes whose own ``__dict__`` defines the method), and
a class or function that no longer exists crashes the traced run.  The
sweep-dispatch choices the benchmark freezes are keyed by the type name
``run_sweep`` receives.  These tests read the benchmark's modules and
its frozen choices without changing them.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DECK = (PERFBENCH.parent / "examples" / "decks" / "ce_stage.cir").read_text()


@pytest.fixture(scope="module")
def bench():
    """``(layers, tracer)`` imported from the benchmark directory, which
    is on the path only while they load."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("layers"),
               importlib.import_module("tracer"))
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "tracer", "common"):
            sys.modules.pop(name, None)


def test_every_target_patches_something(bench):
    layers, tracer = bench
    probe = tracer.Tracer(spans=False)
    unwired = []
    for target in layers.TARGETS:
        probe.install([target])
        if not probe.patched:
            unwired.append(target.where)
        probe.uninstall()
    assert unwired == []


def test_device_layer_is_never_nested(bench):
    """The benchmark counts ``device.evals`` per ``BJTGroup.load`` (n)
    and per ``BJTGroup.load_stacked`` (n per lane) call.  Were one of the
    two to call the other, the count would double and the device layer's
    self time would split across nested spans.  A diode is a device of
    the group, so its time is the device layer's too, not assembly's."""
    from repro.geometry import ModelParameterGenerator, default_reference
    from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
    from repro.spice import compile_circuit, parse_deck
    from repro.spice.elements import BJT, Diode

    layers, tracer = bench
    generator = ModelParameterGenerator(reference=default_reference())
    ring = build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=5),
    )
    clamped = parse_deck(DECK.replace(
        ".OP", "DCL c 0 DCLAMP\nDB b 0 DCLAMP\n"
        ".MODEL DCLAMP D(IS=1e-15 RS=5 CJO=2p TT=1n)\n.OP", 1)).circuit
    for circuit, expected in ((ring, (20, 0)), (clamped, (1, 2))):
        engine = compile_circuit(circuit)
        kinds = tuple(sum(type(element) is kind for element in circuit)
                      for kind in (BJT, Diode))
        assert kinds == expected
        devices = sum(kinds)
        lanes = 3
        x = np.full(engine.size, 0.1)
        probe = tracer.Tracer()
        probe.install(layers.TARGETS)
        try:
            engine.evaluate(x)
            engine.evaluate_stacked(np.tile(x, (lanes, 1)))
        finally:
            probe.uninstall()
        assert probe.counters["device.evals"] == devices + devices * lanes
        spans = [span for span in probe.spans
                 if span[2] == "spice.engine.device"]
        assert len(spans) == 2
        assert probe.layers["spice.engine.device"][0] == 2


def test_sweep_type_names_match_the_frozen_choices(bench):
    from repro.celldb import seed_database
    import repro.sweep as sweep
    from repro.sweep import (
        BlockedACSweep,
        BlockedDCSweep,
        ac_gain_db,
        node_voltage,
    )
    from repro.verify import qualify_cell

    _, tracer = bench
    choices = json.loads((PERFBENCH / "reference" / "choices.json")
                         .read_text())
    recorded = {entry.split(":")[1]
                for entries in choices["workloads"].values()
                for entry in entries if entry.startswith("sweep:")}
    names = []

    def seen(tracer_, call, result, pre):
        fn = call.args[0]
        # The name the benchmark's run_sweep hook records.
        names.append(fn.func.__name__ if hasattr(fn, "func")
                     else type(fn).__name__)

    probe = tracer.Tracer(spans=False)
    probe.install([tracer.Target("repro.sweep.orchestrator:run_sweep",
                                 None, after=seen)])
    try:
        # Looked up after install, as the workloads do.
        sweep.run_sweep(BlockedDCSweep(DECK, measure=node_voltage("c")),
                        [{"VB": 0.8}], executor="serial")
        sweep.run_sweep(BlockedACSweep(DECK, measure=ac_gain_db("c"),
                                       frequencies=[1e6]),
                        [{"VB": 0.8}], executor="serial")
        cells = {c.name: c for c in seed_database().cells()}
        qualify_cell(cells["PHASE90-IF"], executor="serial")
    finally:
        probe.uninstall()
    assert names == ["BlockedDCSweep", "BlockedACSweep", "CornerEvaluator"]
    assert set(names) <= recorded
