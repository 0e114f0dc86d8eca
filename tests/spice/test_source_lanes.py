"""DC source levels are lane values, and Newton accepts no limited step.

A lane carries its DC source levels in its source vector
(``LaneStamps.src``), so:

* a circuit that differs from the engine's in element values, device
  models and DC source levels is a lane of it, whatever its source
  objects: Table 1's six rings are lanes of ring 0's engine, each
  evaluating and solving bit for bit as its own compiled engine;
* a source must be DC in both circuits or carry an equal waveform,
  since the engine reads any other waveform from its own objects;
* ``at_levels`` lanes share their variant's one lane of values.

Newton counts a step as converged only when the evaluation it was
solved from limited no junction (SPICE's rule).  Without it a cold
solve of ``ce_stage.cir`` at VB = 0.9 V stopped on pnjlim's small step
with the B-C junction forward-biased by volts and a KCL residual near
1e20 A.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.geometry import (
    TABLE1_SHAPES,
    ModelParameterGenerator,
    default_reference,
)
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice import solve_dc
from repro.spice.dcop import solve_dc_batched
from repro.spice.elements import (
    CurrentSource,
    Diode,
    DiodeModel,
    Pulse,
    Resistor,
    VoltageSource,
)
from repro.spice.engine import compile_circuit
from repro.spice.mna import LoadContext
from repro.spice.netlist import Circuit
from repro.spice.parser import parse_deck

DECK = (Path(__file__).resolve().parents[2] / "examples" / "decks"
        / "ce_stage.cir").read_text()


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def rings():
    """Table 1's rings in its shape order, each built on its own."""
    generator = ModelParameterGenerator(reference=default_reference())
    follower = generator.generate("N1.2-6D")
    return [build_ring_oscillator(generator.generate(shape),
                                  follower_model=follower,
                                  spec=RingOscillatorSpec())
            for shape in TABLE1_SHAPES]


def test_table1_rings_are_lanes_of_one_engine(rings):
    engine = compile_circuit(rings[0])
    x = 0.1 * np.random.default_rng(1).standard_normal(engine.size)
    for ring in rings[1:]:
        assert not any(a is b for a, b in zip(ring, rings[0]))
        lane = engine.lane_stamps(ring)
        own = compile_circuit(ring)
        for time in (None, 50e-12):  # before and inside the kick
            got = engine.evaluate(x, time=time, limits={}, stamps=lane)
            got = [np.array(a) for a in (got.i_vec, got.g_mat, got.q_vec,
                                         got.c_mat)]
            want = own.evaluate(x, time=time, limits={})
            for a, b in zip(got, (want.i_vec, want.g_mat, want.q_vec,
                                  want.c_mat)):
                np.testing.assert_array_equal(_bits(a), _bits(b))
        np.testing.assert_array_equal(
            _bits(solve_dc(rings[0], engine=engine, stamps=lane)),
            _bits(solve_dc(ring, engine=own)))
    # A ring kicked by another pulse is not a lane: the engine reads the
    # kick from its own source object.
    kicked = build_ring_oscillator(rings[1].element("QS0A").model,
                                   rings[1].element("QF0P").model)
    assert len(engine.lane_stamps(kicked)) == 1
    kicked.element("IKICK").waveform.width *= 2.0
    with pytest.raises(AnalysisError, match="waveform"):
        engine.lane_stamps(kicked)


def _divider(source) -> Circuit:
    circuit = Circuit("divider")
    circuit.add(source)
    circuit.add(Resistor("R1", ("in", "out"), 1e3))
    circuit.add(Resistor("R2", ("out", "0"), 3e3))
    return circuit


def _pulse(width):
    return Pulse(0.0, 1.0, delay=1e-9, width=width)


def test_sources_match_by_structure():
    engine = compile_circuit(_divider(VoltageSource("V1", ("in", "0"),
                                                    dc=_pulse(5e-9))))
    # Another object with an equal waveform is a lane ...
    lane = engine.lane_stamps(_divider(VoltageSource(
        "V1", ("in", "0"), dc=_pulse(5e-9))))
    assert len(lane) == 1
    # ... another waveform, or a DC level where the engine reads a
    # waveform, is not.
    for source in (VoltageSource("V1", ("in", "0"), dc=_pulse(6e-9)),
                   VoltageSource("V1", ("in", "0"), dc=0.0)):
        with pytest.raises(AnalysisError, match="waveform"):
            engine.lane_stamps(_divider(source))
    # A DC source's level is the lane's own.
    dc = compile_circuit(_divider(VoltageSource("V1", ("in", "0"), dc=1.0)))
    written = _divider(VoltageSource("V1", ("in", "0"), dc=4.0))
    lane = dc.lane_stamps(written)
    np.testing.assert_array_equal(
        _bits(lane.src), _bits(compile_circuit(written).stamps.src))
    np.testing.assert_array_equal(
        _bits(dc.at_levels(dc.stamps, dc.circuit, [{"v1": 4.0}]).src),
        _bits(lane.src))
    with pytest.raises(AnalysisError, match="DC source levels only"):
        engine.at_levels(engine.stamps, engine.circuit, [{"V1": 1.0}])


def test_level_lanes_share_their_variants_values():
    circuit = parse_deck(DECK).circuit
    engine = compile_circuit(circuit)
    lanes = engine.at_levels(engine.stamps, circuit,
                             [{"VB": 0.7}, {}, {"VB": 0.8, "VCC": 4.0}])
    assert len(lanes) == 3 and len(lanes.g0) == 1
    own = engine.stamps
    assert lanes.g0 is own.g0 and lanes.c0 is own.c0
    assert lanes.params is own.params and lanes.csr is own.csr
    np.testing.assert_array_equal(_bits(lanes.src[1]), _bits(own.src[0]))
    picked = lanes.take([2, 0])
    assert picked.g0 is own.g0 and len(picked) == 2
    np.testing.assert_array_equal(_bits(picked.src), _bits(lanes.src[[2, 0]]))


def test_every_residual_adds_its_source_vector():
    """A lane's source vector is added with or without a DC source row,
    as the compile's constant residual vector was: the -0.0 that
    ``np.dot`` leaves in a one-unknown ``G0 @ x`` reads +0.0 on the
    scalar path, as on the stacked one."""
    circuit = Circuit("load")
    circuit.add(CurrentSource("I1", ("0", "a"), dc=Pulse(0.0, 1.0)))
    circuit.add(Resistor("R1", ("a", "0"), 1e3))
    engine = compile_circuit(circuit)
    x = np.array([-0.0])
    assert np.signbit(np.dot(engine.stamps.g0[0], x))
    scalar = engine.evaluate(x, limits={}).i_vec
    stacked = engine.evaluate_stacked(x[None]).i[0]
    assert not np.signbit(scalar[0])
    np.testing.assert_array_equal(_bits(scalar), _bits(stacked))


# -- the Newton limiting rule -------------------------------------------------


def _written(level: float) -> str:
    deck = DECK.replace("VB b 0 DC 0.8", f"VB b 0 DC {level!r}")
    assert deck != DECK or level == 0.8
    return deck


def _residual(circuit, x) -> float:
    return float(np.max(np.abs(
        compile_circuit(circuit).evaluate(x, limits={}).i_vec)))


def test_cold_solves_are_operating_points_on_both_paths():
    levels = [round(0.1 * k, 1) for k in range(13)]
    circuit = parse_deck(DECK).circuit
    engine = compile_circuit(circuit)
    lanes = engine.at_levels(engine.stamps, circuit,
                             [{"VB": level} for level in levels])
    blocked, errors = solve_dc_batched(circuit, lanes, engine=engine)
    assert errors == [None] * len(levels)
    for k, (level, lane) in enumerate(zip(levels, blocked)):
        written = parse_deck(_written(level)).circuit
        scalar = solve_dc(written)
        np.testing.assert_array_equal(_bits(lane), _bits(scalar))
        np.testing.assert_array_equal(_bits(lane), _bits(solve_dc(
            circuit, engine=engine, stamps=lanes.take([k]))))
        assert _residual(written, scalar) < 1e-6
        if level == 0.9:
            assert scalar[written.node_index("c")] == pytest.approx(
                0.33076, abs=1e-4)


def test_a_limiting_diode_flags_its_evaluation():
    circuit = Circuit("clamp")
    circuit.add(VoltageSource("V1", ("a", "0"), dc=5.0))
    circuit.add(Diode("D1", ("a", "0"), DiodeModel(name="D")))
    size = circuit.assign_indices()
    engine = compile_circuit(circuit)
    x = np.zeros(size)
    x[circuit.node_index("a")] = 5.0
    # History far below (the device group's, one diode column): pnjlim
    # limits the jump.
    limits = {engine._bjt_group: np.zeros((2, 1))}
    assert engine.evaluate(x, limits=limits).limited
    assert engine.evaluate(np.zeros(size), limits={}).limited is False
    ctx = LoadContext(size, x, None, 1e-12)
    ctx.limits = {"D1": 0.0}
    circuit.element("D1").load(ctx)
    assert ctx.limited
