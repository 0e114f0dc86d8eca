"""The blocked path's stacked arithmetic is the scalar path's, bit for bit.

Three stacked forms stand in for per-lane scalar calls:

* ``DenseLUSolver.solve_batched_exact`` factors every lane in place in
  one Fortran-ordered copy of the stack: the same ``getrf``/``getrs``
  calls on the same inputs as :meth:`DenseLUSolver.solve`, with a
  singular or non-finite lane NaN and left out of the counters;
* a dense engine's ``evaluate_stacked`` forms the base-stamp matvecs
  ``G0 @ x`` and ``C0 @ x`` as one ``np.matmul`` per stack (a gemv per
  lane, as the scalar ``np.matmul``), with the engine's stamps or
  per-lane :class:`~repro.spice.engine.LaneStamps`, signed zeros of a
  one-unknown circuit included;
* ``lane_stamps`` builds a BJT parameter block once per device list,
  and never serves it to other devices.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

import repro.spice.engine as engine_module
from repro.devices.temperature import celsius
from repro.spice import Circuit
from repro.spice.dcop import solve_dc
from repro.spice.elements import BJT, Capacitor, CurrentSource, Resistor
from repro.spice.engine import DenseLUSolver, LaneStamps, compile_circuit
from repro.spice.parser import parse_deck
from repro.spice.temperature import circuit_at_temperature

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"


def _systems(n: int, lanes: int, complex_: bool, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((lanes, n, n)) + n * np.eye(n)
    b = rng.standard_normal((lanes, n))
    if complex_:
        a = a + 1j * rng.standard_normal((lanes, n, n))
        b = b + 1j * rng.standard_normal((lanes, n))
    return a, b


@pytest.mark.parametrize("complex_", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("n", (8, 15, 20, 87))
def test_solve_batched_exact_is_per_lane_solve(n, complex_):
    systems, rhs = _systems(n, 6, complex_, seed=n)
    systems[2] = 0.0  # singular: getrf reports a zero pivot
    systems[4, 1, 3] = np.inf  # factors to non-finite values
    before = systems.copy()
    solver = DenseLUSolver()
    out = solver.solve_batched_exact(systems, rhs)
    np.testing.assert_array_equal(systems, before)  # the input is kept
    for k in (0, 1, 3, 5):
        np.testing.assert_array_equal(
            out[k], DenseLUSolver().solve(systems[k], rhs[k]))
    assert np.isnan(out[2]).all() and np.isnan(out[4]).all()
    assert solver.stats.factorizations == 4
    assert solver.stats.solves == 4


def _engine_and_states(deck: str, lanes: int, seed: int):
    circuit = parse_deck((DECKS / deck).read_text()).circuit
    engine = compile_circuit(circuit, "dense")
    x_op = solve_dc(circuit, engine=compile_circuit(circuit, "dense"))
    rng = np.random.default_rng(seed)
    return circuit, engine, x_op + rng.normal(0.0, 0.05, (lanes, x_op.size))


def _assert_lane_is_scalar(ctx, k, ref):
    np.testing.assert_array_equal(ctx.i[k], ref.i_vec)
    np.testing.assert_array_equal(ctx.q[k], ref.q_vec)
    np.testing.assert_array_equal(ctx.g[k], ref.g_mat)
    np.testing.assert_array_equal(ctx.c[k], ref.c_mat)


@pytest.mark.parametrize("source_scale", (0.0, 1.0))
def test_one_unknown_rc_keeps_its_signed_zeros(source_scale, hexed):
    """A 1 x 1 ``np.dot`` rounds ``c * -0.0`` to ``-0.0`` where the
    stacked gemv gives ``+0.0``: both paths form the matvec alike."""
    rc = Circuit("rc")
    rc.add(CurrentSource("I1", ("0", "n"), dc=1e-3))
    rc.add(Resistor("R1", ("n", "0"), 1e3))
    rc.add(Capacitor("C1", ("n", "0"), 1e-12))
    engine = compile_circuit(rc, "dense")
    assert engine.size == 1
    x_stack = np.array([[0.0], [-0.0]])
    ctx = engine.evaluate_stacked(x_stack, source_scale=source_scale,
                                  with_c=True)
    for k, x in enumerate(x_stack):
        ref = engine.evaluate(x, limits={}, source_scale=source_scale)
        for lane, scalar in ((ctx.i[k], ref.i_vec), (ctx.q[k], ref.q_vec),
                             (ctx.g[k], ref.g_mat), (ctx.c[k], ref.c_mat)):
            assert hexed(np.asarray(lane)) == hexed(np.asarray(scalar))


#: (deck, lanes): the 87-unknown ring stops at 27 lanes; at 1000 its
#: stacked G and C would take 62 MB each.
STACKS = [("ce_stage.cir", lanes) for lanes in (1, 27, 1000)] + [
    ("ring_oscillator.cir", lanes) for lanes in (1, 27)]


@pytest.mark.parametrize("deck, lanes", STACKS)
def test_dense_stacked_evaluate_is_per_lane_evaluate(deck, lanes):
    _, engine, x_stack = _engine_and_states(deck, lanes, seed=lanes)
    history = engine.new_history(lanes)
    ctx = engine.evaluate_stacked(x_stack, history=history, with_c=True)
    for k in range(lanes):
        _assert_lane_is_scalar(ctx, k, engine.evaluate(x_stack[k],
                                                       limits={}))


@pytest.mark.parametrize("deck, lanes", STACKS)
def test_dense_stacked_lane_stamps_are_per_variant_evaluate(deck, lanes):
    circuit, engine, x_stack = _engine_and_states(deck, lanes, seed=lanes)
    variants = [circuit_at_temperature(circuit, celsius(t))
                for t in (-20.0, 27.0, 85.0)]
    engines = [compile_circuit(v, "dense") for v in variants]
    stamps = [engine.lane_stamps(v) for v in variants]
    pick = [k % len(variants) for k in range(lanes)]
    ctx = engine.evaluate_stacked(
        x_stack, history=engine.new_history(lanes), with_c=True,
        lanes=LaneStamps.concat([stamps[j] for j in pick]))
    for k, j in enumerate(pick):
        _assert_lane_is_scalar(ctx, k, engines[j].evaluate(x_stack[k],
                                                           limits={}))


def _bjts(circuit) -> list:
    return [e for e in circuit if type(e) is BJT]


@pytest.fixture
def column_calls(monkeypatch):
    """The device lists ``_bjt_columns`` builds blocks for."""
    calls = []
    original = engine_module._bjt_columns

    def spy(devices, size):
        calls.append(list(devices))
        return original(devices, size)

    monkeypatch.setattr(engine_module, "_bjt_columns", spy)
    return calls


def test_variants_sharing_devices_share_one_block(column_calls):
    circuit = parse_deck((DECKS / "ce_stage.cir").read_text()).circuit
    engine = compile_circuit(circuit)
    hot = circuit_at_temperature(circuit, celsius(85.0))
    cold = circuit_at_temperature(circuit, celsius(-20.0))
    column_calls.clear()
    first = engine.lane_stamps(hot)
    # Another temperature: other devices, its own block.
    other = engine.lane_stamps(cold)
    assert column_calls == [_bjts(hot), _bjts(cold)]
    assert not np.array_equal(first.params, other.params)
    # A circuit sharing the hot BJT objects reuses their block.
    again = engine.lane_stamps(hot)
    assert len(column_calls) == 2
    assert again.params is first.params
    assert not first.params.flags.writeable


def test_a_fresh_circuit_never_reuses_a_dropped_circuit_block(column_calls):
    """Temperature variants built and dropped one after another: their
    BJTs may reuse a dropped variant's object ids, yet each lane gets the
    block of its own devices (past the cache bound too)."""
    circuit = parse_deck((DECKS / "ce_stage.cir").read_text()).circuit
    engine = compile_circuit(circuit)
    levels = np.linspace(-40.0, 125.0, 2 * engine_module._BJT_BLOCKS_KEPT)
    for level in levels:
        variant = circuit_at_temperature(circuit, celsius(float(level)))
        column_calls.clear()
        params = engine.lane_stamps(variant).params
        assert column_calls == [_bjts(variant)]
        _, _, want = engine_module._bjt_columns(_bjts(variant), engine.size)
        np.testing.assert_array_equal(params[:, 0, :], want)
        del variant, params
        gc.collect()
    assert len(engine._bjt_blocks) == engine_module._BJT_BLOCKS_KEPT
