"""Transient hot path: chord-Newton with its charge replay, integration
order.

The hot path must be invisible in the waveforms: chord-Newton and the
charge replay at each converged step are approximations held below the
Newton/LTE tolerances, so on-vs-off runs agree to millivolts, and with
``chord=False`` the stepping is exactly the seed path (that stronger
bit-level claim is the golden equivalence test in ``test_engine.py``).
The replay itself is held to its linearization on generated BJT groups
in ``test_bjt_group.py``.
"""

import math

import numpy as np
import pytest

from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice import Circuit, solve_transient
from repro.spice.elements import (
    BJT,
    Capacitor,
    Pulse,
    Resistor,
    VoltageSource,
)
from repro.spice.engine import BJTGroup, compile_circuit
from repro.spice.transient import _collect_breakpoints


_RC_TAU = 1e-6  # r * c below


def _rc_decay_error(method, n_steps):
    """Global error at t = 2*tau of an n_steps fixed-step decay run."""
    r, c = 1e3, 1e-9
    stop = 2.0 * _RC_TAU
    h = stop / n_steps
    ckt = Circuit("rc_decay")
    ckt.add(Resistor("R1", ("a", "0"), r))
    ckt.add(Capacitor("C1", ("a", "0"), c))
    result = solve_transient(
        ckt, stop_time=stop, max_step=h, initial_step=h,
        x0=np.array([1.0]), method=method,
        # Huge LTE tolerance pins h at max_step: every accepted step is
        # exactly h, which is what an order measurement needs.
        lte_reltol=1e6, lte_abstol=1e6, chord=False,
    )
    exact = math.exp(-stop / _RC_TAU)
    return abs(result.voltage("a")[-1] - exact)


class TestIntegrationOrder:
    """Error decay on the analytic RC discharge: trap ~h^2, BE ~h^1."""

    def test_trap_is_second_order(self):
        err_h = _rc_decay_error("trap", 64)
        err_h2 = _rc_decay_error("trap", 128)
        ratio = err_h / err_h2
        # Halving h should shrink the error ~4x for a 2nd-order method.
        assert 3.0 < ratio < 5.5, f"trap error ratio {ratio:.2f}"

    def test_backward_euler_is_first_order(self):
        err_h = _rc_decay_error("be", 64)
        err_h2 = _rc_decay_error("be", 128)
        ratio = err_h / err_h2
        assert 1.6 < ratio < 2.6, f"BE error ratio {ratio:.2f}"

    def test_trap_beats_be_at_equal_step(self):
        assert _rc_decay_error("trap", 64) < (
            0.1 * _rc_decay_error("be", 64)
        )


def _ring(stages=5):
    generator = ModelParameterGenerator(reference=default_reference())
    return build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=stages),
    )


def _deviation(a, b, t_end):
    grid = np.linspace(0.0, t_end, 120)
    num_nodes = len(a.circuit.node_map)
    worst = 0.0
    for col in range(num_nodes):
        va = np.interp(grid, a.times, a.states[:, col])
        vb = np.interp(grid, b.times, b.states[:, col])
        worst = max(worst, float(np.max(np.abs(va - vb))))
    return worst


class TestHotPathParity:
    """Hot path on-vs-off waveform agreement on the Fig. 11 ring."""

    STOP = 0.4e-9
    MAX_STEP = 5e-12

    def test_on_vs_off_waveforms_agree(self):
        ref = solve_transient(
            _ring(), stop_time=self.STOP, max_step=self.MAX_STEP,
            chord=False,
        )
        hot = solve_transient(
            _ring(), stop_time=self.STOP, max_step=self.MAX_STEP,
        )
        assert _deviation(ref, hot, self.STOP) < 0.05

    def test_hot_counters_move_only_when_enabled(self):
        off = solve_transient(
            _ring(), stop_time=self.STOP, max_step=self.MAX_STEP,
            chord=False,
        ).stats
        assert off.bypassed_evals == 0
        assert off.jacobian_reuses == 0

        on = solve_transient(
            _ring(), stop_time=self.STOP, max_step=self.MAX_STEP,
        ).stats
        assert on.bypassed_evals > 0
        assert on.jacobian_reuses > 0
        assert on.factorizations < off.factorizations


class TestHotPathWork:
    """The exact work of two chord transients, counted at the commit
    before the step path wrote into engine-owned buffers: a change to
    the step's plumbing must leave every counter where it was."""

    @pytest.mark.parametrize("stages, stop, expected", [
        (5, 0.3e-9, dict(
            assembly="dense", steps=89, assemblies=203, factorizations=44,
            solves=113, bypassed_evals=1780, jacobian_reuses=69,
            refactorizations=2)),
        (25, 0.1e-9, dict(
            assembly="sparse", steps=30, assemblies=70, factorizations=20,
            solves=39, bypassed_evals=3000, jacobian_reuses=19,
            refactorizations=0)),
    ])
    def test_counters_are_pinned(self, stages, stop, expected):
        result = solve_transient(_ring(stages), stop_time=stop,
                                 max_step=5e-12)
        counters = {key: getattr(result.stats, key)
                    for key in expected if hasattr(result.stats, key)}
        counters["steps"] = len(result.times) - 1
        assert counters == expected


def _two_stage_circuit(hf_model):
    """Two independent common-emitter stages sharing only the rails."""
    ckt = Circuit("two_stage")
    ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
    for k in (1, 2):
        ckt.add(VoltageSource(f"VB{k}", (f"in{k}", "0"), dc=0.8))
        ckt.add(Resistor(f"RB{k}", (f"in{k}", f"b{k}"), 1e3))
        ckt.add(Resistor(f"RC{k}", ("vcc", f"c{k}"), 1e3))
        ckt.add(BJT(f"Q{k}", (f"c{k}", f"b{k}", "0"), hf_model))
    return ckt


class TestHistorySnapshot:
    """``dict(limits)`` is a snapshot of the BJT limiting history.

    ``solve_transient`` runs each step on such a copy and drops it when
    the step fails or is rejected, and ``solve_dc`` rolls back the same
    way; both only work if an evaluation replaces the group's history
    entry instead of writing into it.
    """

    @staticmethod
    def _arrays(ctx):
        return [np.array(getattr(ctx, attr), copy=True)
                for attr in ("i_vec", "g_mat", "q_vec", "c_mat")]

    def test_restored_snapshot_replays_the_evaluation(self, hf_model):
        ckt = _two_stage_circuit(hf_model)
        size = ckt.assign_indices()
        engine = compile_circuit(ckt)
        base_q2 = ckt.element("Q2")._internal_indices()[1]
        limits = {}
        x0 = np.zeros(size)
        engine.evaluate(x0, limits=limits)
        snapshot = dict(limits)
        [group] = [key for key in limits if isinstance(key, BJTGroup)]
        kept = snapshot[group].copy()

        # Q2 alone jumps far past its critical voltage, so pnjlim limits
        # it from the history.
        x1 = x0.copy()
        x1[base_q2] = 1.2
        first = self._arrays(engine.evaluate(x1, limits=limits))
        q2 = group.names.index("Q2")
        assert limits[group][0, q2] < 0.5  # limited, not the raw 1.2 V
        history = limits[group].copy()
        np.testing.assert_array_equal(snapshot[group], kept)

        # A rejected step: evaluate elsewhere, restore, evaluate again.
        x2 = x1.copy()
        x2[base_q2] = 1.6
        engine.evaluate(x2, limits=limits)
        np.testing.assert_array_equal(snapshot[group], kept)
        limits.clear()
        limits.update(snapshot)
        again = self._arrays(engine.evaluate(x1, limits=limits))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.view(np.uint64),
                                          b.view(np.uint64))
        np.testing.assert_array_equal(limits[group], history)


class TestTransientArgumentValidation:
    """Bad stepping arguments must fail fast, not spin forever."""

    def _rc(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("in", "out"), 1e3))
        ckt.add(Capacitor("C1", ("out", "0"), 1e-9))
        return ckt

    @pytest.mark.parametrize("kwargs", [
        {"max_step": 0.0},
        {"max_step": -1e-12},
        {"initial_step": 0.0},
        {"initial_step": -5e-13},
        {"lte_reltol": 0.0},
        {"lte_reltol": -1e-3},
    ])
    def test_nonpositive_stepping_args_rejected(self, kwargs):
        from repro.errors import AnalysisError
        with pytest.raises(AnalysisError, match="must be positive"):
            solve_transient(self._rc(), stop_time=1e-6, **kwargs)


class TestBreakpointMerging:
    """Coincident source corners must not force near-zero steps."""

    def test_close_breakpoints_merge(self):
        ckt = Circuit("two_pulses")
        ckt.add(VoltageSource(
            "V1", ("a", "0"),
            dc=Pulse(0.0, 1.0, delay=1e-9, rise=1e-10, width=5e-9,
                     period=1.0),
        ))
        ckt.add(VoltageSource(
            "V2", ("b", "0"),
            dc=Pulse(0.0, 1.0, delay=1e-9 + 1e-14, rise=1e-10,
                     width=5e-9, period=1.0),
        ))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        ckt.add(Resistor("R2", ("b", "0"), 1e3))
        min_sep = 1e-12
        merged = _collect_breakpoints(ckt, 10e-9, min_sep)
        assert merged, "expected breakpoints"
        gaps = np.diff(merged)
        assert np.all(gaps >= min_sep * (1 - 1e-9))

    def test_trailing_sliver_dropped(self):
        ckt = Circuit("edge_at_stop")
        stop = 10e-9
        ckt.add(VoltageSource(
            "V1", ("a", "0"),
            dc=Pulse(0.0, 1.0, delay=stop - 1e-14, rise=1e-10,
                     width=5e-9, period=1.0),
        ))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        merged = _collect_breakpoints(ckt, stop, 1e-12)
        assert all(p <= stop - 1e-12 for p in merged)
