"""Transient-analysis tests against closed-form time responses."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import (Circuit, Simulator, Tolerances, parse_deck,
                         solve_dc, solve_transient)
from repro.spice.elements import (
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Inductor,
    PWL,
    Pulse,
    Resistor,
    Sine,
    VoltageSource,
)

DECK_DIR = Path(__file__).resolve().parents[2] / "examples" / "decks"


def step_rc(r=1e3, c=1e-6, v=1.0):
    ckt = Circuit("rc_step")
    ckt.add(VoltageSource("V1", ("in", "0"),
                          dc=Pulse(0.0, v, delay=0.0, rise=1e-9,
                                   width=1.0, period=10.0)))
    ckt.add(Resistor("R1", ("in", "out"), r))
    ckt.add(Capacitor("C1", ("out", "0"), c))
    return ckt


class TestRCStep:
    def test_exponential_charging(self):
        ckt = step_rc()
        tau = 1e-3
        result = solve_transient(ckt, stop_time=5 * tau, max_step=tau / 50)
        for multiple in (0.5, 1.0, 2.0, 3.0):
            expected = 1.0 - math.exp(-multiple)
            assert result.sample("out", multiple * tau) == pytest.approx(
                expected, abs=5e-3
            )

    def test_backward_euler_also_converges(self):
        ckt = step_rc()
        tau = 1e-3
        result = solve_transient(ckt, stop_time=3 * tau, max_step=tau / 100,
                                 method="be")
        assert result.sample("out", tau) == pytest.approx(
            1 - math.exp(-1), abs=1e-2
        )

    def test_trajectory_is_trimmed_in_place(self):
        """A run long enough to double its 256-row buffers twice hands
        back the buffers themselves, trimmed to the accepted points."""
        tau = 1e-3
        result = solve_transient(step_rc(), stop_time=5 * tau,
                                 max_step=tau / 200)
        count = len(result.times)
        assert count > 512
        assert result.states.shape == (count, 3)
        for array in (result.times, result.states):
            assert array.flags.owndata and array.base is None
        assert np.all(np.diff(result.times) > 0.0)
        assert result.times[-1] == pytest.approx(5 * tau)
        assert result.sample("out", tau) == pytest.approx(
            1.0 - math.exp(-1.0), abs=5e-3)

    def test_trajectory_under_a_profiler_matches_untraced(self):
        """A profile hook holds the transient frame's locals, so the
        in-place trim refuses; the run then copies the used rows and
        returns the untraced trajectory bit for bit."""
        deck = (DECK_DIR / "ring_oscillator.cir").read_text()

        def run():
            return solve_transient(parse_deck(deck).circuit,
                                   stop_time=1e-10, max_step=1e-12)

        untraced = run()
        previous = sys.getprofile()
        sys.setprofile(lambda frame, event, arg: None)
        try:
            profiled = run()
        finally:
            sys.setprofile(previous)
        np.testing.assert_array_equal(profiled.times, untraced.times)
        np.testing.assert_array_equal(profiled.states, untraced.states)

    def test_final_value(self):
        ckt = step_rc(v=3.3)
        result = solve_transient(ckt, stop_time=10e-3, max_step=1e-4)
        assert result.voltage("out")[-1] == pytest.approx(3.3, rel=1e-3)


class TestLCOscillation:
    def test_lc_ringing_frequency_and_energy(self):
        """An LC tank started from a charged capacitor: period and
        amplitude conservation over several cycles."""
        l, c = 1e-6, 1e-9
        ckt = Circuit("lc")
        ckt.add(Capacitor("C1", ("t", "0"), c))
        ckt.add(Inductor("L1", ("t", "0"), l))
        # weak parallel loss to keep the matrix well-posed
        ckt.add(Resistor("RP", ("t", "0"), 1e9))
        ckt.assign_indices()
        x0 = np.zeros(ckt.num_unknowns)
        x0[ckt.node_index("t")] = 1.0
        f0 = 1 / (2 * math.pi * math.sqrt(l * c))
        period = 1 / f0
        result = solve_transient(ckt, stop_time=6 * period,
                                 max_step=period / 200, x0=x0)
        v = result.voltage("t")
        t = result.times
        # measure frequency by rising zero crossings
        crossings = []
        for i in range(1, len(t)):
            if v[i - 1] < 0 <= v[i]:
                frac = -v[i - 1] / (v[i] - v[i - 1])
                crossings.append(t[i - 1] + frac * (t[i] - t[i - 1]))
        measured = 1 / np.mean(np.diff(crossings))
        assert measured == pytest.approx(f0, rel=2e-3)
        # trapezoidal rule conserves amplitude well
        late = np.abs(v[t > 4 * period])
        assert late.max() == pytest.approx(1.0, abs=0.05)


class TestRLStep:
    def test_inductor_current_rise(self):
        r, l = 100.0, 1e-3
        ckt = Circuit("rl")
        ckt.add(VoltageSource("V1", ("in", "0"),
                              dc=Pulse(0.0, 1.0, rise=1e-9, width=1.0)))
        ckt.add(Resistor("R1", ("in", "a"), r))
        ckt.add(Inductor("L1", ("a", "0"), l))
        tau = l / r
        result = solve_transient(ckt, stop_time=5 * tau, max_step=tau / 50)
        i_final = 1.0 / r
        i_l = result.branch_current("L1")
        t = result.times
        idx = np.searchsorted(t, tau)
        assert i_l[idx] == pytest.approx(i_final * (1 - math.exp(-1)),
                                         rel=0.02)
        assert i_l[-1] == pytest.approx(i_final * (1 - math.exp(-5)),
                                        rel=2e-3)


class TestWaveforms:
    def test_sine_source(self):
        ckt = Circuit("sine")
        ckt.add(VoltageSource("V1", ("a", "0"),
                              dc=Sine(offset=0.5, amplitude=1.0,
                                      frequency=1e3)))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_transient(ckt, stop_time=2e-3, max_step=5e-6)
        v = result.voltage("a")
        assert v.max() == pytest.approx(1.5, abs=0.01)
        assert v.min() == pytest.approx(-0.5, abs=0.01)
        # value at a quarter period
        assert result.sample("a", 0.25e-3) == pytest.approx(1.5, abs=0.01)

    def test_pwl_source(self):
        ckt = Circuit("pwl")
        ckt.add(VoltageSource("V1", ("a", "0"),
                              dc=PWL([(0.0, 0.0), (1e-3, 1.0),
                                      (2e-3, 1.0), (3e-3, -1.0)])))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_transient(ckt, stop_time=3e-3, max_step=2e-5)
        assert result.sample("a", 0.5e-3) == pytest.approx(0.5, abs=0.01)
        assert result.sample("a", 1.5e-3) == pytest.approx(1.0, abs=0.01)
        assert result.sample("a", 2.5e-3) == pytest.approx(0.0, abs=0.02)

    def test_pulse_train_period(self):
        ckt = Circuit("pulse")
        ckt.add(VoltageSource("V1", ("a", "0"),
                              dc=Pulse(0.0, 1.0, delay=0.0, rise=1e-6,
                                       fall=1e-6, width=48e-6,
                                       period=100e-6)))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_transient(ckt, stop_time=250e-6, max_step=2e-6)
        assert result.sample("a", 25e-6) == pytest.approx(1.0, abs=0.01)
        assert result.sample("a", 75e-6) == pytest.approx(0.0, abs=0.01)
        assert result.sample("a", 125e-6) == pytest.approx(1.0, abs=0.01)

    def test_breakpoints_are_hit(self):
        ckt = Circuit("bp")
        ckt.add(VoltageSource("V1", ("a", "0"),
                              dc=Pulse(0.0, 1.0, delay=100e-6, rise=1e-6,
                                       width=1.0)))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_transient(ckt, stop_time=200e-6, max_step=50e-6)
        # a time point lands exactly on the pulse corner
        assert np.min(np.abs(result.times - 100e-6)) < 1e-12


class TestNonlinearTransient:
    def test_diode_rectifier(self):
        ckt = Circuit("rect")
        ckt.add(VoltageSource("V1", ("in", "0"),
                              dc=Sine(0.0, 5.0, 1e3)))
        ckt.add(Diode("D1", ("in", "out"), DiodeModel(IS=1e-14)))
        ckt.add(Resistor("RL", ("out", "0"), 1e3))
        ckt.add(Capacitor("CL", ("out", "0"), 10e-6))
        result = solve_transient(ckt, stop_time=5e-3, max_step=5e-6)
        v = result.voltage("out")
        t = result.times
        late = v[t > 2e-3]
        # peak-detected close to the peak minus a diode drop, small ripple
        assert 3.5 < late.mean() < 4.6
        assert late.max() - late.min() < 0.8

    def test_bjt_switching(self, hf_model):
        """An inverter driven by a pulse: output swings rail to low."""
        ckt = Circuit("inv")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VIN", ("in", "0"),
                              dc=Pulse(0.0, 1.2, delay=2e-9, rise=0.2e-9,
                                       width=10e-9, period=1.0)))
        ckt.add(Resistor("RB", ("in", "b"), 1e3))
        ckt.add(Resistor("RC", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))
        result = solve_transient(ckt, stop_time=10e-9, max_step=20e-12)
        v = result.voltage("c")
        assert v[0] == pytest.approx(5.0, abs=0.01)  # off before the pulse
        assert result.sample("c", 9e-9) < 1.0  # switched on

    def test_initial_bias_takes_the_tolerances(self):
        """The t=0 operating point is solved under the transient's own
        tolerances, bit for bit, like every later step."""
        deck = (DECK_DIR / "ce_stage.cir").read_text()
        circuit = parse_deck(deck).circuit
        tight = Tolerances(reltol=1e-6)
        result = Simulator(circuit, tolerances=tight).transient(
            stop_time=1e-9)
        bias = solve_dc(circuit, tolerances=tight)
        assert result.states[0].tobytes() == bias.tobytes()
        assert bias.tobytes() != solve_dc(circuit).tobytes()


class TestTransientValidation:
    def test_rejects_nonpositive_stop(self):
        ckt = step_rc()
        with pytest.raises(AnalysisError):
            solve_transient(ckt, stop_time=0.0)

    def test_rejects_unknown_method(self):
        ckt = step_rc()
        with pytest.raises(AnalysisError):
            solve_transient(ckt, stop_time=1e-3, method="gear9")

    def test_result_accessors(self):
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-3, max_step=1e-4)
        assert len(result.times) == len(result.voltage("out"))
        assert result.voltage("0").max() == 0.0
        diff = result.differential("in", "out")
        assert diff.shape == result.times.shape


class TestBreakpointHandling:
    """Steps must land exactly on waveform corners, and the predictor
    history must restart there (no polynomial extrapolation across a
    derivative discontinuity)."""

    def test_pulse_steps_land_on_breakpoints(self):
        ckt = Circuit("pulse_bp")
        pulse = Pulse(0.0, 1.0, delay=2e-6, rise=1e-7, width=3e-6,
                      period=100.0)
        ckt.add(VoltageSource("V1", ("in", "0"), dc=pulse))
        ckt.add(Resistor("R1", ("in", "out"), 1e3))
        ckt.add(Capacitor("C1", ("out", "0"), 1e-9))
        stop = 1e-5
        result = solve_transient(ckt, stop_time=stop, max_step=stop / 20)
        for corner in pulse.breakpoints(stop):
            distances = np.abs(result.times - corner)
            assert distances.min() < 1e-12 * stop, (
                f"no time point lands on breakpoint {corner}"
            )

    def test_pwl_steps_land_on_breakpoints(self):
        ckt = Circuit("pwl_bp")
        pwl = PWL([(0.0, 0.0), (1e-6, 1.0), (2.5e-6, -0.5), (6e-6, 0.75)])
        ckt.add(VoltageSource("V1", ("in", "0"), dc=pwl))
        ckt.add(Resistor("R1", ("in", "out"), 1e3))
        ckt.add(Capacitor("C1", ("out", "0"), 2e-10))
        stop = 8e-6
        result = solve_transient(ckt, stop_time=stop, max_step=stop / 10)
        for corner in pwl.breakpoints(stop):
            distances = np.abs(result.times - corner)
            assert distances.min() < 1e-12 * stop

    def test_pwl_corner_tracked_accurately(self):
        """An RC driven well below its time constant tracks a PWL ramp;
        a predictor extrapolating across the corner would overshoot."""
        ckt = Circuit("pwl_track")
        pwl = PWL([(0.0, 0.0), (5e-3, 1.0), (5.001e-3, 1.0),
                   (10e-3, 0.0)])
        ckt.add(VoltageSource("V1", ("in", "0"), dc=pwl))
        ckt.add(Resistor("R1", ("in", "out"), 100.0))
        ckt.add(Capacitor("C1", ("out", "0"), 1e-9))  # tau = 0.1 us
        result = solve_transient(ckt, stop_time=9e-3, max_step=2e-4)
        v_out = result.voltage("out")
        # The output never overshoots the 0..1 source range by more than
        # the LTE tolerance.
        assert v_out.max() < 1.0 + 1e-3
        assert v_out.min() > -1e-3
        assert result.sample("out", 5.0005e-3) == pytest.approx(1.0,
                                                                abs=2e-3)


class TestVoltageAccessor:
    def test_unknown_node_lists_known_nodes(self):
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-4, max_step=1e-5)
        with pytest.raises(AnalysisError) as excinfo:
            result.voltage("nosuchnode")
        message = str(excinfo.value)
        assert "nosuchnode" in message
        assert "known nodes" in message
        assert "out" in message and "in" in message

    def test_ground_aliases_still_work(self):
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-4, max_step=1e-5)
        assert result.voltage("0").max() == 0.0


class TestBranchCurrentAccessor:
    def test_branchless_element_raises_analysis_error(self):
        # Regression: asking for R1's branch current leaked a raw
        # NetlistError/IndexError from the netlist layer instead of an
        # AnalysisError naming the elements that do carry branches.
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-4, max_step=1e-5)
        with pytest.raises(AnalysisError) as excinfo:
            result.branch_current("R1")
        message = str(excinfo.value)
        assert "R1" in message
        assert "branch" in message
        assert "V1" in message  # the element that does have one

    def test_branch_index_out_of_range(self):
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-4, max_step=1e-5)
        with pytest.raises(AnalysisError):
            result.branch_current("V1", branch=3)

    def test_valid_branch_still_works(self):
        ckt = step_rc()
        result = solve_transient(ckt, stop_time=1e-4, max_step=1e-5)
        current = result.branch_current("V1")
        assert current.shape == result.times.shape
