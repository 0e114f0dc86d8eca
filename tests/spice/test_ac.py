"""AC small-signal tests against closed-form frequency responses."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import Circuit, Simulator, frequency_grid, solve_ac
from repro.spice.elements import (
    BJT,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VoltageSource,
)


def rc_lowpass(r=1e3, c=100e-9):
    ckt = Circuit("rc")
    ckt.add(VoltageSource("V1", ("in", "0"), dc=0.0, ac_mag=1.0))
    ckt.add(Resistor("R1", ("in", "out"), r))
    ckt.add(Capacitor("C1", ("out", "0"), c))
    return ckt


class TestFrequencyGrid:
    def test_decade_grid(self):
        grid = frequency_grid(1.0, 1000.0, 10, "dec")
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1000.0)
        assert len(grid) == 31

    def test_linear_grid(self):
        grid = frequency_grid(10.0, 20.0, 11, "lin")
        assert len(grid) == 11
        assert grid[5] == pytest.approx(15.0)

    def test_octave_grid(self):
        grid = frequency_grid(1.0, 8.0, 2, "oct")
        assert len(grid) == 7

    def test_rejects_bad_ranges(self):
        with pytest.raises(AnalysisError):
            frequency_grid(0.0, 10.0, 5)
        with pytest.raises(AnalysisError):
            frequency_grid(10.0, 1.0, 5)
        with pytest.raises(AnalysisError):
            frequency_grid(1.0, 10.0, 5, "weird")


class TestRCLowpass:
    def test_magnitude_at_pole(self):
        ckt = rc_lowpass()
        f_pole = 1.0 / (2 * math.pi * 1e3 * 100e-9)
        result = solve_ac(ckt, [f_pole])
        assert abs(result.voltage("out")[0]) == pytest.approx(
            1 / math.sqrt(2), rel=1e-6
        )

    def test_phase_at_pole(self):
        ckt = rc_lowpass()
        f_pole = 1.0 / (2 * math.pi * 1e3 * 100e-9)
        result = solve_ac(ckt, [f_pole])
        assert result.voltage_phase_deg("out")[0] == pytest.approx(-45.0,
                                                                   abs=0.01)

    def test_full_transfer_function(self):
        ckt = rc_lowpass()
        freqs = np.geomspace(10.0, 1e6, 40)
        result = solve_ac(ckt, freqs)
        rc = 1e3 * 100e-9
        expected = 1.0 / (1.0 + 2j * math.pi * freqs * rc)
        np.testing.assert_allclose(result.voltage("out"), expected, rtol=1e-9)

    def test_rolloff_slope(self):
        ckt = rc_lowpass()
        result = solve_ac(ckt, [1e5, 1e6])
        dbs = result.voltage_db("out")
        assert dbs[0] - dbs[1] == pytest.approx(20.0, abs=0.1)


class TestRCHighpass:
    def test_blocks_dc_passes_hf(self):
        ckt = Circuit("hp")
        ckt.add(VoltageSource("V1", ("in", "0"), ac_mag=1.0))
        ckt.add(Capacitor("C1", ("in", "out"), 100e-9))
        ckt.add(Resistor("R1", ("out", "0"), 1e3))
        result = solve_ac(ckt, [1.0, 1e7])
        mags = np.abs(result.voltage("out"))
        assert mags[0] < 1e-3
        assert mags[1] == pytest.approx(1.0, rel=1e-3)


class TestRLC:
    """Closed forms on both LU backends: the sparse factorization is held
    to the oracle, not only to dense parity."""

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_series_resonance(self, engine):
        l, c, r = 1e-6, 1e-9, 10.0
        ckt = Circuit("rlc")
        ckt.add(VoltageSource("V1", ("in", "0"), ac_mag=1.0))
        ckt.add(Resistor("R1", ("in", "m"), r))
        ckt.add(Inductor("L1", ("m", "out"), l))
        ckt.add(Capacitor("C1", ("out", "0"), c))
        f0 = 1.0 / (2 * math.pi * math.sqrt(l * c))
        q = math.sqrt(l / c) / r
        result = solve_ac(ckt, [f0], engine=engine)
        # capacitor voltage at resonance = Q * input
        assert abs(result.voltage("out")[0]) == pytest.approx(q, rel=1e-6)

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_parallel_tank_impedance(self, engine):
        l, c = 1e-6, 1e-9
        ckt = Circuit("tank")
        ckt.add(CurrentSource("I1", ("0", "t"), ac_mag=1e-3))
        ckt.add(Inductor("L1", ("t", "0"), l))
        ckt.add(Capacitor("C1", ("t", "0"), c))
        ckt.add(Resistor("RP", ("t", "0"), 100e3))
        f0 = 1.0 / (2 * math.pi * math.sqrt(l * c))
        result = solve_ac(ckt, [f0 / 10, f0, f0 * 10], engine=engine)
        mags = np.abs(result.voltage("t"))
        assert mags[1] > 10 * mags[0]
        assert mags[1] > 10 * mags[2]
        assert mags[1] == pytest.approx(1e-3 * 100e3, rel=1e-3)


class TestACThroughActiveDevices:
    def test_vccs_transimpedance(self):
        ckt = Circuit("gm")
        ckt.add(VoltageSource("V1", ("in", "0"), ac_mag=1.0))
        ckt.add(VCCS("G1", ("0", "out", "in", "0"), gm=2e-3))
        ckt.add(Resistor("RL", ("out", "0"), 1e3))
        result = solve_ac(ckt, [1e3])
        assert abs(result.voltage("out")[0]) == pytest.approx(2.0, rel=1e-6)

    def test_ce_amplifier_gain_and_pole(self, hf_model):
        """CE stage: low-frequency gain ~ gm*(RC||ro), then rolls off."""
        ckt = Circuit("ce")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VB", ("b", "0"), dc=0.77, ac_mag=1.0))
        ckt.add(Resistor("RC", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))
        sim = Simulator(ckt)
        result_op = sim.operating_point()
        dev = result_op.device_operating_point("Q1")
        ac = sim.ac(1e3, 100e9, 10)
        gain_lf = abs(ac.voltage("c")[0])
        # Degenerate expectation: gm*RC reduced by RE degeneration and ro
        gm_eff = dev.gm / (1 + dev.gm * hf_model.RE)
        expected = gm_eff * 1e3
        assert gain_lf == pytest.approx(expected, rel=0.2)
        # and the gain must fall at extreme frequency
        gain_hf = abs(ac.voltage("c")[-1])
        assert gain_hf < gain_lf / 10

    def test_emitter_follower_unity(self, hf_model):
        ckt = Circuit("ef")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VB", ("b", "0"), dc=1.5, ac_mag=1.0))
        ckt.add(BJT("Q1", ("vcc", "b", "e"), hf_model))
        ckt.add(CurrentSource("IE", ("e", "0"), dc=1e-3))
        ckt.add(Resistor("RL", ("e", "0"), 100e3))
        sim = Simulator(ckt)
        sim.operating_point()
        ac = sim.ac(1e3, 1e6, 5)
        gain = abs(ac.voltage("e")[0])
        assert gain == pytest.approx(1.0, abs=0.05)


class TestACValidation:
    def test_requires_a_stimulus(self):
        ckt = Circuit("quiet")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        with pytest.raises(AnalysisError):
            solve_ac(ckt, [1e3])

    def test_current_source_stimulus(self):
        ckt = Circuit("istim")
        ckt.add(CurrentSource("I1", ("0", "a"), ac_mag=1e-3,
                              ac_phase_deg=90.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_ac(ckt, [1e3])
        v = result.voltage("a")[0]
        assert abs(v) == pytest.approx(1.0, rel=1e-6)
        assert math.degrees(np.angle(v)) == pytest.approx(90.0, abs=1e-6)
