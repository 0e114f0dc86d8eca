"""Noise-analysis tests against closed-form noise theory."""

import math

import numpy as np
import pytest

from repro.devices import GummelPoonParameters, thermal_voltage
from repro.errors import AnalysisError
from repro.spice import Circuit, solve_noise
from repro.spice.noise import BOLTZMANN, ELECTRON_CHARGE, NOISE_TEMPERATURE
from repro.spice.elements import (
    BJT,
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Resistor,
    VoltageSource,
)

KT4 = 4.0 * BOLTZMANN * NOISE_TEMPERATURE


class TestResistorNoise:
    def test_single_resistor(self):
        """Open-circuit voltage noise of R: 4kTR."""
        ckt = Circuit("r")
        ckt.add(CurrentSource("IBIAS", ("0", "a"), dc=0.0))
        ckt.add(Resistor("R1", ("a", "0"), 10e3))
        result = solve_noise(ckt, "a", [1e3, 1e6])
        expected = KT4 * 10e3
        np.testing.assert_allclose(result.output_density, expected,
                                   rtol=1e-9)

    def test_divider_sees_parallel_resistance(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("VS", ("in", "0"), dc=0.0))
        ckt.add(Resistor("R1", ("in", "out"), 10e3))
        ckt.add(Resistor("R2", ("out", "0"), 40e3))
        result = solve_noise(ckt, "out", [1e3])
        r_parallel = 10e3 * 40e3 / 50e3
        assert result.output_density[0] == pytest.approx(KT4 * r_parallel,
                                                         rel=1e-9)

    def test_ktc_integral(self):
        """Integrated RC-filtered resistor noise -> kT/C, independent of R."""
        for r in (100.0, 10e3):
            ckt = Circuit("ktc")
            ckt.add(VoltageSource("VS", ("in", "0"), dc=0.0))
            ckt.add(Resistor("R1", ("in", "out"), r))
            ckt.add(Capacitor("C1", ("out", "0"), 1e-9))
            freqs = np.geomspace(1.0, 1e10, 600)
            result = solve_noise(ckt, "out", freqs)
            integral = np.trapezoid(result.output_density, freqs)
            assert integral == pytest.approx(
                BOLTZMANN * NOISE_TEMPERATURE / 1e-9, rel=0.01
            ), f"R={r}"

    def test_contributions_sum_to_total(self):
        ckt = Circuit("sum")
        ckt.add(VoltageSource("VS", ("in", "0"), dc=0.0))
        ckt.add(Resistor("R1", ("in", "out"), 1e3))
        ckt.add(Resistor("R2", ("out", "0"), 2e3))
        ckt.add(Resistor("R3", ("out", "0"), 3e3))
        result = solve_noise(ckt, "out", [1e4])
        total = sum(v[0] for v in result.contributions.values())
        assert total == pytest.approx(result.output_density[0], rel=1e-12)


class TestDiodeShotNoise:
    def test_shot_noise_level(self):
        """Forward-biased diode: S_v = 2qI * rd^2 with rd = nVt/I."""
        ckt = Circuit("shot")
        i_bias = 1e-3
        ckt.add(CurrentSource("IB", ("0", "a"), dc=i_bias))
        ckt.add(Diode("D1", ("a", "0"), DiodeModel(IS=1e-14)))
        result = solve_noise(ckt, "a", [1e3])
        rd = thermal_voltage() / i_bias
        expected = 2.0 * ELECTRON_CHARGE * i_bias * rd * rd
        assert result.output_density[0] == pytest.approx(expected, rel=0.01)


def test_diode_shot_noise_reads_the_group_history():
    """The diode's shot noise is priced at its junction voltage in the
    device group's history: the density is ``2qI rd^2`` to 1 %, with no
    absolute slack (``approx``'s default 1e-12 would pass a 0)."""
    ckt = Circuit("shot")
    ckt.add(CurrentSource("IB", ("0", "a"), dc=1e-3))
    ckt.add(Diode("D1", ("a", "0"), DiodeModel(IS=1e-14)))
    density = solve_noise(ckt, "a", [1e3]).output_density[0]
    rd = thermal_voltage() / 1e-3
    assert density == pytest.approx(2.0 * ELECTRON_CHARGE * 1e-3 * rd * rd,
                                    rel=0.01, abs=0.0)


class TestBJTNoise:
    @pytest.fixture()
    def amp(self):
        """A properly biased CE stage with a 50-ohm source."""
        model = GummelPoonParameters(
            name="QN", IS=4e-17, BF=100.0, RB=100.0, RE=2.0, RC=50.0,
            CJE=40e-15, CJC=30e-15, TF=10e-12,
        )
        ckt = Circuit("ce_noise")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VS", ("src", "0"), dc=0.0, ac_mag=1.0))
        ckt.add(Resistor("RS", ("src", "blk"), 50.0))
        ckt.add(Capacitor("CBLK", ("blk", "b"), 1e-6))
        ckt.add(CurrentSource("IBIAS", ("0", "b"), dc=1e-5))
        ckt.add(Resistor("RL", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), model))
        return ckt

    def test_output_noise_exceeds_load_thermal(self, amp):
        result = solve_noise(amp, "c", [10e6])
        assert result.output_density[0] > KT4 * 1e3

    def test_noise_figure_above_unity(self, amp):
        result = solve_noise(amp, "c", [10e6], input_source="VS")
        nf = result.noise_figure_db("RS")
        assert nf[0] > 0.0
        assert nf[0] < 30.0  # a working amplifier, not a dead one

    def test_collector_shot_noise_present(self, amp):
        result = solve_noise(amp, "c", [10e6])
        top = dict(result.dominant_contributors(10e6, count=8))
        assert "Q1:ic" in top
        assert top["Q1:ic"] > 0.0

    def test_flicker_noise_rises_at_low_frequency(self):
        model = GummelPoonParameters(
            name="QF", IS=4e-17, BF=100.0, RB=100.0, RE=2.0, RC=50.0,
            KF=1e-12, AF=1.0,
        )
        ckt = Circuit("flicker")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(CurrentSource("IBIAS", ("0", "b"), dc=1e-5))
        ckt.add(Resistor("RL", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), model))
        result = solve_noise(ckt, "c", [10.0, 1e6])
        assert result.output_density[0] > 10 * result.output_density[1]

    def test_input_referred_density(self, amp):
        result = solve_noise(amp, "c", [10e6], input_source="VS")
        referred = result.input_referred_density()
        # input-referred is output noise over gain^2 -> smaller
        assert referred[0] < result.output_density[0]

    def test_integrated_output_noise_positive(self, amp):
        freqs = np.geomspace(1e5, 1e9, 60)
        result = solve_noise(amp, "c", freqs)
        assert result.integrated_output_noise() > 0.0
        assert result.output_rms_density(1e7) > 0.0


class TestValidation:
    def test_requires_frequencies(self):
        ckt = Circuit("v")
        ckt.add(VoltageSource("VS", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        with pytest.raises(AnalysisError):
            solve_noise(ckt, "a", [])

    def test_ground_output_rejected(self):
        ckt = Circuit("v")
        ckt.add(VoltageSource("VS", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        with pytest.raises(AnalysisError):
            solve_noise(ckt, "0", [1e3])

    def test_noiseless_circuit_rejected(self):
        ckt = Circuit("quiet")
        ckt.add(VoltageSource("VS", ("a", "0"), dc=1.0))
        ckt.add(Capacitor("C1", ("a", "0"), 1e-12))
        with pytest.raises(AnalysisError):
            solve_noise(ckt, "a", [1e3])

    def test_noise_figure_needs_named_contribution(self):
        ckt = Circuit("v")
        ckt.add(VoltageSource("VS", ("a", "0"), dc=1.0, ac_mag=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_noise(ckt, "a", [1e3], input_source="VS")
        with pytest.raises(AnalysisError):
            result.noise_figure_db("R_MISSING")

    def test_input_referred_needs_source(self):
        ckt = Circuit("v")
        ckt.add(VoltageSource("VS", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        result = solve_noise(ckt, "a", [1e3])
        with pytest.raises(AnalysisError):
            result.input_referred_density()

    def test_nonpositive_resistances_carry_no_noise(self):
        # Regression: 4kT/R on a behavioral negative-R element raised
        # ZeroDivisionError / produced a negative PSD.  They are now
        # excluded from the source enumeration entirely.
        ckt = Circuit("negr")
        ckt.add(VoltageSource("VS", ("in", "0"), dc=0.0))
        ckt.add(Resistor("R1", ("in", "out"), 10e3))
        ckt.add(Resistor("RLOAD", ("out", "0"), 40e3))
        # The constructor rejects R <= 0, so emulate a behavioral
        # negative-R element (the way gyrator-based models present one)
        # by mutating a legal resistor.
        negr = Resistor("RNEG", ("out", "0"), 500e3)
        negr.resistance = -500e3
        ckt.add(negr)
        result = solve_noise(ckt, "out", [1e3])
        assert np.all(np.isfinite(result.output_density))
        assert np.all(result.output_density > 0.0)
        assert "RNEG" not in result.contributions
        assert {"R1", "RLOAD"} <= set(result.contributions)
