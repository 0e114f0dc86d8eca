"""DC operating-point tests against closed-form circuit theory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import thermal_voltage
from repro.errors import ConvergenceError
from repro.spice import Circuit, Simulator, solve_dc
from repro.spice.dcop import Tolerances, weighted_error
from repro.spice.engine import BJTGroup
from repro.spice.elements import (
    BJT,
    CCCS,
    CCVS,
    CurrentSource,
    Diode,
    DiodeModel,
    Resistor,
    VCCS,
    VCVS,
    VoltageSource,
)
from repro.spice.mna import load_circuit

VT = thermal_voltage()


def op(ckt):
    return Simulator(ckt).operating_point()


class TestLinearDC:
    def test_voltage_divider(self):
        ckt = Circuit("div")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=10.0))
        ckt.add(Resistor("R1", ("in", "out"), 3e3))
        ckt.add(Resistor("R2", ("out", "0"), 1e3))
        result = op(ckt)
        assert result.voltage("out") == pytest.approx(2.5, rel=1e-6)
        assert result.branch_current("V1") == pytest.approx(-10.0 / 4e3,
                                                            rel=1e-6)

    def test_current_source_into_resistor(self):
        ckt = Circuit("ir")
        ckt.add(CurrentSource("I1", ("0", "a"), dc=1e-3))
        ckt.add(Resistor("R1", ("a", "0"), 2e3))
        assert op(ckt).voltage("a") == pytest.approx(2.0, rel=1e-6)

    def test_superposition(self):
        """V and I sources together follow superposition."""
        def build(v, i):
            ckt = Circuit("sup")
            ckt.add(VoltageSource("V1", ("a", "0"), dc=v))
            ckt.add(Resistor("R1", ("a", "b"), 1e3))
            ckt.add(Resistor("R2", ("b", "0"), 1e3))
            ckt.add(CurrentSource("I1", ("0", "b"), dc=i))
            return op(ckt).voltage("b")

        both = build(10.0, 2e-3)
        only_v = build(10.0, 0.0)
        only_i = build(0.0, 2e-3)
        assert both == pytest.approx(only_v + only_i, rel=1e-6)

    @given(st.floats(min_value=1.0, max_value=1e6),
           st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_divider_property(self, r1, r2):
        ckt = Circuit("div")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("in", "out"), r1))
        ckt.add(Resistor("R2", ("out", "0"), r2))
        expected = r2 / (r1 + r2)
        assert op(ckt).voltage("out") == pytest.approx(expected, rel=1e-6)

    def test_resistor_ladder(self):
        """A 10-section R-2R ladder: closed-form binary weights."""
        ckt = Circuit("r2r")
        ckt.add(VoltageSource("V1", ("n0", "0"), dc=1.0))
        sections = 8
        for k in range(sections):
            ckt.add(Resistor(f"RS{k}", (f"n{k}", f"n{k+1}"), 1e3))
            ckt.add(Resistor(f"RP{k}", (f"n{k+1}", "0"),
                             2e3 if k < sections - 1 else 2e3))
        result = op(ckt)
        # each node halves the previous one (R-2R property)
        for k in range(1, sections):
            ratio = result.voltage(f"n{k+1}") / result.voltage(f"n{k}")
            assert 0.3 < ratio < 0.7

    def test_kcl_residual_at_solution(self):
        """Property: the loaded residual vanishes at the solution."""
        ckt = Circuit("kcl")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=5.0))
        ckt.add(Resistor("R1", ("a", "b"), 1e3))
        ckt.add(Resistor("R2", ("b", "c"), 2e3))
        ckt.add(Resistor("R3", ("c", "0"), 3e3))
        ckt.add(CurrentSource("I1", ("0", "b"), dc=1e-3))
        x = solve_dc(ckt)
        ctx = load_circuit(ckt, x)
        assert np.max(np.abs(ctx.i_vec)) < 1e-9


class TestControlledSourcesDC:
    def test_vcvs(self):
        ckt = Circuit("vcvs")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=2.0))
        ckt.add(Resistor("RL0", ("a", "0"), 1e6))
        ckt.add(VCVS("E1", ("b", "0", "a", "0"), gain=5.0))
        ckt.add(Resistor("RL", ("b", "0"), 1e3))
        assert op(ckt).voltage("b") == pytest.approx(10.0, rel=1e-6)

    def test_vccs(self):
        ckt = Circuit("vccs")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=2.0))
        ckt.add(VCCS("G1", ("0", "b", "a", "0"), gm=1e-3))
        ckt.add(Resistor("RL", ("b", "0"), 1e3))
        # current 2mA pushed into b -> 2V
        assert op(ckt).voltage("b") == pytest.approx(2.0, rel=1e-6)

    def test_cccs(self):
        ckt = Circuit("cccs")
        control = ckt.add(VoltageSource("V1", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))  # i(V1) = -1mA
        ckt.add(CCCS("F1", ("0", "b"), control, 2.0))
        ckt.add(Resistor("RL", ("b", "0"), 1e3))
        # i(V1) = -1mA (SPICE convention), gain 2 -> -2mA from 0 to b
        assert op(ckt).voltage("b") == pytest.approx(-2.0, rel=1e-6)

    def test_ccvs(self):
        ckt = Circuit("ccvs")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        control = ckt.element("V1")
        ckt.add(CCVS("H1", ("b", "0"), control, 4e3))
        ckt.add(Resistor("RL", ("b", "0"), 1e3))
        assert op(ckt).voltage("b") == pytest.approx(-4.0, rel=1e-6)

    def test_op_amp_feedback_model(self):
        """Ideal inverting amplifier from a high-gain VCVS."""
        ckt = Circuit("inv")
        ckt.add(VoltageSource("VIN", ("in", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("in", "minus"), 1e3))
        ckt.add(Resistor("R2", ("minus", "out"), 10e3))
        ckt.add(VCVS("EOP", ("out", "0", "0", "minus"), gain=1e6))
        assert op(ckt).voltage("out") == pytest.approx(-10.0, rel=1e-3)


class TestNonlinearDC:
    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_diode_resistor(self, engine):
        # The Shockley law on both LU backends.
        ckt = Circuit("dr")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=5.0))
        ckt.add(Resistor("R1", ("in", "d"), 1e3))
        ckt.add(Diode("D1", ("d", "0"), DiodeModel(IS=1e-14)))
        result = Simulator(ckt, engine=engine).operating_point()
        vd = result.voltage("d")
        i_resistor = (5.0 - vd) / 1e3
        i_diode = 1e-14 * (math.exp(vd / VT) - 1)
        assert i_resistor == pytest.approx(i_diode, rel=1e-4)

    def test_diode_with_series_rs(self):
        model = DiodeModel(IS=1e-14, RS=10.0)
        ckt = Circuit("drs")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=5.0))
        ckt.add(Resistor("R1", ("in", "d"), 1e3))
        ckt.add(Diode("D1", ("d", "0"), model))
        vd_with_rs = op(ckt).voltage("d")
        ckt2 = Circuit("drs0")
        ckt2.add(VoltageSource("V1", ("in", "0"), dc=5.0))
        ckt2.add(Resistor("R1", ("in", "d"), 1e3))
        ckt2.add(Diode("D1", ("d", "0"), DiodeModel(IS=1e-14)))
        vd_without = ckt2 and op(ckt2).voltage("d")
        assert vd_with_rs > vd_without  # RS adds drop

    def test_reverse_diode_blocks(self):
        ckt = Circuit("drev")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=-5.0))
        ckt.add(Resistor("R1", ("in", "d"), 1e3))
        ckt.add(Diode("D1", ("d", "0"), DiodeModel(IS=1e-14)))
        # virtually no current -> full -5 V across the diode
        assert op(ckt).voltage("d") == pytest.approx(-5.0, abs=1e-3)

    def test_diode_stack_shares_voltage(self):
        ckt = Circuit("stack")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=3.0))
        ckt.add(Resistor("R1", ("in", "a"), 1e3))
        ckt.add(Diode("D1", ("a", "b"), DiodeModel(IS=1e-14)))
        ckt.add(Diode("D2", ("b", "0"), DiodeModel(IS=1e-14)))
        result = op(ckt)
        va, vb = result.voltage("a"), result.voltage("b")
        assert (va - vb) == pytest.approx(vb, rel=1e-3)  # equal drops

    def test_bjt_forward_active(self, hf_model):
        ckt = Circuit("fa")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VB", ("b", "0"), dc=0.75))
        ckt.add(Resistor("RC", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))
        result = op(ckt)
        dev = result.device_operating_point("Q1")
        assert dev.ic > 1e-5
        assert dev.beta_dc > 20
        # KCL at collector: resistor current equals device Ic
        assert (5.0 - result.voltage("c")) / 1e3 == pytest.approx(
            dev.ic, rel=1e-3
        )

    def test_bjt_saturation_region(self, hf_model):
        ckt = Circuit("sat")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VB", ("b", "0"), dc=0.9))
        ckt.add(Resistor("RC", ("vcc", "c"), 100e3))  # starves the collector
        ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))
        vce = op(ckt).voltage("c")
        assert vce < 0.3  # deep saturation

    def test_pnp_mirror_image(self, hf_model):
        pnp = hf_model.replace(polarity="pnp", name="QP")
        ckt = Circuit("pnp")
        ckt.add(VoltageSource("VEE", ("vee", "0"), dc=5.0))
        ckt.add(VoltageSource("VB", ("b", "0"), dc=5.0 - 0.75))
        ckt.add(Resistor("RC", ("c", "0"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "vee"), pnp))
        result = op(ckt)
        vc = result.voltage("c")
        assert vc > 0.01  # collector pulled up by pnp current

    def test_current_mirror(self, hf_model):
        ckt = Circuit("mirror")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(CurrentSource("IREF", ("vcc", "b"), dc=1e-3))
        # diode-connected reference
        ckt.add(BJT("Q1", ("b", "b", "0"), hf_model))
        ckt.add(BJT("Q2", ("c", "b", "0"), hf_model))
        ckt.add(Resistor("RL", ("vcc", "c"), 1e3))
        result = op(ckt)
        i_out = (5.0 - result.voltage("c")) / 1e3
        assert i_out == pytest.approx(1e-3, rel=0.15)  # mirror ratio ~1

    def test_differential_pair_balance(self, hf_model):
        ckt = Circuit("diff")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(Resistor("RC1", ("vcc", "c1"), 500.0))
        ckt.add(Resistor("RC2", ("vcc", "c2"), 500.0))
        ckt.add(VoltageSource("VB1", ("b1", "0"), dc=2.0))
        ckt.add(VoltageSource("VB2", ("b2", "0"), dc=2.0))
        ckt.add(BJT("Q1", ("c1", "b1", "e"), hf_model))
        ckt.add(BJT("Q2", ("c2", "b2", "e"), hf_model))
        ckt.add(CurrentSource("IT", ("e", "0"), dc=2e-3))
        result = op(ckt)
        assert result.voltage("c1") == pytest.approx(result.voltage("c2"),
                                                     abs=1e-6)
        # each side carries half the tail current (alpha ~ 1)
        i1 = (5.0 - result.voltage("c1")) / 500.0
        assert i1 == pytest.approx(1e-3, rel=0.05)

    def test_differential_pair_full_steering(self, hf_model):
        ckt = Circuit("steer")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(Resistor("RC1", ("vcc", "c1"), 500.0))
        ckt.add(Resistor("RC2", ("vcc", "c2"), 500.0))
        ckt.add(VoltageSource("VB1", ("b1", "0"), dc=2.3))
        ckt.add(VoltageSource("VB2", ("b2", "0"), dc=2.0))
        ckt.add(BJT("Q1", ("c1", "b1", "e"), hf_model))
        ckt.add(BJT("Q2", ("c2", "b2", "e"), hf_model))
        ckt.add(CurrentSource("IT", ("e", "0"), dc=2e-3))
        result = op(ckt)
        # 300 mV >> vt fully steers the tail current into Q1
        i1 = (5.0 - result.voltage("c1")) / 500.0
        i2 = (5.0 - result.voltage("c2")) / 500.0
        assert i1 > 100 * i2


class TestHomotopies:
    def test_source_stepping_kicks_in(self, hf_model):
        """A deliberately hard start: many stacked junctions from 0V."""
        ckt = Circuit("hard")
        ckt.add(VoltageSource("VCC", ("n0", "0"), dc=12.0))
        for k in range(6):
            ckt.add(Diode(f"D{k}", (f"n{k}", f"n{k+1}"),
                          DiodeModel(IS=1e-16)))
        ckt.add(Resistor("RL", ("n6", "0"), 10.0))
        result = op(ckt)
        total_drop = 12.0 - result.voltage("n6")
        assert 3.0 < total_drop < 7.0  # ~6 junction drops

    def test_tolerances_respected(self):
        ckt = Circuit("tol")
        ckt.add(VoltageSource("V1", ("a", "0"), dc=1.0))
        ckt.add(Resistor("R1", ("a", "0"), 1e3))
        x = solve_dc(ckt, tolerances=Tolerances(reltol=1e-9, vntol=1e-12))
        assert x[ckt.node_index("a")] == pytest.approx(1.0, rel=1e-6)

    def test_warm_start_limits_dict(self, hf_model):
        ckt = Circuit("warm")
        ckt.add(VoltageSource("VB", ("b", "0"), dc=0.7))
        ckt.add(BJT("Q1", ("b", "b", "0"), hf_model))
        limits = {}
        solve_dc(ckt, limits=limits)
        [group] = [key for key in limits if isinstance(key, BJTGroup)]
        named = dict(zip(group.names, limits[group].T))
        assert "Q1" in named
        assert np.isfinite(named["Q1"]).all()


class TestWeightedMaxError:
    """The one step-size test (Newton, stacked Newton, transient LTE):
    :func:`~repro.spice.dcop.weighted_error` over a per-unknown
    tolerance vector."""

    def test_mixed_node_branch_scaling(self):
        delta = np.array([1e-6, 2e-6, 1e-12])
        x = np.array([1.0, 0.0, 0.5])
        # 2 nodes (vntol=1e-6) then 1 branch (abstol=1e-12)
        atol = np.array([1e-6, 1e-6, 1e-12])
        err = weighted_error(delta, x, x + delta, 1e-3, atol).max()
        # branch entry: 1e-12 / (1e-3*0.5 + 1e-12) ~ 2e-9; node 1:
        # 1e-6/(1e-3+1e-6) ~ 1e-3; node 2 dominates: 2e-6/1e-6 = 2.
        assert err == pytest.approx(2.0, rel=1e-2)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(17)
        num_nodes = 5
        delta = 1e-5 * rng.standard_normal((3, 8))
        a = rng.standard_normal((3, 8))
        b = a + delta
        reltol, vntol, abstol = 1e-3, 1e-6, 1e-12
        atol = np.where(np.arange(8) < num_nodes, vntol, abstol)
        # Every lane of a stack, and the in-place form, bit for bit the
        # scalar loop's tolerance arithmetic.
        expected = np.empty((3, 8))
        for lane in range(3):
            for i in range(8):
                scale = reltol * max(abs(a[lane, i]), abs(b[lane, i]))
                scale += vntol if i < num_nodes else abstol
                expected[lane, i] = abs(delta[lane, i]) / scale
        got = weighted_error(delta, a, b, reltol, atol)
        np.testing.assert_array_equal(got, expected)
        out, work = np.empty(8), a[1].copy()
        assert weighted_error(delta[1], work, b[1], reltol, atol, out=out,
                              work=work) is out
        np.testing.assert_array_equal(out, expected[1])

    def test_converged_uses_both_tolerances(self):
        tol = Tolerances(reltol=1e-3, vntol=1e-6, abstol=1e-12)
        atol = np.array([tol.vntol, tol.abstol])  # one node, one branch

        def converged(dx, x):
            return weighted_error(dx, x, x + dx, tol.reltol,
                                  atol).max() <= 1.0

        x = np.array([1.0, 1e-9])
        # node step within vntol, branch step within abstol -> converged
        assert converged(np.array([5e-7, 5e-13]), x)
        # branch step violating abstol alone -> not converged
        assert not converged(np.array([5e-7, 5e-11]), x)
        # node step violating vntol alone (small voltage, so the
        # absolute term dominates the scale) -> not converged
        small = np.array([1e-4, 1e-9])
        assert not converged(np.array([5e-5, 5e-13]), small)


class TestConvergenceForensics:
    """A failed solve must say where and why it died (the report that
    FailedPoint carries across process-pool boundaries)."""

    def _impossible(self):
        ckt = Circuit("stuck")
        ckt.add(VoltageSource("V1", ("in", "0"), dc=5.0))
        ckt.add(Resistor("R1", ("in", "out"), 1e3))
        ckt.add(Diode("D1", ("out", "0"), DiodeModel(IS=1e-14)))
        return ckt

    def _impossible_tolerances(self):
        # Unsatisfiable in double precision: every homotopy stage fails.
        return Tolerances(reltol=0.0, vntol=1e-30, abstol=1e-30,
                          max_iterations=25)

    def test_report_populated_on_failure(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(self._impossible(),
                     tolerances=self._impossible_tolerances())
        report = excinfo.value.report
        assert report is not None
        assert report.stage == "source_stepping"
        assert 1 <= report.iterations <= 25
        assert report.residual > 1.0
        assert report.worst_name in ("V(in)", "V(out)", "I(V1)")
        # The earlier homotopy stages left their trace.
        assert any("newton" in line for line in report.history)
        assert any("gmin" in line for line in report.history)
        summary = report.summary()
        assert "stage=source_stepping" in summary
        assert "worst=" in summary
        assert "source stepping" in str(excinfo.value)

    def test_report_survives_pickle(self):
        import pickle

        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(self._impossible(),
                     tolerances=self._impossible_tolerances())
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.report is not None
        assert clone.report.summary() == excinfo.value.report.summary()

    def test_retry_perturbation_deterministic(self):
        from repro.spice.dcop import retry_perturbation

        x0 = np.zeros(4)
        assert np.array_equal(retry_perturbation(x0, 0), x0)
        first = retry_perturbation(x0, 1)
        again = retry_perturbation(x0, 1)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, x0)
        assert not np.array_equal(retry_perturbation(x0, 2), first)

    def test_attempt_escalation_still_converges(self):
        ckt = self._impossible()
        x0 = solve_dc(ckt)
        ckt2 = self._impossible()
        x1 = solve_dc(ckt2, attempt=2)
        np.testing.assert_allclose(x1, x0, rtol=1e-6, atol=1e-9)
