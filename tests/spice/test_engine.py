"""Compiled-engine tests: stamping equivalence against the per-element
stamp reference, golden analysis values on the example decks, linear
solver units and engine caching/instrumentation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import (
    ACResult,
    Circuit,
    CompiledCircuit,
    DenseLUSolver,
    EngineStats,
    NoiseResult,
    OperatingPointResult,
    Simulator,
    SparseLUSolver,
    compile_circuit,
    get_engine,
    parse_deck,
    resolve_engine,
    run_deck,
    solve_ac,
    solve_dc,
    solve_noise,
    solve_transient,
    transfer_function,
)
from repro.spice.dcop import Tolerances, newton_solve, solve_dc_batched
from repro.spice.elements import (
    BJT,
    CCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Inductor,
    Pulse,
    Resistor,
    Sine,
    VoltageSource,
)
from repro.spice.engine import BJTGroup
from repro.spice.mna import load_circuit

DECK_DIR = Path(__file__).resolve().parents[2] / "examples" / "decks"
DECKS = sorted(DECK_DIR.glob("*.cir"))
#: Analysis outputs of the per-element re-stamping engine, frozen before
#: that engine was removed (see :class:`TestGoldenAnalyses`).
LEGACY = json.loads(
    (Path(__file__).with_name("legacy_reference.json")).read_text()
)


def deck_circuit(path: Path) -> Circuit:
    return parse_deck(path.read_text()).circuit


def synthetic_circuits(hf_model):
    """Hand-built circuits covering element classes the decks miss."""
    mixed = Circuit("mixed")
    v1 = VoltageSource("V1", ("in", "0"),
                       dc=Pulse(0.0, 1.0, delay=1e-9, rise=1e-9,
                                width=5e-9, period=20e-9))
    mixed.add(v1)
    mixed.add(Resistor("R1", ("in", "a"), 1e3))
    mixed.add(Diode("D1", ("a", "b"), DiodeModel(RS=10.0, CJO=1e-12,
                                                 TT=1e-10)))
    mixed.add(Resistor("R2", ("b", "0"), 2e3))
    mixed.add(Capacitor("C1", ("a", "0"), 1e-12))
    mixed.add(Inductor("L1", ("b", "c"), 1e-9))
    mixed.add(Resistor("R3", ("c", "0"), 50.0))
    mixed.add(VCVS("E1", ("d", "0", "a", "0"), gain=2.0))
    mixed.add(Resistor("R4", ("d", "0"), 1e3))
    mixed.add(CCCS("F1", ("c", "0"), v1, 0.5))

    amp = Circuit("bjt_amp")
    amp.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
    amp.add(VoltageSource("VB", ("b", "0"), dc=0.8, ac_mag=1.0))
    amp.add(Resistor("RL", ("vcc", "c"), 1e3))
    amp.add(BJT("Q1", ("c", "b", "0"), hf_model))
    amp.add(CurrentSource("IB", ("0", "b"), dc=1e-5))
    return [mixed, amp]


def by_device(limits: dict) -> dict:
    """``limits`` keyed by device name: the BJT group's ``(2, n)``
    history array is read column by column in the group's name order."""
    named = {}
    for key, value in limits.items():
        if isinstance(key, BJTGroup):
            named.update(zip(key.names, value.T))
        else:
            named[key] = value
    return named


def assert_contexts_match(ctx_a, ctx_b, rtol=1e-12, atol=1e-18):
    for attr in ("i_vec", "g_mat", "q_vec", "c_mat"):
        np.testing.assert_allclose(
            getattr(ctx_a, attr), getattr(ctx_b, attr),
            rtol=rtol, atol=atol, err_msg=attr,
        )


class TestStampingEquivalence:
    """engine.evaluate must reproduce load_circuit exactly."""

    @pytest.mark.parametrize("path", DECKS, ids=lambda p: p.stem)
    def test_deck_stamps_match(self, path):
        circuit = deck_circuit(path)
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(7)
        for time, scale in ((None, 1.0), (0.0, 1.0), (3.7e-10, 1.0),
                            (None, 0.0), (None, 0.35)):
            x = 0.5 * rng.standard_normal(size)
            limits_a, limits_b = {}, {}
            ctx_a = load_circuit(circuit, x, time=time, limits=limits_a,
                                 source_scale=scale)
            ctx_b = engine.evaluate(x, time=time, limits=limits_b,
                                    source_scale=scale)
            assert_contexts_match(ctx_a, ctx_b)
            named_b = by_device(limits_b)
            assert limits_a.keys() == named_b.keys()
            for key in limits_a:
                np.testing.assert_allclose(limits_a[key], named_b[key],
                                           rtol=1e-12, atol=1e-15)

    def test_synthetic_stamps_match(self, hf_model):
        for circuit in synthetic_circuits(hf_model):
            size = circuit.assign_indices()
            engine = compile_circuit(circuit)
            rng = np.random.default_rng(11)
            limits_a, limits_b = {}, {}
            for time in (None, 0.0, 2.5e-9):
                x = 0.4 * rng.standard_normal(size)
                ctx_a = load_circuit(circuit, x, time=time,
                                     limits=limits_a)
                ctx_b = engine.evaluate(x, time=time, limits=limits_b)
                assert_contexts_match(ctx_a, ctx_b)

    def test_pnp_stamps_match(self, hf_model):
        import dataclasses
        pnp_params = dataclasses.replace(hf_model, name="QPNP",
                                         polarity="pnp")
        circuit = Circuit("pnp_stage")
        circuit.add(VoltageSource("VEE", ("vee", "0"), dc=5.0))
        circuit.add(Resistor("RL", ("c", "0"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "vee"), pnp_params))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=4.2))
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(3)
        limits_a, limits_b = {}, {}
        for _ in range(3):
            x = 2.0 + 0.3 * rng.standard_normal(size)
            ctx_a = load_circuit(circuit, x, limits=limits_a)
            ctx_b = engine.evaluate(x, limits=limits_b)
            assert_contexts_match(ctx_a, ctx_b)

    def test_warm_limits_second_evaluation(self, hf_model):
        """Second evaluation reuses pnjlim history identically."""
        circuit = Circuit("warm")
        circuit.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        circuit.add(Resistor("RL", ("vcc", "c"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "0"), hf_model))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=0.85))
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(5)
        limits_a, limits_b = {}, {}
        for _ in range(4):
            x = 0.9 * rng.standard_normal(size)
            ctx_a = load_circuit(circuit, x, limits=limits_a)
            ctx_b = engine.evaluate(x, limits=limits_b)
            assert_contexts_match(ctx_a, ctx_b)


class TestGoldenAnalyses:
    """Full analyses must reproduce the per-element re-stamping engine.

    That engine (``engine="legacy"``, which assembled every iteration
    through :func:`~repro.spice.mna.load_circuit` and solved with
    ``numpy.linalg.solve``) was removed after commit 304fafa; its outputs
    at that commit are frozen in ``legacy_reference.json`` and compared
    at the tolerances the live comparison used.
    """

    @pytest.mark.parametrize("path", DECKS, ids=lambda p: p.stem)
    def test_dc_matches(self, path):
        x_compiled = solve_dc(deck_circuit(path))
        np.testing.assert_allclose(x_compiled, LEGACY["dc"][path.stem],
                                   rtol=1e-7, atol=1e-9)

    def test_ac_matches(self):
        text = (DECK_DIR / "ce_stage.cir").read_text()
        ac_compiled = run_deck(parse_deck(text)).first(ACResult)
        real, imag = LEGACY["ac_ce_stage_c"]
        np.testing.assert_allclose(
            ac_compiled.voltage("c"), np.asarray(real) + 1j * np.asarray(imag),
            rtol=1e-8,
        )

    def test_noise_matches(self):
        text = (DECK_DIR / "noise_bench.cir").read_text()
        n_compiled = run_deck(parse_deck(text)).first(NoiseResult)
        np.testing.assert_allclose(
            n_compiled.output_density, LEGACY["noise_bench_output_density"],
            rtol=1e-6,
        )

    def test_transient_matches_on_driven_circuit(self, hf_model):
        def build():
            ckt = Circuit("driven")
            ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
            ckt.add(VoltageSource("VIN", ("b", "0"),
                                  dc=Sine(offset=0.8, amplitude=0.01,
                                          frequency=1e9)))
            ckt.add(Resistor("RL", ("vcc", "c"), 1e3))
            ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))
            return ckt

        stop = 2e-9
        # Exact-parity golden test: hot-path shortcuts pinned off.
        r_compiled = solve_transient(build(), stop_time=stop,
                                     max_step=stop / 100, chord=False)
        grid = np.linspace(0.0, stop, 60)
        v_compiled = np.interp(grid, r_compiled.times,
                               r_compiled.voltage("c"))
        np.testing.assert_allclose(v_compiled, LEGACY["tran_driven_c"],
                                   atol=2e-4)

    def test_transient_ring_oscillator_initial_window(self):
        """The autonomous ring oscillator diverges exponentially from any
        perturbation, so only the initial window is comparable."""
        stop = 3e-10
        # Exact-parity golden test: hot-path shortcuts pinned off.
        r_compiled = solve_transient(
            deck_circuit(DECK_DIR / "ring_oscillator.cir"),
            stop_time=stop, max_step=5e-12, chord=False,
        )
        grid = np.linspace(0.0, stop, 40)
        v_compiled = np.interp(grid, r_compiled.times,
                               r_compiled.voltage("c0p"))
        np.testing.assert_allclose(v_compiled, LEGACY["tran_ring_c0p"],
                                   atol=2e-3)

    def test_transfer_function_matches(self):
        tf_compiled = transfer_function(
            deck_circuit(DECK_DIR / "ce_stage.cir"), "VB", "c")
        frozen = LEGACY["tf_ce_stage"]
        assert tf_compiled.gain == pytest.approx(frozen["gain"], rel=1e-9)
        assert tf_compiled.input_resistance == pytest.approx(
            frozen["input_resistance"], rel=1e-9)
        assert tf_compiled.output_resistance == pytest.approx(
            frozen["output_resistance"], rel=1e-9)


class TestLinearSolvers:
    def test_dense_solver_solves(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        solver = DenseLUSolver()
        np.testing.assert_allclose(solver.solve(a, b), np.linalg.solve(a, b))

    def test_dense_factorization_reuse(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal((3, 5))
        solver = DenseLUSolver()
        stats = solver.stats
        solver.solve(a, b[0], token=("t",))
        assert solver.has_factorization(("t",))
        reused = [solver.solve_cached(b[k]) for k in (1, 2)]
        assert (stats.factorizations, stats.solves) == (1, 3)
        assert stats.jacobian_reuses == 2
        for k, x in zip((1, 2), reused):
            np.testing.assert_array_equal(x, DenseLUSolver().solve(a, b[k]))
        solver.invalidate()
        assert not solver.has_factorization(("t",))
        solver.solve(a, b[0], token=("t",))
        assert stats.factorizations == 2

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_a_token_never_stands_in_for_the_matrix(self, backend,
                                                     as_pattern):
        """A solve factorizes the matrix it is given, whatever token
        it carries; the token only names the factorization kept."""
        rng = np.random.default_rng(4)
        a1 = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        a2 = a1 + np.diag(rng.uniform(1.0, 2.0, 6))
        b = rng.standard_normal(6)
        if backend == "sparse":
            pattern, values = as_pattern(np.stack([a1, a2]))
            solver = SparseLUSolver()
            systems = [pattern.matrix(v) for v in values]
        else:
            solver = DenseLUSolver()
            systems = [a1, a2]
        solver.solve(systems[0], b, token=("t",))
        x = solver.solve(systems[1], b, token=("t",))
        np.testing.assert_allclose(x, np.linalg.solve(a2, b), rtol=1e-12)
        # The kept factorization is the last one's, a2's, and
        # solve_cached back-substitutes against it without factorizing.
        np.testing.assert_array_equal(solver.solve_cached(b), x)
        stats = solver.stats
        assert (stats.factorizations, stats.solves) == (2, 3)
        assert stats.jacobian_reuses == 1

    def test_dense_token_change_refactorizes(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        solver = DenseLUSolver()
        stats = solver.stats
        solver.solve(a, rng.standard_normal(4), token=("a",))
        solver.solve(2.0 * a, rng.standard_normal(4), token=("b",))
        assert stats.factorizations == 2

    def test_singular_matrix_raises(self, as_pattern):
        singular = np.zeros((3, 3))
        pattern, values = as_pattern(singular)
        for solver, system in ((DenseLUSolver(), singular),
                               (SparseLUSolver(), pattern.matrix(values))):
            with pytest.raises(np.linalg.LinAlgError):
                solver.solve(system, np.ones(3))

    def test_sparse_solver_matches_dense(self, as_pattern):
        rng = np.random.default_rng(3)
        a = np.diag(rng.uniform(1.0, 2.0, 40))
        a[0, 5] = 0.3
        a[5, 0] = 0.2
        b = rng.standard_normal(40)
        pattern, values = as_pattern(a)
        np.testing.assert_allclose(
            SparseLUSolver().solve(pattern.matrix(values), b),
            np.linalg.solve(a, b),
        )


class TestEngineLifecycle:
    def test_get_engine_caches(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        assert get_engine(circuit) is get_engine(circuit)

    def test_mutation_invalidates_cache(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.add(Resistor("RX", ("c", "0"), 1e6))
        assert get_engine(circuit) is not engine

    def test_stale_engine_rejected(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.add(Resistor("RX", ("c", "0"), 1e6))
        with pytest.raises(AnalysisError):
            resolve_engine(circuit, engine)

    def test_wrong_circuit_rejected(self):
        a = deck_circuit(DECK_DIR / "ce_stage.cir")
        b = deck_circuit(DECK_DIR / "ce_stage.cir")
        with pytest.raises(AnalysisError):
            resolve_engine(a, get_engine(b))

    def test_resolve_strings(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        assert isinstance(resolve_engine(circuit, None), CompiledCircuit)
        assert resolve_engine(circuit, "sparse").assembly == "sparse"
        for name in ("turbo", "compiled", "legacy"):
            with pytest.raises(AnalysisError):
                resolve_engine(circuit, name)

    def test_invalidate_bumps_generation(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.invalidate()
        assert get_engine(circuit) is not engine


class TestInstrumentation:
    def test_operating_point_carries_stats(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        result = Simulator(circuit).operating_point()
        stats = result.stats
        assert isinstance(stats, EngineStats)
        assert stats.assemblies > 0
        assert stats.solves > 0
        assert stats.factorizations >= 1
        assert stats.wall_seconds > 0.0

    def test_linear_circuit_factorizes_once_per_token(self):
        """A BJT-free circuit gets no constant-Jacobian shortcut: a DC
        solve factorizes every Newton iteration, a blocked DC lane every
        iteration, and ``.TF`` once for its token, back-substituting its
        second solve.  The values are the ones the former reuse of the
        DC factorization produced, bit for bit; only the counts moved
        (DC 1 -> 2 factorizations per solve, ``.TF`` 1 -> 3, four
        blocked lanes 1 -> 8)."""
        for mode in ("dense", "sparse"):
            circuit = Circuit("rc")
            circuit.add(VoltageSource("V1", ("in", "0"), dc=1.0))
            circuit.add(Resistor("R1", ("in", "out"), 1e3))
            circuit.add(Resistor("R2", ("out", "0"), 1e3))
            engine = get_engine(circuit, mode)
            op = ["0x1.0000000000000p+0", "0x1.fffffffbb47d0p-2",
                  "-0x1.0624dd3a195fbp-11"]
            for _ in range(2):
                before = engine.stats.copy()
                x = solve_dc(circuit, engine=engine)
                delta = engine.stats.since(before)
                assert [v.hex() for v in x] == op
                assert (delta.factorizations, delta.solves) == (2, 2)
                assert delta.jacobian_reuses == 0

            tf = transfer_function(circuit, "V1", "out", engine=engine)
            assert [float(v).hex() for v in (tf.gain, tf.input_resistance,
                                             tf.output_resistance)] == [
                "0x1.0000000000000p-1", "0x1.f400000000000p+10",
                "0x1.f400000000000p+8"]
            stats = tf.stats
            assert (stats.factorizations, stats.solves) == (3, 4)
            assert stats.jacobian_reuses == 1

            lanes = engine.at_levels(engine.stamps, circuit, [{}] + [
                {"V1": level} for level in (1.5, 2.0, 3.0)])
            before = engine.stats.copy()
            blocked, errors = solve_dc_batched(circuit, lanes, engine=engine)
            delta = engine.stats.since(before)
            assert errors == [None] * 4
            assert [[v.hex() for v in lane] for lane in blocked] == [
                op,
                ["0x1.8000000000000p+0", "0x1.7ffffffcc75dcp-1",
                 "-0x1.89374bd7260f9p-11"],
                ["0x1.0000000000000p+1", "0x1.fffffffbb47d0p-1",
                 "-0x1.0624dd3a195fbp-10"],
                ["0x1.8000000000000p+1", "0x1.7ffffffcc75dcp+0",
                 "-0x1.89374bd7260f9p-10"],
            ]
            assert (delta.factorizations, delta.solves) == (8, 8)
            assert delta.jacobian_reuses == 0

    def test_newton_runs_chord_exactly_when_given_a_token(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        size = circuit.assign_indices()
        engine = get_engine(circuit)
        tolerances = Tolerances()
        solutions = {}
        for token in (None, ("chord",)):
            engine.solver.invalidate()
            before = engine.stats.copy()
            solutions[token] = newton_solve(
                circuit, np.zeros(size), tolerances, 1e-12,
                engine=engine, jacobian_token=token)
            delta = engine.stats.since(before)
            if token is None:
                assert delta.jacobian_reuses == 0
                assert delta.factorizations == delta.solves
                assert not engine.solver.has_factorization(("chord",))
            else:
                assert delta.jacobian_reuses > 0
                assert delta.factorizations < delta.solves
                assert engine.solver.has_factorization(token)
        # Both runs stop at the same Newton tolerances.
        np.testing.assert_allclose(solutions[None], solutions[("chord",)],
                                   rtol=tolerances.reltol,
                                   atol=tolerances.vntol)

    def test_element_evals_exclude_cached_linear_part(self, hf_model):
        circuit = Circuit("amp")
        circuit.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=0.8))
        circuit.add(Resistor("RL", ("vcc", "c"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "0"), hf_model))
        engine = get_engine(circuit)
        before = engine.stats.element_evals
        engine.evaluate(np.zeros(engine.size))
        # 2 sources + 1 BJT re-evaluated; the resistor comes from G0.
        assert engine.stats.element_evals - before == 3

    def test_transient_and_ac_carry_stats(self):
        circuit = Circuit("rc")
        circuit.add(VoltageSource("V1", ("in", "0"),
                                  dc=Pulse(0.0, 1.0, rise=1e-9, width=1e-6,
                                           period=1e-3),
                                  ac_mag=1.0))
        circuit.add(Resistor("R1", ("in", "out"), 1e3))
        circuit.add(Capacitor("C1", ("out", "0"), 1e-9))
        tran = solve_transient(circuit, stop_time=5e-6)
        assert tran.stats is not None and tran.stats.solves > 0
        ac = solve_ac(circuit, np.array([1e3, 1e6]))
        assert ac.stats is not None and ac.stats.solves >= 2

    def test_stats_since_and_summary(self):
        stats = EngineStats()
        stats.solves = 5
        stats.wall_seconds = 0.25
        snap = stats.copy()
        stats.solves = 9
        delta = stats.since(snap)
        assert delta.solves == 4
        assert "solves" in stats.summary()
        assert stats.as_dict()["solves"] == 9

    def test_deck_run_profile_report(self):
        text = (DECK_DIR / "ce_stage.cir").read_text()
        run = run_deck(parse_deck(text))
        report = run.profile()
        assert ".OP" in report and ".AC" in report
        assert "total engine wall time" in report

    def test_cli_profile_flag(self, capsys):
        from repro.cli import main
        assert main(["run", str(DECK_DIR / "ce_stage.cir"),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine profile:" in out
        assert "solves" in out
