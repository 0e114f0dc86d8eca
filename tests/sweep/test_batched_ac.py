"""Batched-vs-scalar AC parity: the blocked solve must be invisible.

Mirror of ``test_batched_dc.py`` for :class:`BlockedACSweep`: routing a
sweep chunk through ``evaluate_batch`` (one stacked Newton bias solve
plus ``(lanes x freq_block)`` stacked complex solves) instead of
per-point scalar AC analyses changes *nothing* observable — the
``(freqs,)`` measured vectors are bit-identical, failed points produce
identical :class:`~repro.sweep.FailedPoint` records, and the contract
holds under every executor, every ``on_error`` policy, and both the
dense and sparse assembly backends.

The injected non-convergent lane is again a NaN source level: the bias
solve fails deterministically and identically in scalar and batched
runs before any AC work happens.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError, ConvergenceError, SweepError
from repro.spice.parser import parse_deck
from repro.sweep import (
    BlockedACSweep,
    ac_gain_db,
    ac_node_voltage,
    run_sweep,
)

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"
DECK_TEXT = (DECKS / "ce_stage.cir").read_text()

#: The CE stage extended with linear passives for value sweeping: a
#: load capacitor, an emitter-leg inductor and a second resistor, each
#: of which a point may set (through a compiled variant of the deck).
PASSIVE_DECK = DECK_TEXT.replace(
    ".OP",
    "CL c 0 0.5p\nLE e2 0 1n\nRE2 c e2 10k\n.OP",
    1,
)

VB_LEVELS = [0.55, 0.62, 0.68, 0.72, 0.75, 0.78, 0.80, 0.82]

#: The CE stage with a clamp diode on its collector: a scalar device, so
#: the engine has no stacked assembly.
DIODE_DECK = DECK_TEXT.replace(
    ".OP",
    "DCL c 0 DCLAMP\n.MODEL DCLAMP D(IS=1e-15 RS=5 CJO=2p TT=1n)\n.OP",
    1,
)

DIODE_POINTS = [{"VB": level} for level in VB_LEVELS] + [
    {"VB": float("nan")}, {"VB": 0.75, "VCC": 3.0}, {"VCC": 1.0},
    {"VB": 0.78, "RC": 2.2e3}, {"RC": 300.0},
]

EXECUTOR_MATRIX = (
    {"executor": "serial"},
    {"executor": "process", "jobs": 2},
    {"executor": "auto"},
)

ENGINES = ("dense", "sparse")


def _points(inject_failure=False):
    levels = list(VB_LEVELS)
    if inject_failure:
        levels[3] = float("nan")
    return [{"VB": level} for level in levels]


def _passive_points():
    return [
        {"VB": 0.75, "RC": 1.2e3},
        {"VB": 0.78, "CL": 2e-12},
        {"VB": 0.80, "LE": 3e-9},
        {"VB": 0.72, "RE2": 4.7e3, "CL": 1e-12},
        {"RC": 0.8e3, "LE": 0.5e-9},
    ]


def _failure_records(result):
    return [
        (f.index, repr(f.params), f.error, f.error_type, f.attempts,
         repr(f.report))
        for f in result.failures
    ]


def _assert_values_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        if a is None or b is None:
            assert a is None and b is None
        else:
            np.testing.assert_array_equal(a, b)


class TestSweepParityMatrix:
    """Every executor x every on_error policy x an injected bad lane,
    on both assembly backends."""

    @pytest.fixture(scope="class", params=ENGINES)
    def evaluator(self, request):
        return BlockedACSweep(DECK_TEXT, measure=ac_node_voltage("c"),
                              engine=request.param)

    @pytest.fixture(scope="class")
    def scalar_reference(self, evaluator):
        return {
            policy: run_sweep(evaluator, _points(inject_failure=True),
                              batch=False, on_error=policy, chunk_size=4)
            for policy in ("skip", "retry")
        }

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    @pytest.mark.parametrize("policy", ("skip", "retry"))
    def test_bit_identical_values_and_failures(self, evaluator,
                                               scalar_reference, backend,
                                               policy):
        reference = scalar_reference[policy]
        run = run_sweep(evaluator, _points(inject_failure=True),
                        batch="auto", on_error=policy, chunk_size=4,
                        **backend)
        _assert_values_equal(run.values, reference.values)
        assert _failure_records(run) == _failure_records(reference)
        assert run.stats.failures == 1
        if policy == "retry":
            assert run.stats.retries == reference.stats.retries > 0

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    def test_raise_policy_raises_identical_error(self, evaluator, backend):
        with pytest.raises(ConvergenceError) as scalar_exc:
            run_sweep(evaluator, _points(inject_failure=True),
                      batch=False, on_error="raise", chunk_size=4)
        with pytest.raises(ConvergenceError) as batched_exc:
            run_sweep(evaluator, _points(inject_failure=True),
                      batch="auto", on_error="raise", chunk_size=4,
                      **backend)
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert (batched_exc.value.report.stage
                == scalar_exc.value.report.stage)

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    def test_clean_sweep_bit_identical(self, evaluator, backend):
        reference = run_sweep(evaluator, _points(), batch=False,
                              chunk_size=3)
        run = run_sweep(evaluator, _points(), batch="auto", chunk_size=3,
                        **backend)
        _assert_values_equal(run.values, reference.values)
        assert run.ok


class TestPassiveOverrides:
    """R/L/C values set per point, through compiled deck variants."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_override_parity_scalar_vs_batch(self, engine):
        fn = BlockedACSweep(PASSIVE_DECK, measure=ac_node_voltage("c"),
                            engine=engine)
        points = _passive_points()
        scalar = [fn(p) for p in points]
        batched = fn.evaluate_batch(points)
        assert all(err is None for _, err in batched)
        for got, expected in zip(batched, scalar):
            np.testing.assert_array_equal(got[0], expected)

    def test_dense_and_sparse_agree_closely(self):
        points = _passive_points()
        dense = BlockedACSweep(PASSIVE_DECK, measure=ac_gain_db("c"),
                               engine="dense")
        sparse = BlockedACSweep(PASSIVE_DECK, measure=ac_gain_db("c"),
                                engine="sparse")
        for p in points:
            np.testing.assert_allclose(dense(p), sparse(p),
                                       rtol=1e-8, atol=1e-8)

    def test_override_to_deck_value_is_identity(self):
        fn = BlockedACSweep(PASSIVE_DECK, measure=ac_node_voltage("c"))
        np.testing.assert_array_equal(fn({"RC": 1e3, "CL": 0.5e-12}),
                                      fn({}))

    def test_zero_resistance_is_a_sweep_error(self):
        fn = BlockedACSweep(PASSIVE_DECK)
        with pytest.raises(SweepError, match="must be finite"):
            fn({"RC": 0.0})

    def test_non_finite_passive_is_a_sweep_error(self):
        fn = BlockedACSweep(PASSIVE_DECK)
        with pytest.raises(SweepError, match="must be finite"):
            fn({"CL": float("nan")})

    def test_nonlinear_element_is_a_sweep_error(self):
        fn = BlockedACSweep(DECK_TEXT)
        with pytest.raises(SweepError,
                           match="independent DC source or a linear"):
            fn({"Q1": 1.0})

    def test_bad_passive_lane_fails_alone_in_batch(self):
        fn = BlockedACSweep(PASSIVE_DECK, measure=ac_node_voltage("c"))
        points = [{"VB": 0.75}, {"RC": 0.0}, {"VB": 0.80}]
        results = fn.evaluate_batch(points)
        assert results[0][1] is None and results[2][1] is None
        assert isinstance(results[1][0], type(None))
        assert isinstance(results[1][1], SweepError)
        np.testing.assert_array_equal(results[0][0], fn(points[0]))
        np.testing.assert_array_equal(results[2][0], fn(points[2]))


#: A first-order RC low-pass: |H| = 1 / sqrt(1 + (2 pi f R C)^2).
LOWPASS = """* rc low-pass
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.AC DEC 10 1K 10MEG
.END
"""


class TestEditedDeckOracles:
    """A point's passive values reach the bias and the small-signal
    matrices alike: each point reads what simulating the edited deck
    (or the closed form) gives."""

    def test_rc_lowpass_matches_closed_form(self):
        fn = BlockedACSweep(LOWPASS, measure=ac_node_voltage("out"))
        points = [{"C1": c} for c in (0.47e-9, 1e-9, 2.2e-9, 10e-9)]
        batched = fn.evaluate_batch(points)
        freqs = fn.frequencies
        for point, (value, error) in zip(points, batched):
            assert error is None
            np.testing.assert_array_equal(value, fn(point))
            expected = 1.0 / np.sqrt(
                1.0 + (2.0 * np.pi * freqs * 1e3 * point["C1"]) ** 2)
            np.testing.assert_allclose(np.abs(value), expected, rtol=1e-9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bias_resistor_matches_the_edited_deck(self, engine):
        from repro.spice.ac import solve_ac

        point = {"VB": 0.85, "RC": 1.5e3}
        edited = DECK_TEXT.replace("VB b 0 DC 0.8 AC 1",
                                   "VB b 0 DC 0.85 AC 1")
        edited = edited.replace("RC vcc c 1k", "RC vcc c 1.5k")
        assert edited.count("0.85") == 1 and "1.5k" in edited
        fn = BlockedACSweep(DECK_TEXT, engine=engine)
        scalar = fn(point)
        (batched, error), = fn.evaluate_batch([point])
        assert error is None
        np.testing.assert_array_equal(batched, scalar)
        reference = solve_ac(parse_deck(edited).circuit, fn.frequencies,
                             engine=engine).solutions
        np.testing.assert_allclose(scalar, reference, rtol=1e-9, atol=0.0)


class TestFrequencyResolution:
    def test_deck_ac_card_is_adopted(self):
        fn = BlockedACSweep(DECK_TEXT)
        freqs = fn.frequencies
        assert freqs.size == 51  # .AC DEC 10 1MEG 100G
        assert freqs[0] == pytest.approx(1e6)
        assert freqs[-1] == pytest.approx(100e9)

    def test_explicit_grid_overrides_the_card(self):
        grid = [1e6, 1e7, 1e8]
        fn = BlockedACSweep(DECK_TEXT, frequencies=grid)
        np.testing.assert_array_equal(fn.frequencies, grid)

    def test_no_grid_anywhere_is_a_sweep_error(self):
        no_card = DECK_TEXT.replace(".AC DEC 10 1MEG 100G\n", "")
        fn = BlockedACSweep(no_card)
        with pytest.raises(SweepError, match="frequency grid"):
            fn({"VB": 0.75})

    @pytest.mark.parametrize("bad", ([], [0.0, 1e6], [-1e3], [float("nan")]))
    def test_invalid_grid_is_rejected_at_construction(self, bad):
        with pytest.raises(SweepError, match="positive"):
            BlockedACSweep(DECK_TEXT, frequencies=bad)

    def test_no_stimulus_is_an_analysis_error_both_paths(self):
        dead = DECK_TEXT.replace("DC 0.8 AC 1", "DC 0.8")
        fn = BlockedACSweep(dead, measure=ac_node_voltage("c"))
        with pytest.raises(AnalysisError) as scalar_exc:
            fn({"VB": 0.75})
        results = fn.evaluate_batch([{"VB": 0.75}, {"VB": 0.80}])
        for value, error in results:
            assert value is None
            assert isinstance(error, AnalysisError)
            assert str(error) == str(scalar_exc.value)


class TestStackedEvaluate:
    """The lane-stacked assembly under the blocked paths is bit-identical
    to per-lane scalar ``evaluate`` — per lane, per array, both
    backends."""

    @pytest.mark.parametrize("mode", ENGINES)
    def test_stacked_matches_scalar_per_lane(self, mode):
        from repro.spice.engine import BJTGroup, get_engine
        from repro.spice.dcop import solve_dc

        circuit = parse_deck(DECK_TEXT).circuit
        engine = get_engine(circuit, mode=mode)
        assert engine.supports_stacked_evaluate
        x_op = solve_dc(circuit, engine=engine)
        rng = np.random.default_rng(11)
        x_stack = x_op + rng.normal(0.0, 0.05, (6, x_op.size))
        limits_scalar = [dict() for _ in range(6)]
        history = engine.new_history(6)
        ctx = engine.evaluate_stacked(
            x_stack, gmin=1e-12, history=history, with_c=True
        )
        for k in range(6):
            ref = engine.evaluate(x_stack[k], gmin=1e-12,
                                  limits=limits_scalar[k])
            np.testing.assert_array_equal(ctx.i[k], ref.i_vec)
            np.testing.assert_array_equal(ctx.q[k], ref.q_vec)
            if mode == "sparse":
                np.testing.assert_array_equal(ctx.g[k], ref.g_mat.values)
                np.testing.assert_array_equal(ctx.c[k], ref.c_mat.values)
            else:
                np.testing.assert_array_equal(ctx.g[k], ref.g_mat)
                np.testing.assert_array_equal(ctx.c[k], ref.c_mat)
        # The stacked history, device by device in the group's name
        # order, is the scalar limits dicts' history bit for bit.
        for k in range(6):
            [group] = [key for key in limits_scalar[k]
                       if isinstance(key, BJTGroup)]
            for j, name in enumerate(group.names):
                np.testing.assert_array_equal(
                    history[k][:, j], limits_scalar[k][group][:, j],
                    err_msg=name,
                )

    @pytest.mark.parametrize("mode", ENGINES)
    def test_stacked_refuses_scalar_devices(self, mode):
        from repro.spice.dcop import Tolerances, newton_solve_batched
        from repro.spice.engine import get_engine

        circuit = parse_deck(DIODE_DECK).circuit
        engine = get_engine(circuit, mode=mode)
        assert not engine.supports_stacked_evaluate
        x = np.zeros((2, engine.size))
        with pytest.raises(AnalysisError, match="'DCL' is a scalar device"):
            engine.evaluate_stacked(x)
        with pytest.raises(AnalysisError, match="scalar device"):
            newton_solve_batched(circuit, x, Tolerances(), gmin=1e-12,
                                 engine=engine)

    @pytest.mark.parametrize("mode", ENGINES)
    def test_diode_deck_blocked_equals_scalar(self, mode):
        fn = BlockedACSweep(DIODE_DECK, measure=ac_node_voltage("c"),
                            frequencies=[1e6, 1e8, 1e10], engine=mode)
        failed = []
        for point, (value, error) in zip(DIODE_POINTS,
                                         fn.evaluate_batch(DIODE_POINTS)):
            try:
                expected = fn(point)
            except ConvergenceError as exc:
                failed.append(point)
                assert value is None and str(error) == str(exc)
            else:
                assert error is None
                np.testing.assert_array_equal(value, expected)
        assert len(failed) == 1 and np.isnan(failed[0]["VB"])

    def test_newton_batched_uses_stacked_assembly(self, monkeypatch):
        from repro.spice.engine import get_engine
        from repro.spice.dcop import Tolerances, newton_solve_batched, solve_dc

        circuit = parse_deck(DECK_TEXT).circuit
        engine = get_engine(circuit, mode="dense")
        x_op = solve_dc(circuit, engine=engine)
        x0 = np.tile(x_op, (8, 1))
        before = engine.stats.assemblies
        scalar_calls = []
        scalar_evaluate = engine.evaluate

        def evaluate(*args, **kwargs):
            scalar_calls.append(args)
            return scalar_evaluate(*args, **kwargs)

        monkeypatch.setattr(engine, "evaluate", evaluate)
        x, converged = newton_solve_batched(
            circuit, x0, Tolerances(), gmin=1e-12, engine=engine
        )
        assert converged.all()
        # One stacked assembly per iteration covers all lanes: no scalar
        # evaluate dispatch runs, and every lane still counts as one
        # assembly.
        assert scalar_calls == []
        assert engine.stats.assemblies - before >= 8
        for k in range(8):
            np.testing.assert_array_equal(x[k], x[0])


class TestEvaluatorContract:
    def test_unknown_parameter_is_a_sweep_error(self):
        fn = BlockedACSweep(DECK_TEXT)
        with pytest.raises(SweepError, match="no element named"):
            fn({"VBOGUS": 1.0})

    def test_deck_must_be_text(self):
        with pytest.raises(SweepError, match="deck text"):
            BlockedACSweep(parse_deck(DECK_TEXT))

    def test_cache_tag_distinguishes_grids_and_measures(self):
        a = BlockedACSweep(DECK_TEXT)
        b = BlockedACSweep(DECK_TEXT, frequencies=[1e6, 1e9])
        c = BlockedACSweep(DECK_TEXT, measure=ac_gain_db("c"))
        d = BlockedACSweep(DECK_TEXT + "\n* trailing comment")
        tags = {x.__cache_tag__ for x in (a, b, c, d)}
        assert len(tags) == 4
        assert all(t.startswith("repro.sweep.batched.BlockedACSweep#")
                   for t in tags)

    def test_ac_and_dc_tags_never_collide(self):
        from repro.sweep import BlockedDCSweep

        ac = BlockedACSweep(DECK_TEXT)
        dc = BlockedDCSweep(DECK_TEXT)
        assert ac.__cache_tag__ != dc.__cache_tag__

    def test_pickle_round_trip_preserves_identity(self):
        import pickle

        fn = BlockedACSweep(DECK_TEXT, measure=ac_gain_db("c"),
                            frequencies=[1e6, 1e8, 1e10])
        clone = pickle.loads(pickle.dumps(fn))
        assert clone.__cache_tag__ == fn.__cache_tag__
        np.testing.assert_array_equal(clone({"VB": 0.75}), fn({"VB": 0.75}))
