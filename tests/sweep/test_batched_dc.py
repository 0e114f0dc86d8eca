"""Batched-vs-scalar DC parity: the blocked solve must be invisible.

The contract under test: routing a sweep chunk through
``BlockedDCSweep.evaluate_batch`` (one stacked Newton for the whole
chunk) instead of per-point ``solve_dc`` calls changes *nothing*
observable — values are bit-identical, failed points produce identical
:class:`~repro.sweep.FailedPoint` records (same error repr, same
:class:`~repro.errors.ConvergenceReport` forensics, same attempt
counts), under every executor and every ``on_error`` policy.  Both
paths solve every point on the deck's one engine; the oracle they are
both held to, bit for bit, compiles the deck written at each point
into its own engine (the ``variant_oracle`` fixture).

The injected non-convergent lane is a NaN source level: a non-finite
residual defeats Newton, every gmin rung and source stepping alike, so
the failure is deterministic and identical in scalar and batched runs
(the batched path's failed lanes re-live the scalar ladder exactly).
"""

from pathlib import Path

import numpy as np
import pytest

import repro.spice.dcop as dcop
from repro.errors import AnalysisError, ConvergenceError, SweepError
from repro.spice.dcop import (
    Tolerances,
    newton_solve,
    newton_solve_batched,
    solve_dc,
    solve_dc_batched,
)
from repro.spice.engine import DenseLUSolver, SparseLUSolver, resolve_engine
from repro.spice.parser import parse_deck
from repro.sweep import BlockedDCSweep, node_voltage, run_sweep

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"
DECK_TEXT = (DECKS / "ce_stage.cir").read_text()

#: Sweep levels for the CE stage's base source; chosen to bias the BJT
#: from near-off through active so lanes converge on different paths.
VB_LEVELS = [0.55, 0.62, 0.68, 0.72, 0.75, 0.78, 0.80, 0.82]

#: The CE stage with a clamp diode on its collector: the diode rides in
#: the device group, so its blocked lanes run stacked.
DIODE_DECK = DECK_TEXT.replace(
    ".OP",
    "DCL c 0 DCLAMP\n.MODEL DCLAMP D(IS=1e-15 RS=5 CJO=2p TT=1n)\n.OP",
    1,
)

#: Diode-deck points: base levels, a NaN lane, supply re-biases and
#: collector-resistor variants.
DIODE_POINTS = [{"VB": level} for level in VB_LEVELS] + [
    {"VB": float("nan")}, {"VB": 0.75, "VCC": 3.0}, {"VCC": 1.0},
    {"VB": 0.78, "RC": 2.2e3}, {"RC": 300.0},
]

EXECUTOR_MATRIX = (
    {"executor": "serial"},
    {"executor": "process", "jobs": 2},
    {"executor": "auto"},
)


def _points(inject_failure=False):
    levels = list(VB_LEVELS)
    if inject_failure:
        levels[3] = float("nan")
    return [{"VB": level} for level in levels]


def _failure_records(result):
    # repr() the params/report: the injected level is NaN, and NaN != NaN
    # would make identical records compare unequal.
    return [
        (f.index, repr(f.params), f.error, f.error_type, f.attempts,
         repr(f.report))
        for f in result.failures
    ]


class TestBlockedSolverParity:
    """The engine-layer stack: batched Newton vs scalar Newton."""

    def test_newton_stack_bitwise_equals_scalar_lanes(self):
        deck = parse_deck(DECK_TEXT)
        circuit = deck.circuit
        circuit.assign_indices()
        engine = resolve_engine(circuit, None)
        tolerances = Tolerances()
        size = circuit.num_unknowns
        lanes = engine.at_levels(engine.stamps, circuit,
                                 [{"VB": level} for level in VB_LEVELS])

        stack, converged = newton_solve_batched(
            circuit, np.zeros((len(VB_LEVELS), size)), tolerances, 1e-12,
            engine=engine, lanes=lanes,
        )
        assert converged.all()
        for k, lane in enumerate(stack):
            scalar = newton_solve(
                circuit, np.zeros(size), tolerances, 1e-12,
                engine=engine, stamps=lanes.take([k]),
            )
            np.testing.assert_array_equal(lane, scalar)

    def test_solve_dc_batched_matches_scalar_ladder(self):
        deck = parse_deck(DECK_TEXT)
        circuit = deck.circuit
        circuit.assign_indices()
        engine = resolve_engine(circuit, None)
        lanes = engine.at_levels(engine.stamps, circuit, [
            {"VB": level} for level in [0.6, float("nan"), 0.8]])

        x, errors = solve_dc_batched(circuit, lanes)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ConvergenceError)
        assert np.isnan(x[1]).all()
        for k in (0, 2):
            np.testing.assert_array_equal(
                x[k], solve_dc(circuit, stamps=lanes.take([k]))
            )
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(circuit, stamps=lanes.take([1]))
        assert str(excinfo.value) == str(errors[1])
        assert excinfo.value.report.stage == errors[1].report.stage

    @pytest.mark.parametrize("engine", ("dense", "sparse"))
    def test_diode_deck_blocked_equals_scalar(self, engine, compile_log,
                                              variant_oracle, hexed,
                                              monkeypatch):
        fn = BlockedDCSweep(DIODE_DECK, measure=node_voltage("c"),
                            engine=engine)
        # Only the NaN lane, which stacked Newton cannot converge, takes
        # the scalar ladder.
        ladder = []
        monkeypatch.setattr(dcop, "solve_dc", lambda *args, **kwargs: (
            ladder.append(kwargs["stamps"]), solve_dc(*args, **kwargs))[1])
        results = fn.evaluate_batch(DIODE_POINTS)
        monkeypatch.setattr(dcop, "solve_dc", solve_dc)
        assert [np.isnan(lane.src).any() for lane in ladder] == [True]
        failed = []
        for point, (value, error) in zip(DIODE_POINTS, results):
            try:
                expected = fn(point)
            except ConvergenceError as exc:
                failed.append(point)
                assert value is None and str(error) == str(exc)
            else:
                assert error is None and hexed(value) == hexed(expected)
        assert len(failed) == 1 and np.isnan(failed[0]["VB"])
        assert fn.compilations() == len(compile_log) == 1
        oracle = variant_oracle(fn)
        for point in DIODE_POINTS:
            if point is not failed[0]:
                assert hexed(fn(point)) == hexed(oracle(point))

    @staticmethod
    def _systems(solver_cls, systems, as_pattern):
        """Dense stacks for dense LU, PatternMatrix lanes for sparse."""
        if solver_cls is DenseLUSolver:
            return systems
        pattern, values = as_pattern(systems)
        return [pattern.matrix(lane) for lane in values]

    @pytest.mark.parametrize("solver_cls", (DenseLUSolver, SparseLUSolver))
    def test_solve_batched_exact_bitwise_per_backend(self, solver_cls,
                                                     as_pattern):
        rng = np.random.default_rng(7)
        systems = self._systems(
            solver_cls, rng.standard_normal((5, 6, 6)) + 3.0 * np.eye(6),
            as_pattern)
        rhs = rng.standard_normal((5, 6))
        solver = solver_cls()
        batched = solver.solve_batched_exact(systems, rhs)
        for k in range(5):
            np.testing.assert_array_equal(
                batched[k], solver.solve(systems[k], rhs[k])
            )

    @pytest.mark.parametrize("solver_cls", (DenseLUSolver, SparseLUSolver))
    def test_solve_batched_exact_nan_fills_singular_lane(self, solver_cls,
                                                         as_pattern):
        systems = self._systems(
            solver_cls,
            np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)]),
            as_pattern)
        rhs = np.ones((3, 3))
        out = solver_cls().solve_batched_exact(systems, rhs)
        np.testing.assert_array_equal(out[0], np.ones(3))
        assert np.isnan(out[1]).all()
        np.testing.assert_array_equal(out[2], 0.5 * np.ones(3))


class TestSweepParityMatrix:
    """Every executor x every on_error policy x an injected bad lane."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        return BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))

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
        assert run.values == reference.values
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
    def test_clean_sweep_bit_identical(self, evaluator, backend,
                                       variant_oracle, hexed):
        reference = run_sweep(evaluator, _points(), batch=False,
                              chunk_size=3)
        run = run_sweep(evaluator, _points(), batch="auto", chunk_size=3,
                        **backend)
        assert hexed(run.values) == hexed(reference.values)
        assert run.ok
        oracle = variant_oracle(evaluator)
        assert hexed(reference.values) == hexed([oracle(p)
                                                 for p in _points()])


class TestBatchOptIn:
    def test_batch_true_is_an_unknown_value(self):
        # "auto" and False are the only settings: True is refused like
        # any other value, whether or not the function can batch.
        for fn in (lambda p: p["VB"], BlockedDCSweep(DECK_TEXT)):
            for value in (True, "yes"):
                with pytest.raises(AnalysisError, match="'auto' or False"):
                    run_sweep(fn, [{"VB": 0.8}], batch=value)

    def test_batch_false_uses_scalar_path(self):
        calls = []

        class Spy(BlockedDCSweep):
            def evaluate_batch(self, chunk_params):
                calls.append(len(chunk_params))
                return super().evaluate_batch(chunk_params)

        spy = Spy(DECK_TEXT, measure=node_voltage("c"))
        run_sweep(spy, _points(), batch=False, chunk_size=4)
        assert calls == []
        run_sweep(spy, _points(), batch="auto", chunk_size=4)
        assert sum(calls) == len(VB_LEVELS)

    def test_seeded_points_fall_back_to_scalar(self):
        calls = []

        class Spy(BlockedDCSweep):
            def evaluate_batch(self, chunk_params):
                calls.append(len(chunk_params))
                return super().evaluate_batch(chunk_params)

            def __call__(self, params, attempt=0, rng=None):
                return super().__call__(params, attempt=attempt)

        from repro.sweep import SweepPoint

        spy = Spy(DECK_TEXT, measure=node_voltage("c"))
        points = [SweepPoint(index=i, params={"VB": v}, seed=i)
                  for i, v in enumerate(VB_LEVELS)]
        result = run_sweep(spy, points, batch="auto", chunk_size=4)
        assert calls == []
        assert result.ok

    def test_unknown_parameter_is_a_sweep_error(self):
        fn = BlockedDCSweep(DECK_TEXT)
        with pytest.raises(SweepError, match="no element named"):
            fn({"VBOGUS": 1.0})

    def test_non_source_parameter_is_a_sweep_error(self):
        # Sources re-bias and R/L/C values select a compiled variant;
        # anything else (here the nonlinear BJT) has no point value.
        fn = BlockedDCSweep(DECK_TEXT)
        with pytest.raises(SweepError,
                           match="independent DC source or a linear"):
            fn({"Q1": 1.0})
        (value, error), = fn.evaluate_batch([{"Q1": 1.0}])
        assert value is None and isinstance(error, SweepError)

    def test_deck_must_be_text(self):
        with pytest.raises(SweepError, match="deck text"):
            BlockedDCSweep(parse_deck(DECK_TEXT))


class TestCacheTag:
    def test_cache_tag_distinguishes_decks_and_measures(self):
        a = BlockedDCSweep(DECK_TEXT)
        b = BlockedDCSweep(DECK_TEXT + "\n* trailing comment")
        c = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        tags = {a.__cache_tag__, b.__cache_tag__, c.__cache_tag__}
        assert len(tags) == 3

    def test_run_sweep_cache_uses_the_tag(self):
        from repro.sweep import ResultCache
        from repro.sweep.orchestrator import _evaluation_tag

        fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        assert _evaluation_tag(fn, require_code=True) == fn.__cache_tag__

        cache = ResultCache()
        first = run_sweep(fn, _points(), cache=cache, chunk_size=4)
        second = run_sweep(fn, _points(), cache=cache, chunk_size=4)
        assert second.values == first.values
        assert second.stats.cache_hits == len(VB_LEVELS)
        assert second.stats.evaluated == 0

    def test_pickle_round_trip_preserves_identity(self):
        import pickle

        fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        clone = pickle.loads(pickle.dumps(fn))
        assert clone.__cache_tag__ == fn.__cache_tag__
        assert clone({"VB": 0.75}) == fn({"VB": 0.75})


#: A resistive divider: V(out) = V1 * R2 / (R1 + R2) in closed form.
DIVIDER = """* resistive divider
V1 in 0 DC 10
R1 in out 1k
R2 out 0 1k
.OP
.END
"""


class TestPassiveValues:
    """An R/L/C value in a DC point selects a variant of the deck, a
    lane of its one engine, so the operating point is that of the
    edited circuit."""

    POINTS = [{"R2": 500.0}, {"R2": 1e3}, {"R2": 4.7e3, "V1": 3.0},
              {"V1": 7.5}, {"R2": 2.2e3}]

    @staticmethod
    def _closed_form(point):
        v1, r2 = point.get("V1", 10.0), point.get("R2", 1e3)
        return v1 * r2 / (1e3 + r2)

    def test_divider_matches_closed_form_both_paths(self, variant_oracle,
                                                    hexed):
        fn = BlockedDCSweep(DIVIDER, measure=node_voltage("out"))
        scalar = [fn(point) for point in self.POINTS]
        batched = fn.evaluate_batch(self.POINTS)
        oracle = variant_oracle(fn)
        for point, value, (lane, error) in zip(self.POINTS, scalar,
                                               batched):
            assert error is None
            assert hexed(lane) == hexed(value) == hexed(oracle(point))
            assert value == pytest.approx(self._closed_form(point),
                                          rel=1e-9)

    def test_sweep_points_compile_no_variant(self, compile_log):
        fn = BlockedDCSweep(DIVIDER, measure=node_voltage("out"))
        assert fn.prime() == 1
        fn.evaluate_batch(self.POINTS)
        # Blocked: every R2 value rides as a lane of the deck's engine.
        assert fn.compilations() == len(compile_log) == 1
        assert fn.prime() == 1
        # Scalar: a point's passive values build a variant, dropped
        # after the call that built it, and solve under its lane stamps
        # on the same engine.
        fn({"R2": 500.0})
        fn({"R2": 500.0})
        assert fn.compilations() == len(compile_log) == 1

    def test_scalar_points_with_distinct_values_compile_once(
            self, compile_log):
        fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        for k in range(20):
            fn({"RC": 800.0 + 20.0 * k})
        assert fn.compilations() == len(compile_log) == 1

    @pytest.mark.parametrize("value", (0.0, -1.0, float("nan")))
    def test_invalid_resistance_fails_its_lane_only(self, value):
        fn = BlockedDCSweep(DIVIDER, measure=node_voltage("out"))
        with pytest.raises(SweepError, match="must be finite"):
            fn({"R2": value})
        bad, good = fn.evaluate_batch([{"R2": value}, {"R2": 500.0}])
        assert bad[0] is None and isinstance(bad[1], SweepError)
        assert good == (fn({"R2": 500.0}), None)


class TestDeckOptions:
    """``.OPTIONS SOLVER=`` and ``PERMC=`` reach the one engine each deck
    evaluator compiles, which serves every variant."""

    DECK = DECK_TEXT.replace(
        ".OP", ".OPTIONS SOLVER=sparse PERMC=NATURAL\n.OP", 1)

    def test_every_compile_honours_the_options(self, compile_log):
        from repro.sweep import BlockedACSweep
        from repro.verify import (
            CornerEvaluator,
            corners_from_tolerances,
            dc_voltage,
        )

        dc = BlockedDCSweep(self.DECK, measure=node_voltage("c"))
        ac = BlockedACSweep(self.DECK, frequencies=[1e6, 1e9])
        for fn in (dc, ac):
            fn({"VB": 0.8})
            fn({"VB": 0.8, "RC": 1.2e3})
        corners = CornerEvaluator(
            self.DECK, corners_from_tolerances({"VCC": (5.0, 0.1)},
                                               passive_tols={"R": 0.1}),
            (dc_voltage("v_c", "c"),))
        # Each evaluator compiles the deck once and rides every variant
        # (the R variants of the scalar calls, the corners) as lanes.
        assert corners.prime() == 9
        assert len(compile_log) == 2 + 1
        assert set(compile_log) == {("sparse", "NATURAL")}

    def test_engine_argument_overrides_the_deck(self, compile_log):
        BlockedDCSweep(self.DECK, engine="dense")({"VB": 0.8})
        assert compile_log == [("dense", None)]


#: The CE stage with no DC source at all: its supply and bias are
#: PULSE waveforms held at their DC values, and a quiet input source
#: stands from ground to a node.  The compile adds no source vector to
#: its residual, so a -0.0 entry stays -0.0.
NO_DC_DECK = DECK_TEXT.replace(
    "VCC vcc 0 5", "VCC vcc 0 PULSE(5 5 0 1n 1n 1u 2u)").replace(
    "VB b 0 DC 0.8 AC 1",
    "VB b 0 PULSE(0.8 0.8 0 1n 1n 1u 2u) AC 1\n"
    "VIN 0 in PULSE(0 1 1n 1n 1n 5n 10n)\nRIN in b 10k")


class TestSignedZeros:
    """Both paths and the oracle agree to the sign of every zero: a lane
    whose DC levels are all 0 V adds its +0.0 source vector as the
    deck written at 0 V does, and a deck with no DC source adds none."""

    @pytest.mark.parametrize("deck, points", (
        (DECK_TEXT, [{"VB": 0.0, "VCC": 0.0}, {"VB": -0.0, "VCC": 0.0},
                     {"VB": 0.8}]),
        (NO_DC_DECK, [{}, {"RC": 2e3}, {"RIN": 1e3}]),
    ), ids=("zero-levels", "no-dc-source"))
    @pytest.mark.parametrize("kind", ("dc", "ac"))
    def test_both_paths_are_the_written_deck(self, deck, points, kind,
                                             variant_oracle, hexed):
        from repro.sweep import BlockedACSweep

        fn = (BlockedDCSweep(deck) if kind == "dc"
              else BlockedACSweep(deck, frequencies=[1e3, 1e9]))
        oracle = variant_oracle(fn)
        want = hexed([oracle(point) for point in points])
        assert hexed([value for value, _ in fn.evaluate_batch(points)]) \
            == want
        assert hexed([fn(point) for point in points]) == want


def test_source_lanes_share_one_lane_of_values(monkeypatch, hexed):
    """A 1000-point VB sweep runs as one stacked Newton block whose
    1000 lanes share the deck's one lane of values: only their source
    vectors are their own."""
    seen = []
    original = dcop.newton_solve_batched

    def spy(circuit, x0, *args, lanes=None, **kwargs):
        seen.append((len(x0), len(lanes), len(lanes.g0)))
        return original(circuit, x0, *args, lanes=lanes, **kwargs)

    monkeypatch.setattr(dcop, "newton_solve_batched", spy)
    fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
    points = [{"VB": 0.6 + 0.25 * k / 999} for k in range(1000)]
    result = run_sweep(fn, points)
    assert result.ok and result.stats.chunks == 1
    assert seen == [(1000, 1000, 1)]
    assert fn.compilations() == 1
    assert hexed([result.values[k] for k in (0, 500, 999)]) == hexed(
        [fn(points[k]) for k in (0, 500, 999)])
