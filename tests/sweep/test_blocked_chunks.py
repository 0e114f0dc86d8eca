"""One lane block per in-process blocked sweep, bounded by the byte budget.

A blocked sweep pays its stacked solver's fixed cost once per chunk, so
``run_sweep`` runs a batch-capable evaluation as one chunk on the
serial executor, and under ``auto`` up to
:data:`repro.sweep.costmodel.BLOCKED_SERIAL_POINTS` points, with no
probe; a larger ``auto`` sweep is probed, then planned.  Memory is
bounded by the deck evaluator instead:
each variant group is solved in lane blocks whose stacked Jacobians fit
:data:`repro.spice.ac.MAX_BLOCK_BYTES`.  Values are bit-identical under
every chunking and every budget.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.spice.ac as spice_ac
import repro.spice.dcop as dcop
from repro.spice.engine import DenseLUSolver, SparseLUSolver, compile_circuit
from repro.spice.parser import parse_deck
from repro.sweep import costmodel
from repro.sweep import (
    BlockedACSweep,
    BlockedDCSweep,
    ResultCache,
    ac_gain_db,
    node_voltage,
    run_sweep,
)
from repro.verify import (
    CornerEvaluator,
    default_corners,
    default_measurements,
    qualify_deck,
)

DECK_TEXT = (Path(__file__).resolve().parents[2] / "examples" / "decks"
             / "ce_stage.cir").read_text()

POINTS = [{"VB": 0.6 + 0.005 * k} for k in range(40)]


def _evaluator(kind: str, engine: str | None = None):
    if kind == "dc":
        return BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"),
                              engine=engine)
    return BlockedACSweep(DECK_TEXT, measure=ac_gain_db("c"),
                          engine=engine)


def _assert_same_values(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.fixture
def batch_calls(monkeypatch):
    """Patch an evaluator's ``evaluate_batch`` to record chunk sizes."""

    def spy_on(evaluator):
        calls = []
        original = evaluator.evaluate_batch

        def spy(chunk):
            calls.append(len(chunk))
            return original(chunk)

        monkeypatch.setattr(evaluator, "evaluate_batch", spy)
        return calls

    return spy_on


@pytest.fixture
def newton_calls(monkeypatch):
    """Record the lane count of every stacked Newton run."""
    calls = []
    original = dcop.newton_solve_batched

    def spy(circuit, x0, *args, **kwargs):
        calls.append(len(x0))
        return original(circuit, x0, *args, **kwargs)

    monkeypatch.setattr(dcop, "newton_solve_batched", spy)
    return calls


@pytest.mark.parametrize("kind", ("dc", "ac"))
class TestOneBlockPerSweep:
    def test_serial_sweep_is_one_chunk(self, kind, batch_calls):
        reference = run_sweep(_evaluator(kind), POINTS, chunk_size=3)
        evaluator = _evaluator(kind)
        calls = batch_calls(evaluator)
        result = run_sweep(evaluator, POINTS)
        assert calls == [len(POINTS)]
        assert result.stats.chunks == 1
        _assert_same_values(result.values, reference.values)

    @pytest.mark.parametrize("limit", (None, len(POINTS)))
    def test_auto_runs_a_small_blocked_sweep_as_one_serial_block(
            self, kind, batch_calls, monkeypatch, limit):
        if limit is not None:  # the rule includes its bound
            monkeypatch.setattr(costmodel, "BLOCKED_SERIAL_POINTS", limit)
        assert len(POINTS) <= costmodel.BLOCKED_SERIAL_POINTS
        reference = run_sweep(_evaluator(kind), POINTS, chunk_size=3)
        evaluator = _evaluator(kind)
        calls = batch_calls(evaluator)
        # Two workers: only the rule keeps the sweep serial and unprobed.
        result = run_sweep(evaluator, POINTS, executor="auto", jobs=2)
        assert calls == [len(POINTS)]
        assert result.stats.executor == "serial"
        assert result.stats.chunks == 1
        assert "BLOCKED_SERIAL_POINTS" in result.stats.plan
        _assert_same_values(result.values, reference.values)

    def test_auto_probes_a_blocked_sweep_past_the_rule(
            self, kind, batch_calls, monkeypatch):
        monkeypatch.setattr(costmodel, "BLOCKED_SERIAL_POINTS",
                            len(POINTS) - 1)
        reference = run_sweep(_evaluator(kind), POINTS, chunk_size=3)
        evaluator = _evaluator(kind)
        calls = batch_calls(evaluator)
        # One worker: the plan after the probe can only be serial.
        result = run_sweep(evaluator, POINTS, executor="auto", jobs=1)
        assert result.stats.plan.startswith("serial")
        assert "BLOCKED_SERIAL_POINTS" not in result.stats.plan
        assert len(calls) == 2 and sum(calls) == len(POINTS)
        _assert_same_values(result.values, reference.values)

    def test_cached_points_leave_one_chunk_of_misses(self, kind,
                                                     batch_calls):
        cache = ResultCache()
        run_sweep(_evaluator(kind), POINTS[::2], cache=cache)
        evaluator = _evaluator(kind)
        calls = batch_calls(evaluator)
        result = run_sweep(evaluator, POINTS, cache=cache)
        assert calls == [len(POINTS) // 2]
        assert result.stats.cache_hits == len(POINTS) // 2


def test_serial_qualification_runs_one_newton_per_variant(newton_calls):
    corners = default_corners(DECK_TEXT)
    measurements = default_measurements(DECK_TEXT)
    reference = qualify_deck(DECK_TEXT, corners, measurements,
                             executor="serial", chunk_size=3)
    evaluator = CornerEvaluator(DECK_TEXT, corners, measurements)
    newton_calls.clear()
    report = qualify_deck(DECK_TEXT, corners, measurements,
                          executor="serial", evaluator=evaluator)
    assert len(newton_calls) == evaluator.compilations() < len(corners)
    assert sum(newton_calls) == len(corners)
    assert ([o.to_dict() for o in report.outcomes]
            == [o.to_dict() for o in reference.outcomes])


@pytest.mark.parametrize("engine", ("dense", "sparse"))
@pytest.mark.parametrize("kind", ("dc", "ac"))
def test_byte_budget_splits_lanes_and_frequencies(kind, engine, monkeypatch,
                                                  newton_calls):
    reference = run_sweep(_evaluator(kind, engine), POINTS, chunk_size=3)
    compiled = compile_circuit(parse_deck(DECK_TEXT).circuit, engine)
    per_lane = 8 * (compiled.pattern.nnz if engine == "sparse"
                    else compiled.size ** 2)
    # 13 real Jacobians fit the budget: the 40 lanes run as 4 Newton
    # blocks, and a complex frequency block holds at most 6 systems.
    monkeypatch.setattr(spice_ac, "MAX_BLOCK_BYTES", 13 * per_lane)
    stacks = []
    # (owner, method, position of the system stack among its arguments)
    for owner, name, at in ((DenseLUSolver, "solve_batched", 0),
                            (SparseLUSolver, "solve_pattern_batched", 1)):
        original = getattr(owner, name)

        def spy(self, *args, _original=original, _at=at, **kwargs):
            stacks.append(len(args[_at]))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    newton_calls.clear()
    result = run_sweep(_evaluator(kind, engine), POINTS)
    assert result.stats.chunks == 1
    assert newton_calls == [13, 13, 13, 1]
    if kind == "ac":
        assert len(stacks) > len(newton_calls)
        assert max(stacks) <= 6
    _assert_same_values(result.values, reference.values)
