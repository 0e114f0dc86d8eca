"""The sweep orchestrator: chunking, caching, stats."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.sweep import (
    MonteCarloSampler,
    ParameterGrid,
    ResultCache,
    SerialExecutor,
    resolve_executor,
    run_sweep,
)

# Module-level evaluation functions so the process executor can pickle
# them (the same constraint the library's own callers live under).

_CALLS = []


def _square(params):
    _CALLS.append(params["x"])
    return params["x"] ** 2


def _draw(params, rng):
    return float(rng.standard_normal())


def _shifted(params, shift=0.0):
    return params["x"] + shift


class TestRunSweepBasics:
    def test_values_in_point_order(self):
        result = run_sweep(_square, [{"x": i} for i in range(7)])
        assert result.values == [i ** 2 for i in range(7)]
        assert len(result) == 7

    def test_accepts_grid_and_sampler(self):
        grid = ParameterGrid({"x": [1, 2, 3]})
        assert run_sweep(_square, grid).values == [1, 4, 9]
        sampler = MonteCarloSampler(4, seed=0)
        draws = run_sweep(_draw, sampler).values
        assert len(set(draws)) == 4

    def test_empty_sweep(self):
        result = run_sweep(_square, [])
        assert result.values == []
        assert result.stats.points == 0

    def test_bad_point_type_rejected(self):
        with pytest.raises(AnalysisError):
            run_sweep(_square, [("x", 1)])

    def test_bad_chunk_size_rejected(self):
        # Non-integers once failed inside the comparison or ``range``
        # (a TypeError), and True ran as a chunk size of 1.
        for chunk_size in (0, "4", 2.5, True):
            with pytest.raises(AnalysisError):
                run_sweep(_square, [{"x": 1}], chunk_size=chunk_size)

    def test_value_and_param_arrays(self):
        result = run_sweep(_square, [{"x": i} for i in range(4)])
        np.testing.assert_array_equal(result.value_array(),
                                      [0.0, 1.0, 4.0, 9.0])
        np.testing.assert_array_equal(result.param_array("x"),
                                      [0, 1, 2, 3])

    def test_param_array_unknown_name_names_the_available(self):
        result = run_sweep(_square, [{"x": 1}, {"x": 2}])
        with pytest.raises(AnalysisError, match=r"'y'.*\['x'\]"):
            result.param_array("y")

    def test_param_array_partial_coverage_rejected(self):
        # A parameter only *some* points carry is as unusable as a
        # missing one — the column would have holes.
        result = run_sweep(_square, [{"x": 1}, {"x": 2, "extra": 3}])
        with pytest.raises(AnalysisError, match="extra"):
            result.param_array("extra")


class TestCaching:
    def test_second_run_served_from_cache(self):
        cache = ResultCache()
        points = [{"x": i} for i in range(5)]
        _CALLS.clear()
        first = run_sweep(_square, points, cache=cache)
        assert first.stats.evaluated == 5
        assert len(_CALLS) == 5
        second = run_sweep(_square, points, cache=cache)
        assert second.values == first.values
        assert second.stats.evaluated == 0
        assert second.stats.cache_hits == 5
        assert len(_CALLS) == 5  # nothing re-evaluated

    def test_partial_overlap_evaluates_only_new_points(self):
        cache = ResultCache()
        run_sweep(_square, [{"x": i} for i in range(3)], cache=cache)
        _CALLS.clear()
        result = run_sweep(_square, [{"x": i} for i in range(5)],
                           cache=cache)
        assert result.values == [i ** 2 for i in range(5)]
        assert sorted(_CALLS) == [3, 4]
        assert result.stats.cache_hits == 3

    def test_cache_tag_separates_evaluations(self):
        cache = ResultCache()
        run_sweep(_square, [{"x": 2}], cache=cache, cache_tag="a")
        result = run_sweep(_square, [{"x": 2}], cache=cache,
                           cache_tag="b")
        assert result.stats.cache_hits == 0

    def test_seeded_points_cache_by_stream(self):
        cache = ResultCache()
        first = run_sweep(_draw, MonteCarloSampler(4, seed=1),
                          cache=cache)
        second = run_sweep(_draw, MonteCarloSampler(4, seed=1),
                           cache=cache)
        assert second.values == first.values
        assert second.stats.cache_hits == 4
        third = run_sweep(_draw, MonteCarloSampler(4, seed=2),
                          cache=cache)
        assert third.stats.cache_hits == 0

    def test_partial_bound_arguments_distinguish_tags(self):
        import functools

        cache = ResultCache()
        run_sweep(functools.partial(_shifted), [{"x": 1.0}], cache=cache)
        result = run_sweep(functools.partial(_shifted, shift=2.0),
                           [{"x": 1.0}], cache=cache)
        assert result.stats.cache_hits == 0

    def test_distinct_lambdas_get_distinct_tags(self):
        # Regression: two lambdas share __qualname__ ("<lambda>"), so a
        # name-only tag made the second sweep silently serve the first's
        # cached results.  The tag now hashes the compiled bytecode.
        cache = ResultCache()
        first = run_sweep(lambda p: p["x"] * 2, [{"x": 3}], cache=cache)
        second = run_sweep(lambda p: p["x"] * 10, [{"x": 3}], cache=cache)
        assert first.values == [6]
        assert second.values == [30]
        assert second.stats.cache_hits == 0

    def test_identical_code_still_shares_cache(self):
        from repro.sweep.orchestrator import _evaluation_tag

        # Same bytecode -> same tag: re-defining the same lambda must
        # not defeat caching.
        assert (_evaluation_tag(lambda p: p["x"] * 2)
                == _evaluation_tag(lambda p: p["x"] * 2))

    def test_codeless_callable_requires_explicit_tag(self):
        cache = ResultCache()
        with pytest.raises(AnalysisError) as excinfo:
            run_sweep(abs, [{"x": 1}], cache=cache)
        assert "cache_tag" in str(excinfo.value)
        # An explicit tag opts back in (the evaluation itself fails on
        # the params dict, so use a trivial wrapper-free callable check
        # at tag level only).
        from repro.sweep.orchestrator import _evaluation_tag

        with pytest.raises(AnalysisError):
            _evaluation_tag(abs, require_code=True)
        assert _evaluation_tag(abs) == "builtins.abs"


class TestStats:
    def test_counts_and_summary(self):
        result = run_sweep(_square, [{"x": i} for i in range(10)],
                           chunk_size=4)
        stats = result.stats
        assert stats.points == 10
        assert stats.evaluated == 10
        assert stats.chunks == 3
        assert stats.executor == "serial"
        assert stats.wall_seconds > 0.0
        assert stats.points_per_second() > 0.0
        assert "10 points" in stats.summary()
        assert set(stats.as_dict()) == {
            "points", "evaluated", "cache_hits", "chunks", "workers",
            "executor", "wall_seconds", "point_seconds",
            "failures", "retries", "executor_faults", "on_error",
            "payload_bytes", "spinup_seconds", "chunk_p50_seconds",
            "chunk_p99_seconds", "plan",
        }


class TestExecutorResolution:
    def test_default_is_serial(self):
        assert resolve_executor(None, None).name == "serial"
        assert resolve_executor(None, 1).name == "serial"

    def test_jobs_selects_process_pool(self):
        backend = resolve_executor(None, 4)
        assert backend.name == "process"
        assert backend.workers == 4

    def test_names_resolve(self):
        assert resolve_executor("serial").name == "serial"
        assert resolve_executor("process", 3).workers == 3

    def test_instance_passthrough(self):
        backend = SerialExecutor()
        assert resolve_executor(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_executor("gpu")
