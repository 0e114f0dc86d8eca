"""Tests for the derivative-free optimizers (repro.optimize.optimizers)."""

import math

import pytest

from repro.errors import AnalysisError, ConvergenceError, DesignError
from repro.optimize import (
    BoundKind,
    DEFAULT_FAILURE_PENALTY,
    Parameter,
    Spec,
    SpecSet,
    coordinate_search,
    differential_evolution,
    nelder_mead,
    spec_objective,
)
from repro.sweep import ResultCache


def quadratic(params):
    """Smooth convex bowl with the optimum inside the box."""
    return (params["x"] - 0.7) ** 2 + (params["y"] + 0.3) ** 2


def flaky(params):
    """Diverges on half the domain — exercises failure tolerance."""
    if params["x"] > 0.5:
        raise ConvergenceError("solver diverged")
    return (params["x"] + 0.4) ** 2


def noisy(params, rng=None):
    """Stochastic objective: declares rng, gets a per-candidate stream."""
    return (params["x"] - 0.2) ** 2 + 1e-9 * rng.standard_normal()


BOX = [Parameter("x", -2.0, 2.0), Parameter("y", -2.0, 2.0)]


class TestParameter:
    def test_linear_decode_encode(self):
        p = Parameter("r", 100.0, 300.0)
        assert p.decode(0.0) == pytest.approx(100.0)
        assert p.decode(1.0) == pytest.approx(300.0)
        assert p.encode(p.decode(0.37)) == pytest.approx(0.37)

    def test_log_decode_is_geometric(self):
        p = Parameter("i", 1e-5, 1e-2, log=True)
        # Midpoint of a log axis is the geometric mean.
        mid = p.decode(0.5)
        assert mid == pytest.approx(math.sqrt(1e-5 * 1e-2))
        assert p.encode(mid) == pytest.approx(0.5)

    def test_decode_clips_to_bounds(self):
        p = Parameter("r", 1.0, 2.0)
        assert p.decode(-0.5) == pytest.approx(1.0)
        assert p.decode(1.5) == pytest.approx(2.0)

    def test_initial_unit(self):
        assert Parameter("x", 0.0, 10.0).initial_unit() == pytest.approx(0.5)
        assert Parameter("x", 0.0, 10.0, initial=2.5).initial_unit() == \
            pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(DesignError):
            Parameter("x", 2.0, 1.0)
        with pytest.raises(DesignError):
            Parameter("x", -1.0, 1.0, log=True)
        with pytest.raises(DesignError):
            Parameter("x", 0.0, 1.0, initial=2.0)


class TestOptimizersFindTheMinimum:
    def test_coordinate_search(self):
        result = coordinate_search(quadratic, BOX)
        assert result.best_value < 1e-3
        assert result.best_params["x"] == pytest.approx(0.7, abs=0.05)
        assert result.converged

    def test_nelder_mead(self):
        result = nelder_mead(quadratic, BOX)
        assert result.best_value < 1e-5
        assert result.best_params["y"] == pytest.approx(-0.3, abs=0.01)
        assert result.converged

    def test_differential_evolution(self):
        result = differential_evolution(quadratic, BOX, seed=7,
                                        population=12, generations=40)
        assert result.best_value < 1e-3
        assert result.best_params["x"] == pytest.approx(0.7, abs=0.05)

    def test_history_is_monotone_nonincreasing(self):
        result = differential_evolution(quadratic, BOX, seed=7,
                                        population=8, generations=15)
        assert all(b <= a + 1e-15
                   for a, b in zip(result.history, result.history[1:]))


class TestDeterminism:
    def test_de_bit_identical_across_executors(self):
        """Acceptance: fixed seed -> bit-identical DE results on the
        serial and process executors."""
        runs = {
            name: differential_evolution(
                quadratic, BOX, seed=3, population=10, generations=20,
                executor=executor, jobs=jobs)
            for name, executor, jobs in (
                ("serial", None, None),
                ("process", "process", 2),
            )
        }
        reference = runs["serial"]
        for name, result in runs.items():
            assert result.best_value == reference.best_value, name
            assert result.best_params == reference.best_params, name
            assert result.history == reference.history, name

    def test_de_stochastic_objective_deterministic(self):
        serial = differential_evolution(noisy, [Parameter("x", -1, 1)],
                                        seed=5, population=8,
                                        generations=10)
        parallel = differential_evolution(noisy, [Parameter("x", -1, 1)],
                                          seed=5, population=8,
                                          generations=10,
                                          executor="process", jobs=2)
        assert serial.best_value == parallel.best_value
        assert serial.best_params == parallel.best_params

    def test_different_seeds_differ(self):
        a = differential_evolution(quadratic, BOX, seed=1, population=8,
                                   generations=5)
        b = differential_evolution(quadratic, BOX, seed=2, population=8,
                                   generations=5)
        assert a.history != b.history


class TestFailureTolerance:
    def test_convergence_error_is_penalized_not_fatal(self):
        """Acceptance: a candidate raising ConvergenceError costs the
        failure penalty; the run continues and still finds the optimum
        in the feasible half."""
        result = differential_evolution(flaky, [Parameter("x", -1, 1)],
                                        seed=1, population=8,
                                        generations=15)
        assert result.failed_evaluations > 0
        assert result.best_value < 1e-2
        assert result.best_params["x"] == pytest.approx(-0.4, abs=0.05)

    def test_failure_penalty_value_charged(self):
        def always_fails(params):
            raise ConvergenceError("no dice")

        result = coordinate_search(always_fails, [Parameter("x", 0, 1)],
                                   max_iterations=3)
        assert result.best_value == DEFAULT_FAILURE_PENALTY
        assert result.failed_evaluations == result.evaluations


class TestCacheIntegration:
    def test_pattern_search_hits_the_cache(self):
        cache = ResultCache()
        first = coordinate_search(quadratic, BOX, cache=cache)
        again = coordinate_search(quadratic, BOX, cache=cache)
        assert again.cache_hits > 0
        assert again.best_value == first.best_value


class TestSpecObjective:
    def build(self):
        specs = SpecSet("amp", [
            Spec("gain", 5.0, BoundKind.LOWER),
            Spec("power", 2.0, BoundKind.UPPER),
        ])
        return spec_objective(specs, _measure_amp)

    def test_feasible_region_is_near_zero(self):
        objective = self.build()
        assert objective({"g": 8.0}) < 1e-6  # gain 8, power 0.8: both met

    def test_violations_cost(self):
        objective = self.build()
        assert objective({"g": 3.0}) > objective({"g": 8.0})

    def test_extra_cost_breaks_ties(self):
        specs = SpecSet("amp", [Spec("gain", 5.0, BoundKind.LOWER)])
        objective = spec_objective(specs, _measure_amp, _power_of)
        # Both feasible; the lower-power one must score lower.
        assert objective({"g": 6.0}) < objective({"g": 9.0})

    def test_optimizable(self):
        result = nelder_mead(self.build(), [Parameter("g", 0.0, 20.0)])
        measurements = _measure_amp(result.best_params)
        assert measurements["gain"] >= 5.0 - 1e-6
        assert measurements["power"] <= 2.0 + 1e-6


def _measure_amp(params):
    g = params["g"]
    return {"gain": g, "power": 0.1 * g}


def _power_of(params, measurements):
    return 0.05 * measurements["power"]


class TestValidation:
    def test_needs_parameters(self):
        with pytest.raises(DesignError):
            coordinate_search(quadratic, [])

    def test_duplicate_parameter_names(self):
        with pytest.raises(DesignError):
            nelder_mead(quadratic, [Parameter("x", 0, 1),
                                    Parameter("x", 0, 2)])

    def test_de_population_floor(self):
        with pytest.raises(DesignError):
            differential_evolution(quadratic, BOX, population=2)

    def test_unknown_executor_raises(self):
        with pytest.raises(AnalysisError, match="unknown executor"):
            coordinate_search(quadratic, BOX, executor="thread")
