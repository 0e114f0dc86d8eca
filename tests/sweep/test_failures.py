"""Fault tolerance: injected failures must not kill a sweep.

Covers the ``on_error`` policies under every executor, retry semantics
(including the ``attempt=`` escalation protocol and retry exhaustion),
:class:`FailedPoint` picklability, partial-result caching, and the
200-point Monte-Carlo acceptance scenario.
"""

import pickle

import numpy as np
import pytest

from repro.errors import AnalysisError, ConvergenceError, ConvergenceReport
from repro.sweep import (
    FailedPoint,
    MonteCarloSampler,
    ResultCache,
    run_sweep,
)

EXECUTORS = ("serial", "process")


def _report(stage="newton"):
    return ConvergenceReport(stage=stage, iterations=13, residual=4.2e3,
                             worst_index=1, worst_name="V(out)")


# Module-level evaluation functions (the process executor pickles them).

def _clean(params):
    return params["x"] * 1.5


def _flaky(params):
    # Deterministic injected failure: same points fail on every run,
    # whatever the executor or chunking.
    if params["x"] % 13 == 5:
        raise ConvergenceError(f"injected at x={params['x']}",
                               report=_report())
    return params["x"] * 1.5


def _flaky_type_error(params):
    if params["x"] == 3:
        raise ValueError("not a convergence failure")
    return params["x"]


def _heals_on_attempt(params, attempt=0):
    # The escalation protocol: fails until the sweep engine retries with
    # a high enough ``attempt``, the way solve_dc(attempt=) relaxes its
    # gmin ladder.
    if params["x"] % 4 == 0 and attempt < 2:
        raise ConvergenceError(f"needs attempt>=2, got {attempt}",
                               report=_report())
    return params["x"] + 0.5


class _BlockedHealsOnAttempt:
    """Batch-capable twin of :func:`_heals_on_attempt`.

    Every first attempt comes from ``evaluate_batch``, whose lanes fail
    with the very error the scalar call would raise; every retry is a
    scalar call, which refuses to serve a first attempt.
    """

    supports_batch = True

    def __call__(self, params, attempt=0):
        if attempt == 0:
            raise RuntimeError("a first attempt bypassed evaluate_batch")
        return _heals_on_attempt(params, attempt)

    def evaluate_batch(self, chunk_params):
        outcomes = []
        for params in chunk_params:
            try:
                outcomes.append((_heals_on_attempt(params), None))
            except ConvergenceError as exc:
                outcomes.append((None, exc))
        return outcomes


#: The plain escalating function and its blocked twin.
HEALERS = (_heals_on_attempt, _BlockedHealsOnAttempt())


def _never_heals(params):
    if params["x"] % 4 == 0:
        raise ConvergenceError("hopeless", report=_report())
    return params["x"] + 0.5


def _mc_clean(params, rng):
    return float(rng.standard_normal())


def _mc_flaky(params, rng):
    # ~5% injected failure rate: the draw is a deterministic function of
    # the point's seed, so the failing subset is fixed per (seed, index).
    value = float(rng.standard_normal())
    if value > 1.9:
        raise ConvergenceError(f"injected at draw {value:.3f}",
                               report=_report())
    return value


POINTS = [{"x": i} for i in range(40)]
FAIL_XS = [x for x in range(40) if x % 13 == 5]


class TestPolicies:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_raise_aborts(self, executor):
        with pytest.raises(ConvergenceError):
            run_sweep(_flaky, POINTS, executor=executor, jobs=2)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_skip_keeps_the_rest(self, executor):
        clean = run_sweep(_clean, POINTS)  # serial reference
        result = run_sweep(_flaky, POINTS, executor=executor, jobs=2,
                           on_error="skip")
        assert result.failed_indices() == FAIL_XS
        assert not result.ok
        assert result.stats.failures == len(FAIL_XS)
        assert result.stats.on_error == "skip"
        for i, value in enumerate(result.values):
            if i in FAIL_XS:
                assert value is None
            else:
                assert value == clean.values[i]

    def test_bad_policy_rejected(self):
        with pytest.raises(AnalysisError):
            run_sweep(_clean, POINTS, on_error="ignore")
        with pytest.raises(AnalysisError):
            run_sweep(_clean, POINTS, on_error="retry", retries=-1)

    def test_failure_records_carry_forensics(self):
        result = run_sweep(_flaky, POINTS, on_error="skip")
        for failure in result.failures:
            assert failure.error_type == "ConvergenceError"
            assert f"x={failure.params['x']}" in failure.error
            assert failure.report is not None
            assert failure.report.stage == "newton"
            assert failure.report.iterations == 13
            assert failure.report.worst_name == "V(out)"
            assert "V(out)" in failure.summary()
        summary = result.failure_summary()
        assert f"{len(FAIL_XS)} of {len(POINTS)}" in summary

    def test_value_array_refuses_silent_none(self):
        result = run_sweep(_flaky, POINTS, on_error="skip")
        with pytest.raises(AnalysisError):
            result.value_array()
        kept = result.value_array(skip_failed=True)
        assert len(kept) == len(POINTS) - len(FAIL_XS)
        xs = result.param_array("x", skip_failed=True)
        np.testing.assert_array_equal(kept, xs * 1.5)

    def test_non_convergence_errors_skip_without_retry(self):
        result = run_sweep(_flaky_type_error, [{"x": i} for i in range(6)],
                           on_error="retry", retries=3)
        assert result.failed_indices() == [3]
        failure = result.failures[0]
        assert failure.error_type == "ValueError"
        assert failure.attempts == 1  # deterministic errors are not retried
        assert result.stats.retries == 0


class TestRetries:
    @pytest.mark.parametrize("executor, fn", [
        pytest.param(executor, fn, id=executor + suffix)
        for fn, suffix in zip(HEALERS, ("", "-blocked"))
        for executor in EXECUTORS
    ])
    def test_retry_heals_with_attempt_escalation(self, executor, fn):
        # The blocked twin fails its first attempts inside evaluate_batch
        # and heals in the same scalar retries as the plain function.
        result = run_sweep(fn, POINTS, executor=executor,
                           jobs=2, on_error="retry", retries=2)
        assert result.ok
        assert result.values == [x + 0.5 for x in range(40)]
        # Every x % 4 == 0 point burned exactly two retries (attempts 1, 2).
        assert result.stats.retries == 2 * len(range(0, 40, 4))

    def test_retry_exhaustion_accounting(self):
        result = run_sweep(_never_heals, POINTS, on_error="retry", retries=2)
        flaky = list(range(0, 40, 4))
        assert result.failed_indices() == flaky
        for failure in result.failures:
            assert failure.attempts == 3  # 1 initial + 2 retries
            assert "3 attempts" in failure.summary()
        assert result.stats.retries == 2 * len(flaky)
        assert result.stats.failures == len(flaky)

    def test_insufficient_retries_still_fail(self):
        scalar, blocked = (
            run_sweep(fn, POINTS, on_error="retry", retries=1)
            for fn in HEALERS
        )
        for result in (scalar, blocked):
            assert result.failed_indices() == list(range(0, 40, 4))
            assert all(f.attempts == 2 for f in result.failures)
        assert blocked.values == scalar.values
        assert blocked.failures == scalar.failures
        assert blocked.stats.retries == scalar.stats.retries == 10

    def test_functions_without_attempt_kwarg_still_retry(self):
        # _never_heals declares no ``attempt``: retries re-run it as-is.
        result = run_sweep(_never_heals, [{"x": 4}], on_error="retry",
                           retries=1)
        assert result.failures[0].attempts == 2


class TestPicklability:
    def test_failed_point_roundtrips(self):
        result = run_sweep(_flaky, POINTS, on_error="skip")
        for failure in result.failures:
            clone = pickle.loads(pickle.dumps(failure))
            assert clone == failure
            assert clone.report.summary() == failure.report.summary()

    def test_convergence_error_keeps_report_through_pickle(self):
        error = ConvergenceError("boom", report=_report("gmin_stepping"))
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom"
        assert clone.report.stage == "gmin_stepping"
        assert clone.report.worst_name == "V(out)"


class TestMonteCarloAcceptance:
    """The ISSUE acceptance scenario: a 200-point Monte Carlo with ~5%
    injected convergence failures must complete under the process
    executor, match a clean serial run bit for bit on the survivors,
    record full forensics, and cache every successful point."""

    def test_200_point_fault_tolerant_monte_carlo(self):
        # One sampler per run: SeedSequence.spawn advances the parent, so
        # a reused sampler object would hand out different child seeds.
        def sampler():
            return MonteCarloSampler(200, seed=1996)

        clean = run_sweep(_mc_clean, sampler(), executor="serial")
        expected_failures = [i for i, v in enumerate(clean.values)
                             if v > 1.9]
        assert 1 <= len(expected_failures) <= 10  # ~5% of 200

        cache = ResultCache()
        result = run_sweep(_mc_flaky, sampler(), executor="process", jobs=4,
                           on_error="skip", cache=cache)
        assert result.failed_indices() == expected_failures
        survivors = 200 - len(expected_failures)
        assert survivors >= 190

        # Bit-identical survivors vs the clean serial run.
        failed = set(expected_failures)
        for i in range(200):
            if i in failed:
                assert result.values[i] is None
            else:
                assert result.values[i] == clean.values[i]

        # Forensics on every failure.
        for failure in result.failures:
            assert failure.error_type == "ConvergenceError"
            assert failure.report is not None
            assert failure.report.stage == "newton"
            assert failure.report.iterations == 13
            assert failure.report.worst_name == "V(out)"

        # Every successful point was cached despite the failures...
        assert len(cache) == survivors
        # ...and a re-run re-evaluates only the failed points.
        again = run_sweep(_mc_flaky, sampler(), executor="serial",
                          on_error="skip", cache=cache)
        assert again.stats.cache_hits == survivors
        assert again.stats.evaluated == len(expected_failures)
        assert again.values == result.values
