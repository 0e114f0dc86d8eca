"""Concurrency stress tests: shared pools and caches.

The sweep layer's process-pool registry and result caches are
process-global, and the service layer (:mod:`repro.service`) drives
them from many threads at once.  These tests hammer the shared state
from thread fan-outs and assert the serial contracts survive: no lost
results, no ``BrokenProcessPool`` from a reaped-while-busy pool,
bit-identical values, consistent counters.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.sweep import ResultCache, run_sweep
from repro.sweep.executors import (
    ProcessExecutor,
    _get_pool,
    _POOLS,
    _release_pool,
    pool_is_warm,
    shutdown_pools,
)


def _poly(params: dict, attempt: int = 0) -> float:
    """Deterministic, cheap, picklable point evaluation."""
    x = params["x"]
    y = params.get("y", 0.0)
    return x * x * 0.5 - 3.0 * x + y * 1.25 + 1.0


def _sleepy_chunk(chunk: list) -> list:
    """Chunk evaluator that outlives a shortened reap window."""
    time.sleep(0.45)
    return [p["x"] * 2.0 for p in chunk]


def _quick_chunk(chunk: list) -> list:
    return [p["x"] + 1.0 for p in chunk]


class TestConcurrentSweeps:
    """N threads running sweeps against shared caches: the ISSUE's
    8-thread x 50-job stress scenario."""

    THREADS = 8
    JOBS_PER_THREAD = 7  # 8 x 7 = 56 sweep jobs > the 50 the issue asks

    def test_shared_cache_sweeps_lose_nothing(self):
        points = [{"x": i * 0.125, "y": (i % 5) * 0.2} for i in range(40)]
        expected = run_sweep(_poly, points).values

        cache = ResultCache()
        failures: list = []

        def worker(tid: int) -> None:
            try:
                for _ in range(self.JOBS_PER_THREAD):
                    result = run_sweep(_poly, points, cache=cache,
                                       cache_tag="stress.poly")
                    assert len(result.values) == len(points)
                    assert result.values == expected
                    assert not result.failures
            except BaseException as exc:  # noqa: BLE001 - collected below
                failures.append((tid, exc))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures
        # Every job saw every point: none lost, none corrupted.
        lookups = cache.hits + cache.misses
        assert lookups == self.THREADS * self.JOBS_PER_THREAD * len(points)
        # The cache stayed internally consistent under contention: each
        # point is evaluated at most once per racing first-wave job, and
        # after the first wave everything is served from cache.
        assert cache.misses < lookups
        assert cache.hits > 0


class TestPoolRegistryRaces:
    """The registry's lease/in-flight protocol under adversarial timing."""

    @pytest.fixture(autouse=True)
    def _fresh_pools(self):
        shutdown_pools()
        yield
        shutdown_pools()

    def test_long_chunk_survives_concurrent_reap_pressure(self, monkeypatch):
        """A chunk running longer than the reap window completes while
        another thread spawns and reaps pools of other sizes."""
        monkeypatch.setattr("repro.sweep.executors.POOL_IDLE_REAP_SECONDS",
                            0.2)
        chunks = [[{"x": 1.0}], [{"x": 2.0}], [{"x": 3.0}], [{"x": 4.0}]]
        outcome: dict = {}

        def long_sweep() -> None:
            try:
                executor = ProcessExecutor(2)
                outcome["results"] = executor.map_chunks(_sleepy_chunk,
                                                         chunks)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        sweeper = threading.Thread(target=long_sweep)
        sweeper.start()
        # Meanwhile: registry churn.  Every _get_pool call runs the
        # reaper; before the in-flight guard this could shut down the
        # sweeper's pool mid-dispatch (its last_used was set at fetch
        # time, 0.45 s * 2 waves > the 0.2 s window).
        deadline = time.monotonic() + 1.5
        while sweeper.is_alive() and time.monotonic() < deadline:
            state, _ = _get_pool(3, lease=True)
            _release_pool(state)
            time.sleep(0.05)
        sweeper.join(timeout=30.0)

        assert "error" not in outcome, outcome.get("error")
        assert outcome["results"] == [[2.0], [4.0], [6.0], [8.0]]

    def test_busy_pool_is_never_reaped_but_idle_pool_is(self, monkeypatch):
        monkeypatch.setattr("repro.sweep.executors.POOL_IDLE_REAP_SECONDS",
                            0.2)
        busy, _ = _get_pool(2, lease=True)
        # Make it look ancient; in-flight must still protect it.
        busy.last_used = time.monotonic() - 100.0
        _get_pool(3)  # any registry access runs the reaper
        assert 2 in _POOLS and _POOLS[2] is busy
        assert pool_is_warm(2)  # busy pools are warm regardless of age

        _release_pool(busy)  # completion refreshes last_used
        assert pool_is_warm(2)
        busy.last_used = time.monotonic() - 100.0
        assert not pool_is_warm(2)  # warmth must agree with the reaper
        _get_pool(3)
        assert 2 not in _POOLS  # now idle + stale -> reaped

    def test_concurrent_get_pool_spawns_exactly_one_pool(self):
        states: list = []
        barrier = threading.Barrier(6)

        def fetch() -> None:
            barrier.wait()
            state, _ = _get_pool(2, lease=True)
            states.append(state)

        threads = [threading.Thread(target=fetch) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(states) == 6
        assert all(state is states[0] for state in states)
        assert states[0].in_flight == 6
        for state in states:
            _release_pool(state)
        assert states[0].in_flight == 0

    def test_default_jobs_prefers_cpu_affinity(self, monkeypatch):
        from repro.sweep import executors

        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert executors._default_jobs() == 3
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid: set(), raising=False)
        assert executors._default_jobs() == 1  # floor, never 0


class TestSharedCountersUnderThreads:
    """ResultCache counters under contention."""

    def test_result_cache_counters_stay_consistent(self):
        cache = ResultCache(maxsize=32)
        per_thread = 500
        threads = 8
        done: list = []

        def worker(tid: int) -> None:
            for i in range(per_thread):
                key = f"k{(tid * per_thread + i) % 64}"
                if cache.get(key) is None:
                    cache.put(key, tid)
            done.append(tid)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        assert len(done) == threads
        assert cache.hits + cache.misses == threads * per_thread
        assert len(cache) <= 32  # eviction never overshoots under races
        assert 0.0 <= cache.hit_rate() <= 1.0
