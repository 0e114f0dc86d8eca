"""Executor layer contracts: validation, persistent pools, dispatch stats.

The process backend is *persistent*: pools outlive ``map_chunks`` calls
and workers cache the deserialized evaluation function by content hash.
These tests pin the lifecycle (reuse, discard, fault recovery hook), the
worker count validation introduced with :class:`~repro.errors.SweepError`
(``workers < 1`` used to silently degrade to serial), and the
:class:`~repro.sweep.DispatchStats` observability record each sweep
copies onto its stats.
"""

import os
import pickle
from concurrent.futures import BrokenExecutor

import pytest

from repro.errors import AnalysisError, SweepError
from repro.sweep import (
    AutoExecutor,
    DispatchStats,
    ProcessExecutor,
    SerialExecutor,
    pool_is_warm,
    resolve_executor,
    run_sweep,
    shutdown_pools,
)
from repro.sweep import executors
from repro.sweep.executors import worker_fn_loads


def _chunk_sum(chunk):
    return sum(chunk)


def _chunk_loads(chunk):
    # Runs worker-side: reports how many function payloads this worker
    # has deserialized so far (the once-per-worker cache contract).
    return worker_fn_loads()


def _die_once(params):
    # The first point to create the marker file kills its worker, as the
    # OS would; every later evaluation, on any worker, runs normally.
    try:
        os.close(os.open(params["marker"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return 2 * params["x"]
    os._exit(1)


def _die_always(params):
    os._exit(1)


class TestWorkerValidation:
    @pytest.mark.parametrize("backend", (ProcessExecutor,))
    @pytest.mark.parametrize("jobs", (0, -1, -8))
    def test_nonpositive_worker_count_raises(self, backend, jobs):
        with pytest.raises(SweepError, match="at least 1 worker"):
            backend(jobs)

    @pytest.mark.parametrize("backend", (ProcessExecutor,))
    @pytest.mark.parametrize("jobs", (2.0, "4", True))
    def test_non_integer_worker_count_raises(self, backend, jobs):
        with pytest.raises(SweepError, match="positive integer"):
            backend(jobs)

    def test_default_worker_count_still_allowed(self):
        assert ProcessExecutor().workers >= 1
        assert ProcessExecutor(3).workers == 3

    @pytest.mark.parametrize("jobs", (0, -2))
    def test_resolve_executor_rejects_bad_jobs(self, jobs):
        with pytest.raises(SweepError):
            resolve_executor(None, jobs)
        with pytest.raises(SweepError):
            resolve_executor("process", jobs)

    def test_run_sweep_surfaces_validation(self):
        with pytest.raises(SweepError):
            run_sweep(_chunk_sum, [{"x": 1}], jobs=0)


class TestResolveExecutor:
    def test_auto_strings_resolve_to_auto_executor(self):
        assert isinstance(resolve_executor("auto", None), AutoExecutor)
        assert isinstance(resolve_executor(None, "auto"), AutoExecutor)
        assert isinstance(resolve_executor("auto", "auto"), AutoExecutor)

    def test_auto_with_explicit_jobs_keeps_the_count(self):
        backend = resolve_executor("auto", 3)
        assert isinstance(backend, AutoExecutor)
        assert backend.workers == 3

    def test_unknown_backend_mentions_auto(self):
        with pytest.raises(AnalysisError, match="auto"):
            resolve_executor("gpu", None)

    def test_thread_is_not_a_backend(self):
        with pytest.raises(AnalysisError, match="unknown executor"):
            resolve_executor("thread", 2)
        with pytest.raises(AnalysisError, match="unknown executor"):
            run_sweep(_chunk_sum, [{"x": 1}], executor="thread")


class TestPersistentPool:
    def test_pool_survives_map_chunks_calls(self):
        shutdown_pools()
        backend = ProcessExecutor(2)
        chunks = [[1, 2], [3, 4], [5, 6], [7, 8]]
        first = backend.map_chunks(_chunk_sum, chunks)
        assert first == [3, 7, 11, 15]
        assert backend.dispatch.pool_reused is False
        assert backend.dispatch.spinup_seconds > 0.0
        assert pool_is_warm(2)

        again = backend.map_chunks(_chunk_sum, chunks)
        assert again == first
        assert backend.dispatch.pool_reused is True
        assert backend.dispatch.spinup_seconds == 0.0

    def test_pool_shared_across_executor_instances(self):
        shutdown_pools()
        chunks = [[1], [2], [3], [4]]
        ProcessExecutor(2).map_chunks(_chunk_sum, chunks)
        other = ProcessExecutor(2)
        other.map_chunks(_chunk_sum, chunks)
        assert other.dispatch.pool_reused is True

    def test_discard_pool_forces_fresh_spawn(self):
        shutdown_pools()
        backend = ProcessExecutor(2)
        chunks = [[1], [2], [3], [4]]
        backend.map_chunks(_chunk_sum, chunks)
        backend.discard_pool()
        assert not pool_is_warm(2)
        backend.map_chunks(_chunk_sum, chunks)
        assert backend.dispatch.pool_reused is False

    def test_worker_function_cache_loads_once_per_worker(self):
        shutdown_pools()
        backend = ProcessExecutor(2)
        # Many chunks across few workers: each worker must deserialize
        # the function at most once, however many chunks it executes.
        chunks = [[i] for i in range(12)]
        backend.map_chunks(_chunk_sum, chunks)
        loads = backend.map_chunks(_chunk_loads, chunks)
        # Each worker has loaded at most the two functions sent so far.
        assert max(loads) <= 2

    def test_one_pool_per_requested_worker_count(self):
        # A dispatch with fewer chunks than workers must not register a
        # smaller pool of its own: the registry holds one pool, sized by
        # the requested count, whatever the chunk counts were.
        shutdown_pools()
        backend = ProcessExecutor(3)
        try:
            assert backend.map_chunks(_chunk_sum, [[1], [2]]) == [1, 2]
            assert backend.map_chunks(
                _chunk_sum, [[i] for i in range(5)]) == list(range(5))
            assert list(executors._POOLS) == [3]
            assert backend.dispatch.pool_reused is True
            assert pool_is_warm(3)
        finally:
            shutdown_pools()

    def test_serial_fallback_for_single_chunk(self):
        shutdown_pools()
        backend = ProcessExecutor(2)
        assert backend.map_chunks(_chunk_sum, [[1, 2, 3]]) == [6]
        # One chunk can't use two workers: stays in-process, no payload.
        assert backend.dispatch.payload_bytes == 0
        assert not pool_is_warm(2)


class TestDispatchStats:
    def test_process_dispatch_accounts_payload(self):
        shutdown_pools()
        backend = ProcessExecutor(2)
        chunks = [[1, 2], [3, 4], [5, 6], [7, 8]]
        backend.map_chunks(_chunk_sum, chunks)
        stats = backend.dispatch
        blob_bytes = sum(
            len(pickle.dumps(c, protocol=pickle.HIGHEST_PROTOCOL))
            for c in chunks
        )
        assert stats.fn_bytes > 0
        # Payload = chunk blobs + one function payload per warm-up task.
        assert stats.payload_bytes >= blob_bytes + stats.fn_bytes
        assert len(stats.chunk_seconds) == len(chunks)
        assert stats.chunk_percentile(0.5) <= stats.chunk_percentile(0.99)

    def test_serial_records_chunk_latencies(self):
        serial = SerialExecutor()
        serial.map_chunks(_chunk_sum, [[1], [2]])
        assert len(serial.dispatch.chunk_seconds) == 2
        assert serial.dispatch.payload_bytes == 0

    def test_percentile_of_empty_is_zero(self):
        assert DispatchStats().chunk_percentile(0.5) == 0.0


class TestOrderPreservation:
    @pytest.mark.parametrize("make",
                             (SerialExecutor, lambda: ProcessExecutor(2)))
    def test_results_in_submission_order(self, make):
        shutdown_pools()
        backend = make()
        chunks = [[i] for i in range(10)]
        assert backend.map_chunks(_chunk_sum, chunks) == list(range(10))


class TestExecutorFaults:
    """A worker that dies takes its pool with it; the whole map is
    retried on a fresh pool, with backoff, a fixed number of times."""

    def test_worker_death_is_retried_on_a_fresh_pool(self, tmp_path):
        shutdown_pools()
        points = [{"x": x, "marker": str(tmp_path / "died")}
                  for x in range(6)]
        run = run_sweep(_die_once, points, executor="process", jobs=2,
                        chunk_size=2)
        assert (tmp_path / "died").exists()
        assert run.stats.executor_faults == 1
        serial = run_sweep(_die_once, points, executor="serial")
        assert run.values == serial.values == [2 * x for x in range(6)]

    def test_persistent_fault_raises_after_the_retries(self, monkeypatch):
        shutdown_pools()
        waits = []
        monkeypatch.setattr(executors.time, "sleep", waits.append)
        with pytest.raises(BrokenExecutor):
            run_sweep(_die_always, [{"x": x} for x in range(4)],
                      executor="process", jobs=2, chunk_size=2)
        assert waits == [
            executors.RETRY_BACKOFF_SECONDS * 2.0 ** k
            for k in range(executors.EXECUTOR_RETRIES)
        ] == [0.25, 0.5]
        assert not pool_is_warm(2)
