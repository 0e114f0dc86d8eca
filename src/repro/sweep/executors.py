"""Pluggable sweep executors: serial and a persistent process pool.

An executor's only job is ``map_chunks(fn, chunks)``: apply ``fn`` to
every chunk and return the results *in submission order*.  All sweep
semantics — chunk formation, per-point seeding, retries, caching —
live in the orchestrator and are identical across executors,
which is what makes the backends interchangeable and their results
bit-identical.

Process pools are **persistent**: the first ``map_chunks`` call for a
given worker count spins a pool up (and pays the fork/exec tax once),
every later call — from any sweep in the process — reuses it.  Workers
cache the deserialized evaluation function by content hash, so a sweep
function that carries an expensive payload (a circuit that must be
parsed and compiled, say) crosses the pipe and is rebuilt **once per
worker**; after that only the point chunks travel.  Pools idle-reap
after :data:`POOL_IDLE_REAP_SECONDS` — but never while a dispatch is in
flight, and idleness is measured from dispatch *completion* — and are
torn down at interpreter exit; a pool broken by a dying worker is
discarded and respawned by :func:`map_chunks_with_retries`'s backoff
loop.  The registry is lock-guarded: concurrent sweeps (threads that
each call ``run_sweep``, the :mod:`repro.service` job workers) may
fetch, spawn and reap pools from many threads at once.

The process executor requires ``fn`` (a partial over the module-level
chunk evaluator) and every point's parameters to be picklable; the
rewired callers in :mod:`repro.geometry.variation`,
:mod:`repro.rfsystems.image_rejection` and :mod:`repro.devices.ft` use
module-level evaluation functions for exactly this reason.

Every ``map_chunks`` call records a :class:`DispatchStats` on the
executor (``backend.dispatch``): serialized payload bytes, pool spin-up
seconds, and per-chunk submit-to-result latencies.  The orchestrator
copies these into :class:`~repro.sweep.orchestrator.SweepStats` so what
dispatch cost is observable (``repro run --profile``).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field

from ..errors import AnalysisError, SweepError

#: Pool faults that a retry on a fresh pool can plausibly cure: a worker
#: killed by the OS (OOM, signal) surfaces as ``BrokenProcessPool``, a
#: subclass of ``BrokenExecutor``.  Exceptions raised *by the evaluation
#: function* are not in this family — they propagate (or are captured
#: per point by the orchestrator's on_error policy).
TRANSIENT_EXECUTOR_FAULTS = (BrokenExecutor,)

#: Fresh-pool retries :func:`map_chunks_with_retries` makes after a pool
#: fault before it re-raises.
EXECUTOR_RETRIES = 2

#: Seconds before the first such retry; each later one waits twice as
#: long as the one before.
RETRY_BACKOFF_SECONDS = 0.25

#: A persistent pool untouched for this long is shut down on the next
#: pool-registry access (workers holding compiled circuits are not free).
POOL_IDLE_REAP_SECONDS = 300.0


def _default_jobs() -> int:
    """Usable CPUs for worker pools.

    ``os.cpu_count()`` reports the *machine's* cores, which oversubscribes
    cgroup-limited containers and CI runners pinned to a CPU subset;
    ``sched_getaffinity`` reports the CPUs this process may actually run
    on, so prefer it where the platform provides it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(len(affinity(0)), 1)
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(os.cpu_count() or 1, 1)


def _validate_workers(name: str, jobs) -> int | None:
    """Normalize a ``jobs`` argument; reject silently-unusable counts.

    ``None`` means "pick the default" and passes through; anything else
    must be a positive integer.  The historical behaviour — ``jobs=0``
    falling back to the default and negative counts degrading to serial
    — hid configuration mistakes, so both now raise.
    """
    if jobs is None:
        return None
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise SweepError(
            f"{name} executor worker count must be a positive integer, "
            f"got {jobs!r}"
        )
    if jobs < 1:
        raise SweepError(
            f"{name} executor needs at least 1 worker, got {jobs}"
        )
    return jobs


@dataclass
class DispatchStats:
    """What one ``map_chunks`` call cost beyond the evaluations themselves."""

    #: bytes serialized toward workers (function payload + point chunks);
    #: 0 for in-process backends, which serialize nothing.
    payload_bytes: int = 0
    #: serialized size of the evaluation function alone (sent once per
    #: worker that has not cached it yet).
    fn_bytes: int = 0
    #: pool spin-up time paid by *this* call (0.0 when a persistent pool
    #: was reused).
    spinup_seconds: float = 0.0
    #: True when the call reused an already-running persistent pool.
    pool_reused: bool = False
    #: per-chunk submit-to-result wall times, submission order.
    chunk_seconds: list[float] = field(default_factory=list)

    def chunk_percentile(self, q: float) -> float:
        """Nearest-rank percentile of the per-chunk latencies (seconds)."""
        return nearest_rank(self.chunk_seconds, q)


def nearest_rank(samples, q: float) -> float:
    """The nearest-rank ``q``-quantile of ``samples`` (0.0 when empty).

    The one percentile convention of the sweep and service statistics.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


# ---------------------------------------------------------------------------
# persistent process pools
# ---------------------------------------------------------------------------


class _PoolState:
    """One live persistent pool plus its bookkeeping."""

    __slots__ = ("pool", "workers", "spinup_seconds", "last_used",
                 "in_flight")

    def __init__(self, workers: int):
        t0 = time.perf_counter()
        self.pool = ProcessPoolExecutor(max_workers=workers)
        # Submitting one no-op per worker forces the executor to spawn
        # its full complement now, so the spin-up cost lands here — once
        # — instead of smearing into the first real chunk's latency.
        for future in [self.pool.submit(_noop) for _ in range(workers)]:
            future.result()
        self.spinup_seconds = time.perf_counter() - t0
        self.workers = workers
        self.last_used = time.monotonic()
        #: ``map_chunks`` calls currently dispatching through this pool.
        #: A pool with in-flight work is never idle-reaped, however long
        #: its chunks run.
        self.in_flight = 0


#: Live pools keyed by worker count.  Process-global: every sweep in the
#: interpreter shares them, which is the whole point.  Every access goes
#: through :data:`_POOLS_LOCK`: concurrent sweeps (threads that each run
#: a sweep, the service layer's worker threads) fetch, spawn, reap and
#: discard pools from many threads at once.
_POOLS: dict[int, _PoolState] = {}
_POOLS_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _noop():
    return None


def _reap_idle_locked(now: float, keep: int | None = None) -> list[_PoolState]:
    """Pop every reapable pool; caller holds the lock and shuts them down.

    A pool is reapable when it is not the ``keep`` size, has **no
    in-flight dispatches**, and has sat untouched past
    :data:`POOL_IDLE_REAP_SECONDS`.  ``last_used`` is refreshed on
    dispatch *completion* (see :func:`_release_pool`), so a chunk running
    longer than the reap window never marks its own pool idle.
    """
    victims = []
    for size in list(_POOLS):
        state = _POOLS[size]
        if (size != keep and state.in_flight == 0
                and now - state.last_used > POOL_IDLE_REAP_SECONDS):
            victims.append(_POOLS.pop(size))
    return victims


def _get_pool(workers: int, lease: bool = False) -> tuple[_PoolState, bool]:
    """Fetch-or-spawn the persistent pool for ``workers``.

    Returns ``(state, reused)``.  Also reaps pools (any size) that have
    sat idle past :data:`POOL_IDLE_REAP_SECONDS` — but never a pool with
    in-flight dispatches.  With ``lease=True`` the returned pool's
    in-flight count is incremented; the caller must pair it with
    :func:`_release_pool` (the :class:`ProcessExecutor` does so in a
    ``finally``), which is what protects the pool from being reaped or
    double-spawned while its chunks run.
    """
    global _ATEXIT_REGISTERED
    with _POOLS_LOCK:
        now = time.monotonic()
        victims = _reap_idle_locked(now, keep=workers)
        state = _POOLS.get(workers)
        if state is not None:
            state.last_used = now
            if lease:
                state.in_flight += 1
            reused = True
        else:
            if not _ATEXIT_REGISTERED:
                atexit.register(shutdown_pools)
                _ATEXIT_REGISTERED = True
            # Spawning under the lock serializes concurrent cold starts:
            # two sweeps racing for the same worker count get one pool,
            # not two (the loser reuses the winner's).
            state = _POOLS[workers] = _PoolState(workers)
            if lease:
                state.in_flight += 1
            reused = False
    for victim in victims:
        victim.pool.shutdown(wait=False, cancel_futures=True)
    return state, reused


def _release_pool(state: _PoolState) -> None:
    """End one leased dispatch: refresh idleness *at completion time*."""
    with _POOLS_LOCK:
        state.in_flight = max(0, state.in_flight - 1)
        state.last_used = time.monotonic()


def _discard_pool(workers: int, state: _PoolState | None = None) -> None:
    """Drop the pool registered under ``workers`` (fault recovery).

    ``state``, when given, guards against discarding an innocent
    replacement: if another thread already respawned a fresh pool under
    the same key, that pool is left alone.
    """
    with _POOLS_LOCK:
        current = _POOLS.get(workers)
        if current is None or (state is not None and current is not state):
            return
        _POOLS.pop(workers)
    current.pool.shutdown(wait=False, cancel_futures=True)


def pool_is_warm(workers: int) -> bool:
    """Whether a persistent pool with ``workers`` workers is usefully warm.

    The dispatch cost model uses this to decide whether a process plan
    pays spin-up or rides an already-warm pool — so it must apply the
    *same* idle criterion as the reaper: a pool the next
    :func:`_get_pool` call will reap is not warm, it is a spin-up about
    to happen.  Busy pools (in-flight dispatches) are warm regardless of
    their age.
    """
    with _POOLS_LOCK:
        state = _POOLS.get(workers)
        if state is None:
            return False
        if state.in_flight > 0:
            return True
        return time.monotonic() - state.last_used <= POOL_IDLE_REAP_SECONDS


def shutdown_pools() -> None:
    """Shut down every persistent worker pool (also runs at exit)."""
    with _POOLS_LOCK:
        states = list(_POOLS.values())
        _POOLS.clear()
    for state in states:
        state.pool.shutdown(wait=False, cancel_futures=True)


#: Worker-side cache: content hash -> deserialized evaluation function.
#: Lives in the worker process; keeps the expensive part of the payload
#: (e.g. a parsed + compiled circuit) alive across chunks.
_WORKER_FN_CACHE: dict[str, object] = {}
#: How many function payloads this worker actually deserialized —
#: observable from tasks, so tests can assert the once-per-worker
#: contract.
_WORKER_FN_LOADS = 0
_WORKER_FN_CACHE_MAX = 4

#: Sentinel result meaning "this worker has no cached function under
#: that key; resend the payload".
_NEED_FN = "__need_fn__"


def _pool_task(key: str, fn_bytes: bytes | None, chunk_bytes: bytes):
    """Worker-side task: run one chunk through the (cached) function.

    ``fn_bytes`` is ``None`` for keep-warm tasks that bet on the worker
    already holding ``key``; a miss returns :data:`_NEED_FN` and the
    parent resubmits with the payload attached.  Bounded FIFO eviction
    keeps a worker from accumulating every function it ever saw.
    """
    global _WORKER_FN_LOADS
    fn = _WORKER_FN_CACHE.get(key)
    if fn is None:
        if fn_bytes is None:
            return (_NEED_FN, None)
        fn = pickle.loads(fn_bytes)
        _WORKER_FN_LOADS += 1
        while len(_WORKER_FN_CACHE) >= _WORKER_FN_CACHE_MAX:
            _WORKER_FN_CACHE.pop(next(iter(_WORKER_FN_CACHE)))
        _WORKER_FN_CACHE[key] = fn
    return ("ok", fn(pickle.loads(chunk_bytes)))


def worker_fn_loads() -> int:
    """Function payloads deserialized by *this* process's cache.

    Meaningful when called from inside a pool task (via an evaluation
    function) — the once-per-worker warm-cache contract's test hook.
    """
    return _WORKER_FN_LOADS


def map_chunks_with_retries(
    backend: "Executor",
    fn,
    chunks: list,
) -> tuple[list, int]:
    """``backend.map_chunks`` with exponential backoff on pool faults.

    A ``BrokenProcessPool`` poisons the persistent pool, so the backend's
    :meth:`Executor.discard_pool` hook is invoked before each retry —
    the next ``map_chunks`` call then genuinely starts on a fresh pool.
    Waits ``RETRY_BACKOFF_SECONDS * 2**k`` seconds before retry ``k``;
    re-raises once :data:`EXECUTOR_RETRIES` retries are exhausted.
    Returns ``(results, faults)`` where ``faults`` counts the recovered
    failures.
    """
    faults = 0
    while True:
        try:
            return backend.map_chunks(fn, chunks), faults
        except TRANSIENT_EXECUTOR_FAULTS:
            backend.discard_pool()
            if faults >= EXECUTOR_RETRIES:
                raise
            time.sleep(RETRY_BACKOFF_SECONDS * (2.0 ** faults))
            faults += 1


class Executor:
    """Executor interface; subclasses set ``name`` and ``workers``.

    Construction validates the worker count: ``jobs=None`` picks the
    backend default, anything else must be a positive integer — a
    ``workers < 1`` request raises :class:`~repro.errors.SweepError`
    instead of silently degrading to serial execution.
    """

    name = "executor"
    workers = 1

    def __init__(self, jobs: int | None = None):
        jobs = _validate_workers(self.name, jobs)
        self.workers = jobs if jobs is not None else self.default_workers()
        #: :class:`DispatchStats` of the most recent ``map_chunks`` call.
        self.dispatch: DispatchStats | None = None

    def default_workers(self) -> int:
        return _default_jobs()

    def map_chunks(self, fn, chunks: list) -> list:
        raise NotImplementedError

    def discard_pool(self) -> None:
        """Drop any persistent pool this backend dispatches to (fault
        recovery hook; a no-op for in-process backends)."""

    def _serial_fallback(self, fn, chunks: list) -> list:
        """Run in-process, still recording per-chunk latencies."""
        stats = DispatchStats()
        results = []
        for chunk in chunks:
            t0 = time.perf_counter()
            results.append(fn(chunk))
            stats.chunk_seconds.append(time.perf_counter() - t0)
        self.dispatch = stats
        return results


class SerialExecutor(Executor):
    """In-process, one chunk after the other — the reference backend."""

    name = "serial"

    def __init__(self, jobs: int | None = None):
        super().__init__(jobs)
        self.workers = 1

    def default_workers(self) -> int:
        return 1

    def map_chunks(self, fn, chunks: list) -> list:
        return self._serial_fallback(fn, chunks)


class ProcessExecutor(Executor):
    """Chunked dispatch to a persistent process pool — the throughput
    backend.

    Each submitted unit is a whole chunk, so per-task IPC overhead is
    amortized over ``chunk_size`` points.  The pool is shared across
    ``map_chunks`` calls (and across :class:`ProcessExecutor` instances
    with the same worker count): spin-up is paid once per process
    lifetime, not once per sweep.  The evaluation function is pickled
    once parent-side and cached by content hash worker-side, so repeat
    chunks ship only their points.  Worker processes cannot see the
    parent's caches or engine counters; the orchestrator accounts for
    both on the parent side.
    """

    name = "process"

    def map_chunks(self, fn, chunks: list) -> list:
        if len(chunks) <= 1 or self.workers <= 1:
            return self._serial_fallback(fn, chunks)
        # One pool per requested worker count, whatever the chunk count:
        # the planner's pool_is_warm(workers) then checks the pool that
        # runs, and a short dispatch never leaves a second pool behind.
        workers = self.workers
        state, reused = _get_pool(workers, lease=True)
        self._last_pool_state = state
        stats = DispatchStats(
            spinup_seconds=0.0 if reused else state.spinup_seconds,
            pool_reused=reused,
        )
        fn_bytes = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        key = hashlib.sha256(fn_bytes).hexdigest()
        stats.fn_bytes = len(fn_bytes)
        chunk_blobs = [
            pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
            for chunk in chunks
        ]
        stats.payload_bytes = sum(len(blob) for blob in chunk_blobs)
        submitted = []
        for i, blob in enumerate(chunk_blobs):
            # The first task per worker must carry the function payload;
            # later tasks bet on the worker-side cache and only fall back
            # to a resend when they land on a worker that missed out.
            payload = fn_bytes if i < workers else None
            if payload is not None:
                stats.payload_bytes += len(fn_bytes)
            submitted.append((
                time.perf_counter(),
                state.pool.submit(_pool_task, key, payload, blob),
            ))
        results = []
        try:
            for i, (started, future) in enumerate(submitted):
                status, value = future.result()
                if status == _NEED_FN:
                    stats.payload_bytes += len(fn_bytes)
                    retry = state.pool.submit(
                        _pool_task, key, fn_bytes, chunk_blobs[i]
                    )
                    status, value = retry.result()
                results.append(value)
                stats.chunk_seconds.append(time.perf_counter() - started)
        except TRANSIENT_EXECUTOR_FAULTS:
            self.discard_pool()
            raise
        except BaseException:
            # A chunk raised (on_error="raise" semantics): don't leave
            # the rest of the sweep burning cores on the shared pool.
            for _, future in submitted[len(results) + 1:]:
                future.cancel()
            raise
        finally:
            _release_pool(state)
            self.dispatch = stats
        return results

    _last_pool_state: _PoolState | None = None

    def discard_pool(self) -> None:
        if self._last_pool_state is not None:
            _discard_pool(self.workers, self._last_pool_state)


class AutoExecutor(Executor):
    """Placeholder backend for ``executor="auto"`` / ``jobs="auto"``.

    The orchestrator intercepts it: a probe chunk is timed in-process,
    the :mod:`repro.sweep.costmodel` picks serial or process and the
    chunk size, and dispatch proceeds on the chosen real backend.  Used
    directly (``map_chunks``), it degrades to serial execution.
    """

    name = "auto"

    def map_chunks(self, fn, chunks: list) -> list:
        return self._serial_fallback(fn, chunks)


def resolve_executor(executor=None, jobs=None) -> Executor:
    """Resolve an ``executor=``/``jobs=`` argument pair.

    ``None`` picks serial unless ``jobs`` asks for more than one worker,
    in which case the persistent process pool is used (the only parallel
    backend).  ``"auto"`` — as either argument — defers the choice to the
    dispatch cost model (see :func:`~repro.sweep.run_sweep`).  Strings
    name a backend explicitly; an :class:`Executor` instance passes
    through.
    """
    if isinstance(executor, Executor):
        return executor
    if executor == "auto" or (executor is None and jobs == "auto"):
        return AutoExecutor(None if jobs in (None, "auto") else jobs)
    if jobs == "auto":
        jobs = None
    if jobs is not None:
        _validate_workers(executor if isinstance(executor, str) else "the",
                          jobs)
    if executor is None:
        if jobs is None or jobs <= 1:
            return SerialExecutor()
        return ProcessExecutor(jobs)
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessExecutor(jobs)
    raise AnalysisError(
        f"unknown executor {executor!r}; expected 'serial', 'process', "
        "'auto' or an Executor instance"
    )
