"""Service-level observability: request counters, latency percentiles,
cache and pool reuse.

One :class:`ServiceStats` lives on each
:class:`~repro.service.SimulationService`.  Every counter mutation holds
the stats lock — requests land from the HTTP front end's handler
threads, job completions from the worker threads, all concurrently.

The latency reservoir keeps the most recent ``latency_window`` samples
(submit-to-finish seconds per completed job); p50/p99 come from the
same :func:`~repro.sweep.executors.nearest_rank` function as
:meth:`repro.sweep.DispatchStats.chunk_percentile`, so the numbers in
``BENCH_service.json`` and ``BENCH_sweep.json`` are comparable.
"""

from __future__ import annotations

import threading
from collections import deque

from ..sweep.executors import nearest_rank

__all__ = ["ServiceStats"]


class ServiceStats:
    """Thread-safe counters for one service instance."""

    def __init__(self, latency_window: int = 4096):
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_rejected = 0
        self.circuits_created = 0
        self.circuits_reused = 0
        #: engine compilations performed *after* a circuit's create-time
        #: compile — stays 0 while compiled-circuit reuse works.
        self.recompiles = 0
        #: sweep-layer reuse observed by sweep/optimize jobs.
        self.sweep_points = 0
        self.sweep_cache_hits = 0
        self.pool_dispatches = 0
        self.pool_reuses = 0
        self.spinup_seconds = 0.0
        self._latencies: deque[float] = deque(maxlen=latency_window)

    # -- recording -----------------------------------------------------------

    def record_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def record_submit(self) -> None:
        with self._lock:
            self.jobs_submitted += 1

    def record_rejection(self) -> None:
        with self._lock:
            self.jobs_rejected += 1

    def record_cancel(self) -> None:
        with self._lock:
            self.jobs_cancelled += 1

    def record_finish(self, ok: bool, latency_seconds: float | None) -> None:
        with self._lock:
            if ok:
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1
            if latency_seconds is not None:
                self._latencies.append(latency_seconds)

    def record_circuit(self, reused: bool) -> None:
        with self._lock:
            if reused:
                self.circuits_reused += 1
            else:
                self.circuits_created += 1

    def record_recompiles(self, count: int) -> None:
        if count:
            with self._lock:
                self.recompiles += count

    def fold_sweep(self, sweep_stats) -> None:
        """Fold one job's :class:`~repro.sweep.SweepStats` into the totals.

        Pool reuse is read off the dispatch record the sweep layer
        already keeps.  Only a sweep that shipped chunks to the pool
        serialized anything: a process sweep of one chunk runs
        in-process and a fully cached one runs nothing, so neither is a
        pool dispatch.  A pool dispatch that paid no spin-up rode an
        already-warm persistent pool.
        """
        with self._lock:
            self.sweep_points += sweep_stats.points
            self.sweep_cache_hits += sweep_stats.cache_hits
            if sweep_stats.payload_bytes > 0:
                self.pool_dispatches += 1
                if sweep_stats.spinup_seconds == 0.0:
                    self.pool_reuses += 1
                self.spinup_seconds += sweep_stats.spinup_seconds

    # -- reading -------------------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of recent job latencies (seconds)."""
        with self._lock:
            samples = list(self._latencies)
        return nearest_rank(samples, q)

    def as_dict(self, queue_depth: int = 0,
                cache_hits: int = 0, cache_misses: int = 0) -> dict:
        """JSON snapshot; the service passes live queue/cache gauges in."""
        with self._lock:
            lookups = cache_hits + cache_misses
            snapshot = {
                "requests": dict(self.requests),
                "jobs": {
                    "submitted": self.jobs_submitted,
                    "completed": self.jobs_completed,
                    "failed": self.jobs_failed,
                    "cancelled": self.jobs_cancelled,
                    "rejected": self.jobs_rejected,
                },
                "queue_depth": queue_depth,
                "circuits": {
                    "created": self.circuits_created,
                    "reused": self.circuits_reused,
                    "recompiles": self.recompiles,
                },
                "cache": {
                    "hits": cache_hits,
                    "misses": cache_misses,
                    "hit_rate": (cache_hits / lookups) if lookups else 0.0,
                },
                "sweep": {
                    "points": self.sweep_points,
                    "cache_hits": self.sweep_cache_hits,
                    "pool_dispatches": self.pool_dispatches,
                    "pool_reuses": self.pool_reuses,
                    "spinup_seconds": self.spinup_seconds,
                },
            }
        snapshot["latency"] = {
            "p50_seconds": self.latency_percentile(0.5),
            "p99_seconds": self.latency_percentile(0.99),
        }
        return snapshot

    def summary(self, queue_depth: int = 0, cache_hits: int = 0,
                cache_misses: int = 0) -> str:
        """The one-paragraph digest ``repro serve --profile`` prints."""
        data = self.as_dict(queue_depth, cache_hits, cache_misses)
        jobs = data["jobs"]
        cache = data["cache"]
        latency = data["latency"]
        lines = [
            "service stats:",
            f"  requests: {sum(data['requests'].values())} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(data['requests'].items()))})",
            f"  jobs: {jobs['completed']} completed, {jobs['failed']} failed, "
            f"{jobs['cancelled']} cancelled, {jobs['rejected']} rejected "
            f"(queue depth {data['queue_depth']})",
            f"  latency: p50 {latency['p50_seconds'] * 1e3:.2f} ms, "
            f"p99 {latency['p99_seconds'] * 1e3:.2f} ms",
            f"  circuits: {data['circuits']['created']} compiled, "
            f"{data['circuits']['reused']} reused, "
            f"{data['circuits']['recompiles']} recompiles",
            f"  result cache: {cache['hits']} hits / "
            f"{cache['misses']} misses ({cache['hit_rate']:.0%})",
            f"  pools: {data['sweep']['pool_reuses']} of "
            f"{data['sweep']['pool_dispatches']} dispatches reused a warm "
            f"pool ({data['sweep']['spinup_seconds'] * 1e3:.1f} ms spin-up)",
        ]
        return "\n".join(lines)
