"""The simulation service: compile-once circuits, async analysis jobs.

:class:`SimulationService` is the long-running layer the ROADMAP's
north star calls for on top of the compiled engine:

* :meth:`create_circuit` parses, lints and **compiles a deck once**,
  caching the circuit under a content-hashed id — resubmitting the same
  netlist returns the existing id without touching the parser, and every
  later job reuses the compiled engine (recompiles are counted and stay
  at zero).
* :meth:`submit` enqueues ``dc``/``ac``/``transient``/``sweep``/
  ``optimize``/``verify`` jobs on a bounded priority queue served by worker
  threads; at capacity a submit is **rejected** with a structured
  503-style payload instead of queueing unboundedly (backpressure).
* :meth:`poll` / :meth:`wait` read the result store; queued jobs can be
  withdrawn via :meth:`cancel_job`.
* Failures carry the engine's structured forensics
  (:class:`~repro.errors.ConvergenceReport`,
  :class:`~repro.spice.lint.LintIssue`, per-point sweep failures) as
  JSON — see :mod:`repro.service.payloads`.
* Each tenant gets its own :class:`~repro.sweep.ResultCache`, keyed by
  the same content hashes the sweep layer computes, so one tenant's
  repeated identical requests are served from cache without leaking
  results across tenants.

Concurrency model: analyses sharing one compiled circuit are serialized
per circuit id (the compiled engine's evaluation buffers are shared
state); jobs on *different* circuits run concurrently across worker
threads, and sweep jobs may additionally fan out through the sweep
layer's executors (whose pool registry is concurrency-safe — see
:mod:`repro.sweep.executors`).

``workers=0`` puts the service in synchronous mode: nothing executes
until :meth:`step` is called, which pops and runs exactly one job
inline.  Tests use this for deterministic queue-order, cancellation and
backpressure scenarios.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field

from ..errors import AnalysisError, ReproError, SweepError
from ..spice.lint import lint_circuit
from ..spice.parser import parse_deck
from ..spice.runner import _deck_tolerances
from ..sweep import (
    Executor,
    ResultCache,
    content_key,
    resolve_executor,
    run_sweep,
)
from ..sweep.batched import (
    BlockedACSweep,
    BlockedDCSweep,
    ac_gain_db,
    node_voltage,
)
from ..sweep.executors import _default_jobs
from .jobs import JOB_KINDS, Job, JobQueue, QueueFullError
from .payloads import error_payload, failed_point_to_dict, ok_payload
from .stats import ServiceStats

__all__ = ["SimulationService", "circuit_id_for"]


def circuit_id_for(deck_text: str) -> str:
    """The content-hashed id a deck will be cached under."""
    return hashlib.sha256(deck_text.encode()).hexdigest()[:16]


@dataclass
class _CircuitEntry:
    """One cached circuit: deck text, compiled simulator, bookkeeping."""

    circuit_id: str
    deck_text: str
    deck: object
    simulator: object
    #: serializes dc/ac/transient jobs on the shared compiled engine.
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: reusable, primed deck evaluators: sweeps keyed by ``(analysis,
    #: output, frequency grid)``, qualifications by ``("verify", corner
    #: config, rules)``.
    evaluators: dict = field(default_factory=dict)
    created_at: float = field(default_factory=time.monotonic)


class _TargetObjective:
    """Picklable optimize objective: squared error of a node voltage.

    Wraps a :class:`~repro.sweep.BlockedDCSweep` evaluator, so the
    expensive parse + compile happens once per process and ships as deck
    text; the content-hash cache tag composes the evaluator's own tag
    with the target, keeping distinct targets in distinct cache rows.

    Batch-capable when the wrapped evaluator is: the optimizer's
    candidate batches then ride the evaluator's blocked fast path (one
    stacked solve per probe batch) and only the scalar squared-error
    reduction runs per candidate.
    """

    def __init__(self, evaluator: BlockedDCSweep, target: float):
        self._evaluator = evaluator
        self._target = float(target)
        self.supports_batch = bool(
            getattr(evaluator, "supports_batch", False)
        ) and callable(getattr(evaluator, "evaluate_batch", None))

    def __call__(self, params: dict, attempt: int = 0) -> float:
        value = self._evaluator(params, attempt=attempt)
        return (float(value) - self._target) ** 2

    def evaluate_batch(self, chunk_params: list) -> list:
        return [
            (None, error) if error is not None
            else ((float(value) - self._target) ** 2, None)
            for value, error in self._evaluator.evaluate_batch(chunk_params)
        ]

    @property
    def __cache_tag__(self) -> str:
        return (f"repro.service._TargetObjective"
                f"({self._evaluator.__cache_tag__},{self._target!r})")


class SimulationService:
    """In-process simulation-as-a-service engine (see module docstring).

    The HTTP front end (:mod:`repro.service.http`) is a thin JSON shim
    over this class; tests and benchmarks may drive it directly.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int | None = 64,
        cache_maxsize: int | None = None,
        max_jobs_kept: int = 4096,
        sweep_executor=None,
        sweep_jobs=None,
    ):
        if workers < 0:
            raise AnalysisError("service worker count must be >= 0")
        self._queue = JobQueue(limit=queue_limit)
        self._circuits: dict[str, _CircuitEntry] = {}
        self._circuits_lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._jobs_order: list[str] = []
        self._jobs_lock = threading.Lock()
        self._tenants: dict[str, ResultCache] = {}
        self._tenants_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._cache_maxsize = cache_maxsize
        self._max_jobs_kept = max_jobs_kept
        self._sweep_executor = sweep_executor
        self._sweep_jobs = sweep_jobs
        self.stats = ServiceStats()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the workers; queued jobs are cancelled, running finish."""
        if self._closed:
            return
        self._closed = True
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if self._queue.cancel(job):
                self.stats.record_cancel()
        self._queue.close()
        for thread in self._workers:
            thread.join(timeout=10.0)

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- circuits ------------------------------------------------------------

    def create_circuit(self, deck_text: str, tenant: str = "default") -> dict:
        """Parse, lint and compile a deck; return its content-hashed id.

        Identical deck text maps to the identical id — the second create
        is a registry hit that performs no parsing and no compilation
        (``reused: true`` in the payload).
        """
        self.stats.record_request("create_circuit")
        if not isinstance(deck_text, str) or not deck_text.strip():
            return error_payload(
                AnalysisError("deck text must be a non-empty string"),
                code=400,
            )
        circuit_id = circuit_id_for(deck_text)
        with self._circuits_lock:
            entry = self._circuits.get(circuit_id)
        if entry is not None:
            self.stats.record_circuit(reused=True)
            return ok_payload(circuit_id=circuit_id, reused=True,
                              title=entry.deck.title)
        try:
            deck = parse_deck(deck_text)
            lint_circuit(deck.circuit)
            from ..spice.analysis import Simulator

            tolerances, gmin = _deck_tolerances(deck)
            engine = (getattr(deck, "options", None) or {}).get("solver")
            simulator = Simulator(deck.circuit, tolerances=tolerances,
                                  gmin=gmin, engine=engine)
            # Compile now: the create call pays the one-time cost, every
            # job after it reuses the cached engine.
            simulator._engine()
        except ReproError as exc:
            return error_payload(exc)
        entry = _CircuitEntry(
            circuit_id=circuit_id, deck_text=deck_text, deck=deck,
            simulator=simulator,
        )
        with self._circuits_lock:
            # Two concurrent creates of one deck race benignly: first
            # registration wins, the loser's compile is discarded.
            existing = self._circuits.setdefault(circuit_id, entry)
            reused = existing is not entry
        self.stats.record_circuit(reused=reused)
        return ok_payload(circuit_id=circuit_id, reused=reused,
                          title=deck.title)

    def _entry(self, circuit_id: str) -> _CircuitEntry:
        with self._circuits_lock:
            entry = self._circuits.get(circuit_id)
        if entry is None:
            raise AnalysisError(f"circuit {circuit_id!r} not found")
        return entry

    def _tenant_cache(self, tenant: str) -> ResultCache:
        with self._tenants_lock:
            cache = self._tenants.get(tenant)
            if cache is None:
                cache = self._tenants[tenant] = ResultCache(
                    maxsize=self._cache_maxsize
                )
            return cache

    # -- job submission ------------------------------------------------------

    def submit(self, kind: str, circuit_id: str, params: dict | None = None,
               priority: int = 0, tenant: str = "default") -> dict:
        """Enqueue one analysis job; returns its id or a 503 rejection."""
        self.stats.record_request(f"run_{kind}" if kind in JOB_KINDS
                                  else "submit")
        if kind not in JOB_KINDS:
            return error_payload(
                AnalysisError(
                    f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
                ),
                code=400,
            )
        try:
            self._entry(circuit_id)
        except AnalysisError as exc:
            return error_payload(exc, code=404)
        job = Job(
            id=f"job-{next(self._ids):08d}",
            kind=kind,
            circuit_id=circuit_id,
            tenant=tenant,
            params=dict(params or {}),
            priority=int(priority),
        )
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._jobs_order.append(job.id)
            while len(self._jobs_order) > self._max_jobs_kept:
                oldest_id = self._jobs_order[0]
                oldest = self._jobs.get(oldest_id)
                if oldest is not None and not oldest.finished:
                    break  # never evict live jobs
                self._jobs_order.pop(0)
                self._jobs.pop(oldest_id, None)
        try:
            self._queue.submit(job)
        except QueueFullError as exc:
            with self._jobs_lock:
                self._jobs.pop(job.id, None)
                if job.id in self._jobs_order:
                    self._jobs_order.remove(job.id)
            self.stats.record_rejection()
            payload = error_payload(exc, code=503)
            payload["status"] = "rejected"
            payload["queue_depth"] = exc.depth
            payload["queue_limit"] = exc.limit
            return payload
        self.stats.record_submit()
        return ok_payload(job_id=job.id, state="queued")

    # convenience wrappers matching the API exemplar's verbs ----------------

    def run_dc(self, circuit_id: str, priority: int = 0,
               tenant: str = "default", **params) -> dict:
        return self.submit("dc", circuit_id, params, priority, tenant)

    def run_ac(self, circuit_id: str, priority: int = 0,
               tenant: str = "default", **params) -> dict:
        return self.submit("ac", circuit_id, params, priority, tenant)

    def run_transient(self, circuit_id: str, priority: int = 0,
                      tenant: str = "default", **params) -> dict:
        return self.submit("transient", circuit_id, params, priority, tenant)

    def run_sweep(self, circuit_id: str, priority: int = 0,
                  tenant: str = "default", **params) -> dict:
        return self.submit("sweep", circuit_id, params, priority, tenant)

    def run_optimize(self, circuit_id: str, priority: int = 0,
                     tenant: str = "default", **params) -> dict:
        return self.submit("optimize", circuit_id, params, priority, tenant)

    def run_verify(self, circuit_id: str, priority: int = 0,
                   tenant: str = "default", **params) -> dict:
        return self.submit("verify", circuit_id, params, priority, tenant)

    # -- job store -----------------------------------------------------------

    def _job(self, job_id: str) -> Job | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def poll(self, job_id: str) -> dict:
        """The job's current state (result/error attached once finished)."""
        self.stats.record_request("poll")
        job = self._job(job_id)
        if job is None:
            return error_payload(
                AnalysisError(f"job {job_id!r} not found"), code=404
            )
        return ok_payload(**job.describe())

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job finishes (or ``timeout``), then poll it."""
        job = self._job(job_id)
        if job is None:
            return error_payload(
                AnalysisError(f"job {job_id!r} not found"), code=404
            )
        job.done_event.wait(timeout)
        return self.poll(job_id)

    def cancel_job(self, job_id: str) -> dict:
        """Withdraw a queued job; running/finished jobs are left alone."""
        self.stats.record_request("cancel")
        job = self._job(job_id)
        if job is None:
            return error_payload(
                AnalysisError(f"job {job_id!r} not found"), code=404
            )
        if self._queue.cancel(job):
            self.stats.record_cancel()
            return ok_payload(job_id=job_id, state="cancelled")
        return ok_payload(job_id=job_id, state=job.status, cancelled=False)

    def stats_payload(self) -> dict:
        """The service's observability snapshot (``GET /stats``)."""
        self.stats.record_request("stats")
        with self._tenants_lock:
            caches = list(self._tenants.values())
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        return ok_payload(stats=self.stats.as_dict(
            queue_depth=len(self._queue),
            cache_hits=hits, cache_misses=misses,
        ))

    def profile_summary(self) -> str:
        """Human-readable stats digest (``repro serve --profile``)."""
        with self._tenants_lock:
            caches = list(self._tenants.values())
        return self.stats.summary(
            queue_depth=len(self._queue),
            cache_hits=sum(cache.hits for cache in caches),
            cache_misses=sum(cache.misses for cache in caches),
        )

    # -- execution -----------------------------------------------------------

    def step(self, timeout: float | None = 0.0) -> bool:
        """Pop and execute one queued job inline (synchronous mode).

        Returns True when a job ran.  Valid at any worker count, but the
        intended use is ``workers=0`` tests that need deterministic
        execution order.
        """
        job = self._queue.next_job(timeout=timeout)
        if job is None:
            return False
        self._execute(job)
        return True

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.next_job(timeout=None)
            if job is None:
                return
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            handler = getattr(self, f"_job_{job.kind}")
            job.result = handler(job)
            job.status = "done"
        except Exception as exc:  # noqa: BLE001 - jobs must never kill workers
            job.error = error_payload(exc)
            job.status = "failed"
        job.finished_at = time.monotonic()
        self.stats.record_finish(job.status == "done",
                                 job.latency_seconds())
        job.done_event.set()

    def _cached(self, job: Job, payload_key: str, compute):
        """Serve one job from the tenant cache, or compute + store.

        ``payload_key`` is a :func:`~repro.sweep.content_key` over the
        job's kind, circuit id and parameters — the same content-hash
        scheme the sweep layer uses, so identical requests from one
        tenant are cache hits and tenants never share rows.
        """
        cache = self._tenant_cache(job.tenant)
        hit = cache.get(payload_key, default=_MISS)
        if hit is not _MISS:
            payload = dict(hit)
            payload["cached"] = True
            return payload
        payload = compute()
        cache.put(payload_key, payload)
        return dict(payload)

    def _recompile_guard(self, entry: _CircuitEntry):
        """Snapshot the entry's engine compile counter; returns a
        callable that folds any post-snapshot compiles into the stats
        (they indicate the compile-once contract broke)."""
        engine = entry.simulator._engine()
        before = engine.stats.compilations

        def finish() -> None:
            delta = engine.stats.compilations - before
            self.stats.record_recompiles(delta)

        return finish

    # -- job kinds -----------------------------------------------------------

    def _job_dc(self, job: Job) -> dict:
        entry = self._entry(job.circuit_id)
        key = content_key(f"service.dc.{job.circuit_id}", job.params)

        def compute() -> dict:
            with entry.lock:
                guard = self._recompile_guard(entry)
                op = entry.simulator.operating_point()
                guard()
            nodes = {f"v({node.lower()})": float(value)
                     for node, value in op.node_voltages().items()}
            return {"nodes": nodes}

        return self._cached(job, key, compute)

    def _job_ac(self, job: Job) -> dict:
        entry = self._entry(job.circuit_id)
        params = job.params
        start = float(params.get("start", 1.0))
        stop = float(params.get("stop", 1e9))
        points = int(params.get("points_per_decade", 10))
        sweep = str(params.get("sweep", "dec"))
        output = params.get("output")
        key = content_key(f"service.ac.{job.circuit_id}", {
            "start": start, "stop": stop, "points": points,
            "sweep": sweep, "output": output,
        })

        def compute() -> dict:
            with entry.lock:
                guard = self._recompile_guard(entry)
                ac = entry.simulator.ac(start, stop,
                                        points_per_decade=points,
                                        sweep=sweep)
                guard()
            payload = {
                "frequencies_hz": [float(f) for f in ac.frequencies],
            }
            if output is not None:
                payload["magnitude_db"] = [
                    float(v) for v in ac.voltage_db(output)
                ]
                payload["phase_deg"] = [
                    float(v) for v in ac.voltage_phase_deg(output)
                ]
            return payload

        return self._cached(job, key, compute)

    def _job_transient(self, job: Job) -> dict:
        entry = self._entry(job.circuit_id)
        params = job.params
        if "stop_time" not in params:
            raise AnalysisError("transient job needs stop_time")
        stop_time = float(params["stop_time"])
        max_step = params.get("max_step")
        output = params.get("output")
        key = content_key(f"service.transient.{job.circuit_id}", {
            "stop_time": stop_time, "max_step": max_step, "output": output,
        })

        def compute() -> dict:
            kwargs = {"stop_time": stop_time}
            if max_step is not None:
                kwargs["max_step"] = float(max_step)
            with entry.lock:
                guard = self._recompile_guard(entry)
                tran = entry.simulator.transient(**kwargs)
                guard()
            payload = {
                "times_s": [float(t) for t in tran.times],
                "points": len(tran.times),
            }
            if output is not None:
                payload["voltages"] = [
                    float(v) for v in tran.voltage(output)
                ]
            return payload

        return self._cached(job, key, compute)

    def _evaluator(self, entry: _CircuitEntry, key: tuple, build):
        """The entry's cached deck evaluator under ``key``.

        Built by ``build()`` and primed (the deck's engine compiled,
        every kept variant's lane stamps built on it) on first use,
        then reused across jobs, so repeated sweeps and
        qualifications of one circuit id pay the parse + compile once.
        Jobs count the evaluator's :meth:`compilations` around their run
        as ``recompiles``.  The evaluator serializes its own solves, so
        concurrent jobs may share it safely.
        """
        with entry.lock:
            evaluator = entry.evaluators.get(key)
            if evaluator is None:
                evaluator = build()
                evaluator.prime()
                entry.evaluators[key] = evaluator
            return evaluator

    def _sweep_dispatch(self, params: dict) -> dict:
        """The ``executor``/``jobs`` pair a sweep-backed job runs with.

        A request's own values are checked before any pool is touched,
        because a process pool's size follows ``jobs`` and the pool
        outlives the job: ``jobs`` must be absent, ``"auto"`` or an
        integer from 1 to the usable CPUs, and ``executor`` a name
        :func:`~repro.sweep.resolve_executor` accepts.  Anything else
        fails the job with code 400.  The operator's ``sweep_executor``
        and ``sweep_jobs`` are trusted as given.
        """
        executor = params.get("executor", self._sweep_executor)
        jobs = params.get("jobs", self._sweep_jobs)
        cpus = _default_jobs()
        if "jobs" in params and jobs not in (None, "auto") and (
                isinstance(jobs, bool) or not isinstance(jobs, int)
                or not 1 <= jobs <= cpus):
            raise AnalysisError(
                f"jobs must be 'auto' or an integer from 1 to {cpus} "
                f"(the usable CPUs), got {jobs!r}"
            )
        if isinstance(params.get("executor"), Executor):
            raise AnalysisError(
                f"executor must be a backend name, got {executor!r}"
            )
        resolve_executor(executor, jobs)  # unknown names raise here
        return {"executor": executor, "jobs": jobs}

    def _job_sweep(self, job: Job) -> dict:
        entry = self._entry(job.circuit_id)
        params = job.params
        source = params.get("source")
        values = params.get("values")
        output = params.get("output")
        if not source or values is None or output is None:
            raise AnalysisError(
                "sweep job needs source, values and output, e.g. "
                '{"source": "VIN", "values": [0.0, 0.1], "output": "out"}'
            )
        dispatch = self._sweep_dispatch(params)
        analysis = str(params.get("analysis", "dc")).lower()
        if analysis not in ("dc", "ac"):
            raise AnalysisError(
                f"sweep job analysis must be 'dc' or 'ac', got {analysis!r}"
            )
        if str(source) not in entry.deck.circuit:
            raise SweepError(
                f"deck has no element named {source!r} to sweep"
            )
        output = str(output)
        if analysis == "ac":
            grid = params.get("frequencies")
            if grid is None and "start" in params:
                from ..spice.ac import frequency_grid

                grid = frequency_grid(
                    float(params["start"]), float(params["stop"]),
                    int(params.get("points_per_decade", 10)),
                    str(params.get("sweep", "dec")),
                )
            grid = None if grid is None else tuple(float(f) for f in grid)
            evaluator = self._evaluator(
                entry, ("ac", output, grid),
                lambda: BlockedACSweep(entry.deck_text,
                                       measure=ac_gain_db(output),
                                       frequencies=grid))
        else:
            evaluator = self._dc_evaluator(entry, output)
        before = evaluator.compilations()
        result = run_sweep(
            evaluator,
            [{str(source): float(v)} for v in values],
            chunk_size=params.get("chunk_size"),
            cache=self._tenant_cache(job.tenant),
            on_error=params.get("on_error", "skip"),
            **dispatch,
        )
        self.stats.record_recompiles(evaluator.compilations() - before)
        self.stats.fold_sweep(result.stats)
        if analysis == "ac":
            point_values = [
                None if v is None else [float(m) for m in v]
                for v in result.values
            ]
        else:
            point_values = [None if v is None else float(v)
                            for v in result.values]
        payload = {
            "source": str(source),
            "output": str(output),
            "analysis": analysis,
            "values": point_values,
            "failures": [failed_point_to_dict(f) for f in result.failures],
            "sweep_stats": {
                "points": result.stats.points,
                "evaluated": result.stats.evaluated,
                "cache_hits": result.stats.cache_hits,
                "executor": result.stats.executor,
                "workers": result.stats.workers,
            },
        }
        if analysis == "ac":
            payload["frequencies_hz"] = [
                float(f) for f in evaluator.frequencies
            ]
        return payload

    def _dc_evaluator(self, entry: _CircuitEntry, output: str):
        """The cached node-voltage evaluator sweep and optimize jobs
        share."""
        return self._evaluator(
            entry, ("dc", output, None),
            lambda: BlockedDCSweep(entry.deck_text,
                                   measure=node_voltage(output)))

    def _job_verify(self, job: Job) -> dict:
        from ..verify import (
            DEFAULT_STRESS_RULES,
            CornerEvaluator,
            default_corners,
            default_measurements,
            load_stress_rules,
            qualify_deck,
        )

        entry = self._entry(job.circuit_id)
        params = job.params
        dispatch = self._sweep_dispatch(params)
        temps = tuple(float(t)
                      for t in params.get("temps", (-20.0, 27.0, 85.0)))
        supply_tol = float(params.get("supply_tol", 0.1))
        passive_tol = float(params.get("passive_tol", 0.1))
        rules = (load_stress_rules(params["rules"])
                 if params.get("rules") else DEFAULT_STRESS_RULES)
        # The entry's create-time parse serves the defaults.
        corners = default_corners(
            entry.deck, temperatures_c=temps,
            supply_tol=supply_tol, passive_tol=passive_tol,
        )
        measurements = default_measurements(entry.deck)
        # The executor/jobs knobs are absent from the cache key on
        # purpose: corner results are bit-identical across executors,
        # so one tenant's serial and parallel runs share rows.
        key = content_key(f"service.verify.{job.circuit_id}", {
            "temps": list(temps),
            "supply_tol": supply_tol,
            "passive_tol": passive_tol,
            "rules": [rule.to_dict() for rule in rules],
        })
        evaluator = self._evaluator(
            entry, ("verify", temps, supply_tol, passive_tol, rules),
            lambda: CornerEvaluator(entry.deck_text, corners,
                                    measurements, rules=rules))

        def compute() -> dict:
            before = evaluator.compilations()
            stats_sink: dict = {}
            report = qualify_deck(
                entry.deck_text, corners, measurements,
                name=entry.deck.title, rules=rules,
                chunk_size=params.get("chunk_size"),
                cache=self._tenant_cache(job.tenant),
                on_error=params.get("on_error", "retry"),
                evaluator=evaluator,
                stats_sink=stats_sink,
                **dispatch,
            )
            self.stats.record_recompiles(
                evaluator.compilations() - before)
            self.stats.fold_sweep(stats_sink["sweep"])
            return report.to_dict()

        return self._cached(job, key, compute)

    def _job_optimize(self, job: Job) -> dict:
        from ..optimize.optimizers import Parameter, coordinate_search

        entry = self._entry(job.circuit_id)
        params = job.params
        output = params.get("output")
        target = params.get("target")
        dimensions = params.get("parameters")
        if output is None or target is None or not dimensions:
            raise AnalysisError(
                "optimize job needs output, target and parameters, e.g. "
                '{"output": "out", "target": 2.5, "parameters": '
                '[{"name": "VIN", "lower": 0.0, "upper": 5.0}]}'
            )
        dispatch = self._sweep_dispatch(params)
        search = [
            Parameter(
                name=str(d["name"]),
                lower=float(d["lower"]),
                upper=float(d["upper"]),
                initial=(None if d.get("initial") is None
                         else float(d["initial"])),
                log=bool(d.get("log", False)),
            )
            for d in dimensions
        ]
        objective = _TargetObjective(
            self._dc_evaluator(entry, str(output)), float(target)
        )
        result = coordinate_search(
            objective,
            search,
            max_iterations=int(params.get("max_iterations", 40)),
            cache=self._tenant_cache(job.tenant),
            **dispatch,
        )
        return {
            "output": str(output),
            "target": float(target),
            "best_params": {k: float(v)
                            for k, v in result.best_params.items()},
            "best_error": float(result.best_value),
            "evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "iterations": result.iterations,
            "converged": bool(result.converged),
        }


class _Miss:
    __slots__ = ()


_MISS = _Miss()
