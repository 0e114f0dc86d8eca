"""The sweep engine: chunked, cached, executor-agnostic point evaluation.

Execution model (see ``docs/sweeps.md`` for the full contract):

1. Points are independent: an evaluation sees its own point and nothing
   else, so every value is a function of the point alone.  A
   computation whose steps share solver state runs as one point (the
   warm Vbe chains of :func:`repro.devices.ft.ft_curve`).
2. The point list is split into **chunks** of consecutive points, the
   unit of dispatch (amortizing process-pool IPC).  A scalar sweep
   takes ~32 chunks whatever the executor; a batch-capable evaluation
   (``evaluate_batch``) runs as one chunk on the serial executor (and
   under ``auto`` up to :data:`~repro.sweep.costmodel.
   BLOCKED_SERIAL_POINTS` points) and in the cost model's chunks on a
   pool (see :func:`_chunk_size`).  Chunking never changes a value.
3. Stochastic points carry their own :class:`~numpy.random.SeedSequence`
   child (see :mod:`repro.sweep.grid`); the evaluator receives a fresh
   generator per point, so the sample stream is a function of the point
   index alone.
4. With a :class:`~repro.sweep.cache.ResultCache`, points whose content
   key is already present are never re-evaluated.

Fault tolerance — the ``on_error`` policy:

* ``"raise"`` (default): the first evaluation exception aborts the
  sweep, exactly as a plain loop would.
* ``"skip"``: failing points are recorded as picklable
  :class:`FailedPoint` records (exception repr, parameters, and the
  solver's :class:`~repro.errors.ConvergenceReport` when one is
  attached) on :attr:`SweepResult.failures`; every other point's value
  — and cache entry — survives.
* ``"retry"``: like ``"skip"``, but a point failing with
  :class:`~repro.errors.ConvergenceError` is re-evaluated up to
  ``retries`` times first.  If the evaluation function accepts an
  ``attempt`` keyword, retries pass ``attempt=1, 2, ...`` so it can
  escalate (e.g. :func:`repro.spice.dcop.solve_dc` perturbs its initial
  guess and walks a heavier gmin ladder).

Transient executor faults (a worker killed by the OS —
``BrokenProcessPool`` and friends) are retried with exponential backoff
on a fresh pool regardless of ``on_error``; see
:func:`repro.sweep.executors.map_chunks_with_retries`.

Evaluation-function convention — ``fn(params)`` plus, when applicable:

* ``fn(params, rng=generator)`` for seeded points,
* ``fn(params, attempt=k)`` on the ``k``-th retry when the function
  opts in by declaring the keyword,
* ``fn.evaluate_batch([params, ...]) -> [(value, error_or_None), ...]``
  for the first attempt of an unseeded chunk's points when the function
  sets ``supports_batch`` (see :mod:`repro.sweep.batched`).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import pickle
import time as _time
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import AnalysisError, ConvergenceError, ConvergenceReport
from . import costmodel
from .cache import ResultCache, content_key
from .executors import (
    AutoExecutor,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    map_chunks_with_retries,
    pool_is_warm,
    resolve_executor,
)
from .grid import SweepPoint

#: Valid ``on_error`` policies for :func:`run_sweep`.
ON_ERROR_POLICIES = ("raise", "skip", "retry")


@dataclass
class FailedPoint:
    """Picklable record of one sweep point that could not be evaluated.

    Captured inside the (possibly remote) chunk evaluator, so it carries
    only plain data: the exception's repr and type name, the point's
    parameters, the attempt count, and — when the failure was a
    :class:`~repro.errors.ConvergenceError` — the solver's structured
    :class:`~repro.errors.ConvergenceReport`.
    """

    index: int  #: the point's position in the sweep
    params: dict  #: the point's parameter dict
    error: str  #: ``repr()`` of the exception
    error_type: str  #: exception class name (e.g. ``"ConvergenceError"``)
    report: ConvergenceReport | None = None  #: solver forensics, if any
    attempts: int = 1  #: total evaluation attempts, retries included

    @classmethod
    def from_exception(cls, point: SweepPoint, exc: BaseException,
                       attempts: int) -> "FailedPoint":
        return cls(
            index=point.index,
            params=dict(point.params),
            error=repr(exc),
            error_type=type(exc).__name__,
            report=getattr(exc, "report", None),
            attempts=attempts,
        )

    def summary(self) -> str:
        text = f"{self.label()}: {self.error}"
        if self.attempts > 1:
            text += f" (after {self.attempts} attempts)"
        if self.report is not None:
            text += f" [{self.report.summary()}]"
        return text

    def label(self) -> str:
        return SweepPoint(index=self.index, params=self.params).label()


@dataclass
class SweepStats:
    """Counters for one sweep run, returned on :attr:`SweepResult.stats`.

    A sweep counts its work here only; the engines its points compile
    keep their own :class:`~repro.spice.engine.EngineStats`.
    """

    points: int = 0  #: total points in the sweep
    evaluated: int = 0  #: points actually evaluated (not cache-served)
    cache_hits: int = 0  #: points served from the result cache
    chunks: int = 0  #: chunks dispatched to the executor
    workers: int = 1  #: executor worker count
    executor: str = "serial"  #: executor backend name
    wall_seconds: float = 0.0  #: whole-sweep wall time (parent side)
    point_seconds: float = 0.0  #: summed per-point evaluation time
    failures: int = 0  #: points that failed (skip/retry policies)
    retries: int = 0  #: extra evaluation attempts spent on retries
    executor_faults: int = 0  #: transient pool faults recovered from
    on_error: str = "raise"  #: failure policy the sweep ran under
    payload_bytes: int = 0  #: bytes serialized toward workers (0 in-process)
    spinup_seconds: float = 0.0  #: pool spin-up paid by this sweep
    chunk_p50_seconds: float = 0.0  #: median chunk submit-to-result latency
    chunk_p99_seconds: float = 0.0  #: tail chunk submit-to-result latency
    plan: str = ""  #: dispatch cost-model decision (``--jobs auto`` only)

    def points_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.points / self.wall_seconds

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        text = (
            f"{self.points} points ({self.evaluated} evaluated, "
            f"{self.cache_hits} cached) in {self.chunks} chunks on "
            f"{self.workers} {self.executor} worker(s), "
            f"{self.wall_seconds * 1e3:.2f} ms wall "
            f"({self.points_per_second():.0f} pts/s)"
        )
        if self.failures or self.retries or self.executor_faults:
            text += (
                f"; {self.failures} failed point(s), "
                f"{self.retries} retry attempt(s), "
                f"{self.executor_faults} executor fault(s) "
                f"[on_error={self.on_error}]"
            )
        if self.payload_bytes or self.spinup_seconds:
            text += (
                f"; dispatch: {self.payload_bytes} payload bytes, "
                f"{self.spinup_seconds * 1e3:.1f} ms spin-up, "
                f"chunk p50/p99 {self.chunk_p50_seconds * 1e3:.2f}/"
                f"{self.chunk_p99_seconds * 1e3:.2f} ms"
            )
        if self.plan:
            text += f"; plan: {self.plan}"
        return text


@dataclass
class SweepResult:
    """Ordered sweep output: one value per point, plus run statistics.

    Under ``on_error="skip"``/``"retry"``, failed points hold ``None``
    in :attr:`values` and are described in :attr:`failures`.
    """

    points: list[SweepPoint]
    values: list
    stats: SweepStats
    #: per-point evaluation seconds (0.0 for cache-served points)
    point_seconds: list[float] = field(default_factory=list)
    #: one record per point that could not be evaluated
    failures: list[FailedPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def ok(self) -> bool:
        """True when every point produced a value."""
        return not self.failures

    def failed_indices(self) -> list[int]:
        return [failure.index for failure in self.failures]

    def value_array(self, dtype=float, skip_failed: bool = False) -> np.ndarray:
        """Values as an array; ``skip_failed=True`` drops failed points.

        With failures present and ``skip_failed=False`` this raises —
        silently coercing the ``None`` placeholders would poison the
        array.
        """
        if self.failures and not skip_failed:
            raise AnalysisError(
                f"sweep has {len(self.failures)} failed point(s) at "
                f"indices {self.failed_indices()}; pass "
                "skip_failed=True or inspect result.failures"
            )
        if skip_failed:
            failed = set(self.failed_indices())
            kept = [v for i, v in enumerate(self.values) if i not in failed]
            return np.asarray(kept, dtype=dtype)
        return np.asarray(self.values, dtype=dtype)

    def param_array(self, name: str, skip_failed: bool = False) -> np.ndarray:
        """One parameter across the points (aligned with ``value_array``
        called with the same ``skip_failed``)."""
        if any(name not in p.params for p in self.points):
            available = sorted({k for p in self.points for k in p.params})
            raise AnalysisError(
                f"sweep has no parameter {name!r}; available parameters: "
                f"{available}"
            )
        if skip_failed:
            failed = set(self.failed_indices())
            return np.asarray([
                p.params[name] for i, p in enumerate(self.points)
                if i not in failed
            ])
        return np.asarray([p.params[name] for p in self.points])

    def failure_summary(self) -> str:
        """One line per failure, or a clean-run message."""
        if not self.failures:
            return "no failed points"
        lines = [f"{len(self.failures)} of {len(self.points)} "
                 "point(s) failed:"]
        lines.extend(f"  {failure.summary()}" for failure in self.failures)
        return "\n".join(lines)


def _chunk_size(backend: Executor, count: int, blocked: bool) -> int:
    """The default chunk size of a sweep of ``count`` points.

    A scalar sweep takes ~32 chunks of at least one point each, whatever
    the executor.  A blocked sweep (``evaluate_batch``) pays its stacked
    solver's fixed cost once per chunk, so it runs as one chunk on the
    serial executor and in :func:`~repro.sweep.costmodel.chunk_size_for`
    chunks on a pool (the probe of an ``auto`` sweep past
    :data:`~repro.sweep.costmodel.BLOCKED_SERIAL_POINTS` included); the
    evaluator bounds a chunk's memory by its byte budget.  Values are
    bit-identical under any chunking.
    """
    if not blocked:
        return max(1, math.ceil(count / 32))
    if isinstance(backend, SerialExecutor):
        return count
    return costmodel.chunk_size_for(count, backend.workers)


def _code_object(fn):
    """The code object behind a callable, or None (builtins, C funcs)."""
    code = getattr(fn, "__code__", None)
    if code is not None:
        return code
    call = getattr(fn, "__call__", None)
    return getattr(call, "__code__", None)


def _evaluation_tag(fn, require_code: bool = False) -> str:
    """A content tag identifying the evaluation, partial args included.

    The tag mixes a hash of the function's compiled bytecode into its
    module-qualified name, so two different lambdas sharing one
    ``__qualname__`` (both ``<lambda>`` in the same scope) get distinct
    cache keys instead of silently serving each other's results.
    ``require_code=True`` (set when a cache is in play) refuses
    callables with no reachable code object — their tag could collide
    undetectably — directing the caller to pass an explicit
    ``cache_tag``.

    A callable may take charge of its own identity by exposing a
    ``__cache_tag__`` string (see
    :class:`~repro.sweep.batched.BlockedDCSweep`, whose behaviour lives
    in instance state — deck text — that bytecode hashing cannot see).
    """
    own_tag = getattr(fn, "__cache_tag__", None)
    if isinstance(own_tag, str) and own_tag:
        return own_tag
    if isinstance(fn, functools.partial):
        from .cache import _canonical

        inner = _evaluation_tag(fn.func, require_code=require_code)
        return (f"partial({inner},{_canonical(list(fn.args))},"
                f"{_canonical(dict(fn.keywords))})")
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    code = _code_object(fn)
    if code is None:
        if require_code:
            raise AnalysisError(
                f"cannot derive a collision-safe cache tag for "
                f"{module}.{qualname} (no code object); pass an "
                "explicit cache_tag= to run_sweep"
            )
        return f"{module}.{qualname}"
    # co_code alone is not enough: ``lambda p: p["x"] * 2`` and
    # ``lambda p: p["x"] * 10`` share bytecode (the constant lives in
    # co_consts), as do closures over different captured values.
    hasher = hashlib.sha256(code.co_code)
    hasher.update(repr(code.co_consts).encode())
    hasher.update(repr(code.co_names).encode())
    closure = getattr(fn, "__closure__", None)
    if closure:
        for cell in closure:
            try:
                hasher.update(repr(cell.cell_contents).encode())
            except ValueError:  # empty cell
                hasher.update(b"<empty>")
    digest = hasher.hexdigest()[:12]
    return f"{module}.{qualname}#{digest}"


def _accepts_keyword(fn, name: str) -> bool:
    """Whether calling ``fn(..., name=...)`` can succeed (best effort)."""
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
            parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY
        ):
            return True
    return False


def _evaluate_chunk(
    fn,
    on_error: str,
    retries: int,
    pass_attempt: bool,
    use_batch: bool,
    chunk: list[SweepPoint],
):
    """Evaluate one chunk in order; the process-pool work function.

    Returns ``(values, seconds, failures, retries_used)`` aligned with
    the chunk's points (``values[i]`` is None for failed points).
    Module-level (not a closure) so it pickles for the process executor.

    With ``use_batch`` and no seeded point in the chunk (a batched
    solver cannot thread per-point generators), one
    ``fn.evaluate_batch`` call supplies every point's first attempt:
    ``[(value, error_or_None), ...]``, each lane's error the very
    exception ``fn(params)`` would have raised.  A blocked solve has no
    per-lane clock, so each lane is charged the batch wall time divided
    by the lane count.  Every later attempt is a scalar call.

    Failure semantics: under ``raise`` the first failed point (chunk
    order) re-raises its error; under ``skip``/``retry`` the error is
    captured as a :class:`FailedPoint` and the chunk continues.  Retries
    apply to :class:`~repro.errors.ConvergenceError` only — other
    exceptions are deterministic and re-running them is wasted work.
    """
    outcomes = None
    if use_batch and all(point.seed is None for point in chunk):
        t0 = _time.perf_counter()
        outcomes = fn.evaluate_batch([point.params for point in chunk])
        per_lane = (_time.perf_counter() - t0) / len(chunk)
    values = []
    seconds = []
    failures: list[FailedPoint] = []
    retries_used = 0
    max_attempts = retries + 1 if on_error == "retry" else 1
    for i, point in enumerate(chunk):
        rng = point.rng()
        spent = 0.0
        for attempt in range(max_attempts):
            if attempt == 0 and outcomes is not None:
                value, error = outcomes[i]
                spent += per_lane
            else:
                kwargs = {}
                if attempt > 0 and pass_attempt:
                    kwargs["attempt"] = attempt
                if rng is not None:
                    # A fresh generator per retry: the first draw of a
                    # retried point must match a clean run's, not resume
                    # mid-stream where the failed attempt stopped.
                    kwargs["rng"] = rng if attempt == 0 else point.rng()
                t0 = _time.perf_counter()
                try:
                    value, error = fn(point.params, **kwargs), None
                except Exception as exc:
                    value, error = None, exc
                spent += _time.perf_counter() - t0
            if error is None:
                break
            if on_error == "raise":
                raise error
            if (isinstance(error, ConvergenceError)
                    and attempt + 1 < max_attempts):
                retries_used += 1
                continue
            failures.append(
                FailedPoint.from_exception(point, error, attempt + 1)
            )
            value = None
            break
        values.append(value)
        seconds.append(spent)
    return values, seconds, failures, retries_used


def _materialize_points(points) -> list[SweepPoint]:
    """Accept grids/samplers, SweepPoint lists, or bare param dicts."""
    if hasattr(points, "points"):
        points = points.points()
    materialized = []
    for i, point in enumerate(points):
        if isinstance(point, SweepPoint):
            materialized.append(point)
        elif isinstance(point, dict):
            materialized.append(SweepPoint(index=i, params=point))
        else:
            raise AnalysisError(
                f"sweep point {i} is {type(point).__name__}; expected "
                "SweepPoint or a parameter dict"
            )
    return materialized


def _plan_auto_dispatch(auto: AutoExecutor, work, chunks: list):
    """Probe-then-plan for the ``auto`` executor.

    Evaluates the first chunk in-process — those points must be
    evaluated regardless, so the probe is free — and feeds the measured
    per-point cost plus pickled payload sizes to the dispatch cost
    model, which picks the real backend and chunk size for the rest.

    Returns ``(backend, plan_text, probe_result, rest)`` where ``rest``
    is the *remaining* work, re-chunked to the plan's size — one chunk
    when the plan stays serial.  Re-chunking only regroups whole
    points, so every value is unchanged.
    """
    probe = chunks[0]
    t0 = _time.perf_counter()
    probe_result = work(probe)
    point_seconds = (_time.perf_counter() - t0) / len(probe)
    rest = [point for chunk in chunks[1:] for point in chunk]
    if not rest:
        return (SerialExecutor(), "serial x1: probe consumed the sweep",
                probe_result, [])
    try:
        fn_bytes = len(pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL))
        point_bytes = (
            len(pickle.dumps(probe, protocol=pickle.HIGHEST_PROTOCOL))
            / len(probe)
        )
    except Exception:
        # Unpicklable evaluation: the process pool is off the table.
        backend, plan_text = (SerialExecutor(),
                              "serial x1: evaluation is not picklable")
        size = len(rest)
    else:
        workers = auto.workers
        plan = costmodel.plan(
            len(rest), point_seconds, point_bytes=point_bytes,
            fn_bytes=fn_bytes, workers=workers,
            pool_warm=pool_is_warm(workers),
        )
        backend = (ProcessExecutor(plan.jobs) if plan.backend == "process"
                   else SerialExecutor())
        plan_text, size = plan.summary(), max(1, plan.chunk_size)
    rest = [rest[i:i + size] for i in range(0, len(rest), size)]
    return backend, plan_text, probe_result, rest


def run_sweep(
    fn,
    points,
    *,
    executor=None,
    jobs: int | None = None,
    chunk_size: int | None = None,
    cache: ResultCache | None = None,
    cache_tag: str | None = None,
    on_error: str = "raise",
    retries: int = 2,
    batch: bool | str = "auto",
) -> SweepResult:
    """Evaluate ``fn`` over ``points`` with the configured executor.

    ``points`` is a :class:`ParameterGrid`, :class:`MonteCarloSampler`,
    or iterable of :class:`SweepPoint`/parameter dicts.  ``executor`` /
    ``jobs`` select the backend (see
    :func:`~repro.sweep.executors.resolve_executor`); ``cache`` enables
    content-hash result reuse.  ``chunk_size`` must be a positive
    integer; ``None`` picks one from the point count and, for blocked
    sweeps, the executor (see :func:`_chunk_size`).

    ``on_error`` selects the failure policy (``"raise"``, ``"skip"`` or
    ``"retry"`` — see the module docstring); ``retries`` bounds
    per-point re-evaluations under ``"retry"``.  Recovery from transient
    pool faults (``BrokenProcessPool``) applies under every policy, with
    the retry count and backoff of
    :func:`~repro.sweep.executors.map_chunks_with_retries`.

    ``batch`` controls the blocked-evaluation fast path for functions
    exposing ``supports_batch``/``evaluate_batch`` (e.g.
    :class:`~repro.sweep.batched.BlockedDCSweep`): ``"auto"`` (default)
    uses it for every chunk without seeded points; ``False`` forces
    scalar calls.  Batched and scalar chunks produce bit-identical
    values and identical failure records.

    With ``executor="auto"`` (or ``jobs="auto"``), the first pending
    chunk is timed in-process and the dispatch cost model picks the
    backend and chunk size for the rest — small sweeps never pay the
    process-pool tax; see :mod:`repro.sweep.costmodel`.  A blocked
    sweep of at most :data:`~repro.sweep.costmodel.BLOCKED_SERIAL_POINTS`
    points skips the probe and runs serially as one lane block.  The
    chosen plan is recorded on ``result.stats.plan``.

    Results are returned in point order and are identical — bit for bit
    — for every executor, because chunking and seeding are independent
    of how chunks are scheduled.  Failed points hold ``None`` in
    ``result.values`` and are described by ``result.failures``;
    successful points are cached even when others in the same sweep
    fail.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise AnalysisError(
            f"unknown on_error policy {on_error!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    if retries < 0:
        raise AnalysisError("retries must be >= 0")
    if batch not in ("auto", False):
        raise AnalysisError(
            f"batch must be 'auto' or False, got {batch!r}"
        )
    use_batch = (batch == "auto"
                 and bool(getattr(fn, "supports_batch", False))
                 and callable(getattr(fn, "evaluate_batch", None)))
    backend = resolve_executor(executor, jobs)
    points = _materialize_points(points)
    count = len(points)
    if count == 0:
        return SweepResult(points=[], values=[], stats=SweepStats(
            executor=backend.name, workers=backend.workers,
            on_error=on_error))
    plan_text = ""
    if (use_batch and isinstance(backend, AutoExecutor)
            and count <= costmodel.BLOCKED_SERIAL_POINTS):
        # A probe would split the sweep's one lane block in two.
        backend = SerialExecutor()
        plan_text = (f"serial x1: a blocked sweep of {count} <= "
                     f"BLOCKED_SERIAL_POINTS "
                     f"({costmodel.BLOCKED_SERIAL_POINTS}) points runs "
                     "as one lane block")
    if chunk_size is None:
        size = _chunk_size(backend, count, use_batch)
    elif (isinstance(chunk_size, bool) or not isinstance(chunk_size, int)
          or chunk_size < 1):
        raise AnalysisError(
            f"chunk_size must be a positive integer, got {chunk_size!r}"
        )
    else:
        size = chunk_size
    chunks = [points[i:i + size] for i in range(0, count, size)]

    tag = cache_tag
    if cache is not None and tag is None:
        tag = _evaluation_tag(fn, require_code=True)
    t0 = _time.perf_counter()
    values: list = [None] * count
    seconds = [0.0] * count
    failures: list[FailedPoint] = []
    cache_hits = 0
    retries_used = 0

    # Cache pass: each chunk keeps its misses, keyed by point index.
    keys: dict[int, str] = {}
    if cache is not None:
        pending = []
        for chunk in chunks:
            misses = []
            for point in chunk:
                key = content_key(tag, point.params, point.seed)
                hit = cache.get(key, default=_MISS)
                if hit is _MISS:
                    keys[point.index] = key
                    misses.append(point)
                else:
                    values[point.index] = hit
                    cache_hits += 1
            if misses:
                pending.append(misses)
        chunks = pending

    executor_faults = 0
    to_dispatch: list = []
    if chunks:
        pass_attempt = on_error == "retry" and _accepts_keyword(fn, "attempt")
        work = functools.partial(
            _evaluate_chunk, fn, on_error, retries, pass_attempt, use_batch,
        )
        results = []
        to_dispatch = chunks
        if isinstance(backend, AutoExecutor):
            backend, plan_text, probe_result, to_dispatch = \
                _plan_auto_dispatch(backend, work, chunks)
            results.append(probe_result)
            chunks = chunks[:1] + to_dispatch
        if to_dispatch:
            dispatched, executor_faults = map_chunks_with_retries(
                backend, work, to_dispatch)
            results.extend(dispatched)
        for chunk, (chunk_values, chunk_seconds, chunk_failures,
                    chunk_retries) in zip(chunks, results):
            retries_used += chunk_retries
            failures.extend(chunk_failures)
            failed = {failure.index for failure in chunk_failures}
            for point, value, spent in zip(
                chunk, chunk_values, chunk_seconds
            ):
                values[point.index] = value
                seconds[point.index] = spent
                if cache is not None and point.index not in failed:
                    cache.put(keys[point.index], value)

    failures.sort(key=lambda failure: failure.index)
    stats = SweepStats(
        points=count,
        evaluated=count - cache_hits,
        cache_hits=cache_hits,
        chunks=len(chunks),
        workers=backend.workers,
        executor=backend.name,
        wall_seconds=_time.perf_counter() - t0,
        point_seconds=float(sum(seconds)),
        failures=len(failures),
        retries=retries_used,
        executor_faults=executor_faults,
        on_error=on_error,
        plan=plan_text,
    )
    dispatch = backend.dispatch if to_dispatch else None
    if dispatch is not None:
        stats.payload_bytes = dispatch.payload_bytes
        stats.spinup_seconds = dispatch.spinup_seconds
        stats.chunk_p50_seconds = dispatch.chunk_percentile(0.5)
        stats.chunk_p99_seconds = dispatch.chunk_percentile(0.99)
    return SweepResult(
        points=points, values=values, stats=stats, point_seconds=seconds,
        failures=failures,
    )


class _Miss:
    """Sentinel distinguishing cached-None from absent."""

    __slots__ = ()


_MISS = _Miss()
