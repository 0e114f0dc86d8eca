"""The sweep engine: chunked, cached, executor-agnostic point evaluation.

Execution model (see ``docs/sweeps.md`` for the full contract):

1. The point list is split into **chunks** of ``chunk_size`` consecutive
   points.  Scalar and warm-start chunking depends only on the point
   count and ``chunk_size`` — never on the executor or worker count — so
   any two runs of the same warm sweep form identical chains.  A
   batch-capable evaluation (``evaluate_batch``) without a warm chain
   follows the executor instead: one chunk on the serial executor, the
   cost model's chunks on a pool (see :func:`_chunk_size`).
2. Chunks are dispatched through the executor.  A chunk is the dispatch
   unit (amortizing process-pool IPC) *and* the warm-start unit: with
   ``warm_start=True`` each chunk evaluates its points in order,
   threading the previous point's returned state into the next call,
   and every chunk starts cold.  Serial and parallel runs therefore
   execute bit-identical warm chains.
3. Stochastic points carry their own :class:`~numpy.random.SeedSequence`
   child (see :mod:`repro.sweep.grid`); the evaluator receives a fresh
   generator per point, so the sample stream is a function of the point
   index alone.
4. With a :class:`~repro.sweep.cache.ResultCache`, points (chunks, in
   warm mode) whose content key is already present are never
   re-evaluated.

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
* ``fn(params, warm=state) -> (value, state)`` with ``warm_start=True``
  (``warm`` is ``None`` at the start of each chunk), and both keywords
  together when both features are active,
* ``fn(params, attempt=k)`` on the ``k``-th retry when the function
  opts in by declaring the keyword.
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

from ..errors import AnalysisError, ConvergenceError, ConvergenceReport, \
    SweepError
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


def _default_chunk_size(count: int) -> int:
    """Deterministic default: ~32 chunks, at least 1 point each.

    Depends only on the point count — never on the executor — so serial
    and parallel runs of one sweep always form the same chunks.
    """
    return max(1, math.ceil(count / 32))


def _chunk_size(backend: Executor, count: int, blocked: bool) -> int:
    """The default chunk size of a sweep of ``count`` points.

    Scalar and warm-start chunks take :func:`_default_chunk_size`.  A
    blocked sweep (``evaluate_batch``, no warm chain) pays its stacked
    solver's fixed cost once per chunk, so it runs as one chunk on the
    serial executor and in :func:`~repro.sweep.costmodel.chunk_size_for`
    chunks on a pool (the ``auto`` probe included); the evaluator bounds
    a chunk's memory by its byte budget.  Blocked values are
    bit-identical under any chunking.
    """
    if not blocked:
        return _default_chunk_size(count)
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


def _evaluate_chunk_batched(
    fn,
    on_error: str,
    retries: int,
    pass_attempt: bool,
    chunk: list[SweepPoint],
):
    """Evaluate one chunk through ``fn.evaluate_batch`` (blocked solve).

    Lane semantics mirror the scalar path exactly: ``evaluate_batch``
    returns ``[(value, error_or_None), ...]`` where each lane's error —
    produced by the batched solver's scalar fallback — is the *same*
    exception the scalar path would have raised.  Under ``raise`` the
    first failed lane (chunk order) re-raises it; under ``retry``,
    failed convergence lanes are re-run through the scalar ``fn(params,
    attempt=k)`` escalation, identical to a scalar chunk's retry chain.

    Per-point timings are the batch wall time spread evenly across the
    lanes (a blocked solve has no per-lane clock), plus any scalar retry
    time a lane actually spent.
    """
    t0 = _time.perf_counter()
    outcomes = fn.evaluate_batch([point.params for point in chunk])
    per_lane = (_time.perf_counter() - t0) / max(1, len(chunk))
    values = []
    seconds = []
    failures: list[FailedPoint] = []
    retries_used = 0
    max_attempts = retries + 1 if on_error == "retry" else 1
    for point, (value, error) in zip(chunk, outcomes):
        spent = per_lane
        attempts = 1
        if error is not None and on_error == "raise":
            raise error
        while (error is not None and isinstance(error, ConvergenceError)
               and attempts < max_attempts):
            retries_used += 1
            kwargs = {"attempt": attempts} if pass_attempt else {}
            t1 = _time.perf_counter()
            try:
                value = fn(point.params, **kwargs)
                error = None
            except Exception as exc:
                error = exc
            spent += _time.perf_counter() - t1
            attempts += 1
        if error is not None:
            failures.append(
                FailedPoint.from_exception(point, error, attempts)
            )
            value = None
        values.append(value)
        seconds.append(spent)
    return values, seconds, failures, retries_used


def _evaluate_chunk(
    fn,
    warm_start: bool,
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

    ``use_batch`` routes the chunk through ``fn.evaluate_batch`` — one
    blocked solve for the whole chunk — when the chunk qualifies: no
    warm chain and no seeded points (a batched solver cannot thread
    per-point generators).

    Failure semantics: under ``skip``/``retry`` an exception is captured
    as a :class:`FailedPoint` and the chunk continues; a warm chain
    carries the last *successful* state past a failed point.  Retries
    apply to :class:`~repro.errors.ConvergenceError` only — other
    exceptions are deterministic and re-running them is wasted work.
    """
    if (use_batch and not warm_start
            and all(point.seed is None for point in chunk)):
        return _evaluate_chunk_batched(
            fn, on_error, retries, pass_attempt, chunk
        )
    values = []
    seconds = []
    failures: list[FailedPoint] = []
    retries_used = 0
    warm = None
    max_attempts = retries + 1 if on_error == "retry" else 1
    for point in chunk:
        base_kwargs = {}
        rng = point.rng()
        if rng is not None:
            base_kwargs["rng"] = rng
        if warm_start:
            base_kwargs["warm"] = warm
        spent = 0.0
        value = None
        for attempt in range(max_attempts):
            kwargs = dict(base_kwargs)
            if attempt > 0:
                if pass_attempt:
                    kwargs["attempt"] = attempt
                if rng is not None:
                    # A fresh generator per attempt: the first draw of a
                    # retried point must match a clean run's, not resume
                    # mid-stream where the failed attempt stopped.
                    kwargs["rng"] = point.rng()
            t0 = _time.perf_counter()
            try:
                result = fn(point.params, **kwargs)
            except Exception as exc:
                spent += _time.perf_counter() - t0
                if on_error == "raise":
                    raise
                if (isinstance(exc, ConvergenceError)
                        and attempt + 1 < max_attempts):
                    retries_used += 1
                    continue
                failures.append(
                    FailedPoint.from_exception(point, exc, attempt + 1)
                )
                break
            spent += _time.perf_counter() - t0
            if warm_start:
                try:
                    value, warm = result
                except (TypeError, ValueError):
                    raise AnalysisError(
                        "warm_start evaluation functions must return "
                        "(value, warm_state) tuples"
                    ) from None
            else:
                value = result
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


def _plan_auto_dispatch(
    auto: AutoExecutor,
    work,
    pending_chunks: list,
    pending_keys: list,
    warm_start: bool,
):
    """Probe-then-plan for the ``auto`` executor.

    Evaluates the first pending chunk in-process — those points must be
    evaluated regardless, so the probe is free — and feeds the measured
    per-point cost plus pickled payload sizes to the dispatch cost
    model, which picks the real backend and chunk size for the rest.

    Returns ``(backend, plan_text, probe_results, chunks, keys)`` where
    ``chunks``/``keys`` are the *remaining* work, re-chunked to the
    plan's size — one chunk when the plan stays serial — unless the
    sweep is warm (warm chunks are semantic units, and regrouping them
    would change results).  Re-chunking only regroups whole points, so
    evaluation order within the sweep — and therefore every value — is
    unchanged.
    """
    t0 = _time.perf_counter()
    probe_results = [work(pending_chunks[0])]
    probe_seconds = _time.perf_counter() - t0
    point_seconds = probe_seconds / max(1, len(pending_chunks[0]))
    chunks = pending_chunks[1:]
    keys = pending_keys[1:]
    remaining = sum(len(chunk) for chunk in chunks)
    if remaining == 0:
        return (SerialExecutor(), "serial x1: probe consumed the sweep",
                probe_results, chunks, keys)
    try:
        fn_bytes = len(pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL))
        point_bytes = (
            len(pickle.dumps(pending_chunks[0],
                             protocol=pickle.HIGHEST_PROTOCOL))
            / max(1, len(pending_chunks[0]))
        )
    except Exception:
        # Unpicklable evaluation: the process pool is off the table.
        backend, plan_text = (SerialExecutor(),
                              "serial x1: evaluation is not picklable")
        size = remaining
    else:
        workers = auto.workers
        plan = costmodel.plan(
            remaining, point_seconds, point_bytes=point_bytes,
            fn_bytes=fn_bytes, workers=workers,
            pool_warm=pool_is_warm(workers),
        )
        backend = (ProcessExecutor(plan.jobs) if plan.backend == "process"
                   else SerialExecutor())
        plan_text, size = plan.summary(), max(1, plan.chunk_size)
    if not warm_start:
        flat_points = [point for chunk in chunks for point in chunk]
        rechunked = [flat_points[i:i + size]
                     for i in range(0, len(flat_points), size)]
        if all(key is None for key in keys):
            keys = [None] * len(rechunked)
        else:
            flat_keys = [key for chunk_keys in keys for key in chunk_keys]
            keys = [flat_keys[i:i + size]
                    for i in range(0, len(flat_keys), size)]
        chunks = rechunked
    return backend, plan_text, probe_results, chunks, keys


def run_sweep(
    fn,
    points,
    *,
    executor=None,
    jobs: int | None = None,
    chunk_size: int | None = None,
    warm_start: bool = False,
    cache: ResultCache | None = None,
    cache_tag: str | None = None,
    on_error: str = "raise",
    retries: int = 2,
    executor_retries: int = 2,
    retry_backoff: float = 0.25,
    batch: bool | str = "auto",
) -> SweepResult:
    """Evaluate ``fn`` over ``points`` with the configured executor.

    ``points`` is a :class:`ParameterGrid`, :class:`MonteCarloSampler`,
    or iterable of :class:`SweepPoint`/parameter dicts.  ``executor`` /
    ``jobs`` select the backend (see
    :func:`~repro.sweep.executors.resolve_executor`); ``cache`` enables
    content-hash result reuse; ``warm_start`` switches to the
    ``(value, state)`` continuation protocol.  ``chunk_size`` must be a
    positive integer; ``None`` picks one from the point count and, for
    blocked sweeps, the executor (see :func:`_chunk_size`).

    ``on_error`` selects the failure policy (``"raise"``, ``"skip"`` or
    ``"retry"`` — see the module docstring); ``retries`` bounds
    per-point re-evaluations under ``"retry"``; ``executor_retries`` and
    ``retry_backoff`` govern recovery from transient pool faults
    (``BrokenProcessPool``), which applies under every policy.

    ``batch`` controls the blocked-evaluation fast path for functions
    exposing ``supports_batch``/``evaluate_batch`` (e.g.
    :class:`~repro.sweep.batched.BlockedDCSweep`): ``"auto"`` (default)
    uses it whenever a chunk qualifies — no warm chain, no seeded
    points; ``False`` forces scalar calls; ``True`` insists the
    function is batch-capable and raises otherwise.  Batched and scalar
    chunks produce bit-identical values and identical failure records.

    With ``executor="auto"`` (or ``jobs="auto"``), the first pending
    chunk is timed in-process and the dispatch cost model picks the
    backend and chunk size for the rest — small sweeps never pay the
    process-pool tax; see :mod:`repro.sweep.costmodel`.  The chosen
    plan is recorded on ``result.stats.plan``.

    Results are returned in point order and are identical — bit for bit
    — for every executor, because chunking, seeding and warm chains are
    all independent of how chunks are scheduled.  Failed points hold
    ``None`` in ``result.values`` and are described by
    ``result.failures``; successful points are cached even when others
    in the same sweep fail.
    """
    if on_error not in ON_ERROR_POLICIES:
        raise AnalysisError(
            f"unknown on_error policy {on_error!r}; expected one of "
            f"{ON_ERROR_POLICIES}"
        )
    if retries < 0:
        raise AnalysisError("retries must be >= 0")
    if batch not in ("auto", True, False):
        raise AnalysisError(
            f"batch must be 'auto', True or False, got {batch!r}"
        )
    batch_capable = bool(getattr(fn, "supports_batch", False)) \
        and callable(getattr(fn, "evaluate_batch", None))
    if batch is True and not batch_capable:
        raise SweepError(
            "batch=True requires an evaluation function with "
            "supports_batch=True and an evaluate_batch method "
            "(see repro.sweep.batched.BlockedDCSweep)"
        )
    use_batch = batch is not False and batch_capable
    backend = resolve_executor(executor, jobs)
    points = _materialize_points(points)
    count = len(points)
    if count == 0:
        return SweepResult(points=[], values=[], stats=SweepStats(
            executor=backend.name, workers=backend.workers,
            on_error=on_error))
    if chunk_size is None:
        size = _chunk_size(backend, count, use_batch and not warm_start)
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
    evaluated = 0
    retries_used = 0

    # Cache pass: per-point granularity for independent points, whole
    # chunks in warm mode (a chunk's values depend on every point in it).
    pending_chunks: list[list[SweepPoint]] = []
    pending_keys: list = []  # chunk key (warm) or per-point keys
    for chunk in chunks:
        if cache is None:
            pending_chunks.append(chunk)
            pending_keys.append(None)
            continue
        if warm_start:
            key = content_key(
                tag, {"chain": [(p.params, p.seed) for p in chunk]}
            )
            hit = cache.get(key, default=_MISS)
            if hit is not _MISS:
                for point, value in zip(chunk, hit):
                    values[point.index] = value
                cache_hits += len(chunk)
            else:
                pending_chunks.append(chunk)
                pending_keys.append(key)
        else:
            misses = []
            miss_keys = []
            for point in chunk:
                key = content_key(tag, point.params, point.seed)
                hit = cache.get(key, default=_MISS)
                if hit is not _MISS:
                    values[point.index] = hit
                    cache_hits += 1
                else:
                    misses.append(point)
                    miss_keys.append(key)
            if misses:
                pending_chunks.append(misses)
                pending_keys.append(miss_keys)

    executor_faults = 0
    plan_text = ""
    dispatched_chunks = 0
    if pending_chunks:
        pass_attempt = on_error == "retry" and _accepts_keyword(fn, "attempt")
        work = functools.partial(
            _evaluate_chunk, fn, warm_start, on_error, retries, pass_attempt,
            use_batch,
        )
        probe_results: list = []
        if isinstance(backend, AutoExecutor):
            probe_chunks = pending_chunks[:1]
            probe_keys = pending_keys[:1]
            (backend, plan_text, probe_results, rest_chunks,
             rest_keys) = _plan_auto_dispatch(
                backend, work, pending_chunks, pending_keys, warm_start)
            pending_chunks = probe_chunks + rest_chunks
            pending_keys = probe_keys + rest_keys
            to_dispatch = rest_chunks
        else:
            to_dispatch = pending_chunks
        if to_dispatch:
            results, executor_faults = map_chunks_with_retries(
                backend, work, to_dispatch,
                retries=executor_retries, backoff=retry_backoff,
            )
        else:
            results = []
        results = probe_results + results
        dispatched_chunks = len(to_dispatch)
        for chunk, keys, (chunk_values, chunk_seconds, chunk_failures,
                          chunk_retries) in zip(
            pending_chunks, pending_keys, results
        ):
            evaluated += len(chunk)
            retries_used += chunk_retries
            failures.extend(chunk_failures)
            failed_in_chunk = {f.index for f in chunk_failures}
            for point, value, spent in zip(
                chunk, chunk_values, chunk_seconds
            ):
                values[point.index] = value
                seconds[point.index] = spent
            if cache is not None:
                if warm_start:
                    # A broken chain is not reusable: caching it would
                    # replay the failure's None values as real results.
                    if not failed_in_chunk:
                        cache.put(keys, list(chunk_values))
                else:
                    for point, key, value in zip(chunk, keys, chunk_values):
                        if point.index not in failed_in_chunk:
                            cache.put(key, value)

    failures.sort(key=lambda failure: failure.index)
    stats = SweepStats(
        points=count,
        evaluated=evaluated,
        cache_hits=cache_hits,
        chunks=len(pending_chunks),
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
    dispatch = backend.dispatch if dispatched_chunks else None
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
