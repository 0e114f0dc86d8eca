"""Parallel sweep & Monte-Carlo orchestration (the repo's batch layer).

Every quantitative result of the paper is a sweep — Fig. 5's phase-error
x gain-balance grid, Fig. 9's fT-vs-Ic curves, Section 2.2's
process-variation Monte Carlo.  This package provides the one engine all
of them (and every future yield/corner/optimization workload) run
through:

* :class:`ParameterGrid` / :class:`MonteCarloSampler` — describe *what*
  to evaluate: a cartesian grid of named axes, or ``n`` random samples
  with a deterministic per-point random stream
  (:class:`numpy.random.SeedSequence` spawning, so parallel and serial
  runs consume bit-identical streams),
* :func:`run_sweep` — execute an evaluation function over independent
  points with a pluggable executor (serial, or a process pool with
  chunked dispatch) and a content-hash :class:`ResultCache` so repeated
  points are never re-simulated,
* :class:`SweepStats` — per-sweep counters (points evaluated, cache
  hits, failures, retries, workers used, per-point wall time), returned
  on each :class:`SweepResult`,
* fault tolerance — :func:`run_sweep`'s ``on_error="raise"|"skip"|
  "retry"`` policy captures failing points as picklable
  :class:`FailedPoint` records (with the solver's
  :class:`~repro.errors.ConvergenceReport` forensics attached) instead
  of aborting the batch, retries ``ConvergenceError`` points with an
  escalating ``attempt=`` hint, and recovers from transient pool faults
  (``BrokenProcessPool``) with exponential backoff.

Execution is structured for *positive* parallel scaling:

* :class:`ProcessExecutor` dispatches to a **persistent** worker pool —
  spin-up is paid once per process lifetime, workers cache the
  deserialized evaluation function by content hash, and only point
  chunks cross the pipe after warm-up,
* :class:`BlockedDCSweep` (:mod:`repro.sweep.batched`) solves a whole
  chunk of DC operating points in one stacked Newton iteration while
  preserving per-point convergence semantics bit-for-bit,
* :class:`BlockedACSweep` does the same for AC sweeps: one stacked
  Newton bias solve for the chunk, then every ``lane x frequency``
  system solved through a handful of batched complex solves — with
  per-lane source levels, and R/L/C values set through variants of
  the deck that ride as lanes of its one engine (both evaluators, and
  the qualification
  harness's ``CornerEvaluator``, are configurations of one deck
  evaluator),
* ``executor="auto"`` / ``jobs="auto"`` consults the dispatch cost
  model (:mod:`repro.sweep.costmodel`): a probe chunk is timed
  in-process and serial or process plus the chunk size are chosen so
  small sweeps never pay the pool tax,
* every dispatch records :class:`DispatchStats` (payload bytes, pool
  spin-up, per-chunk latency percentiles), surfaced on
  :class:`SweepStats` and via ``repro run --profile``.

See ``docs/sweeps.md`` for the execution model, the determinism
guarantees and the failure-handling contract.
"""

from ..errors import SweepError
from .batched import (
    BlockedACSweep,
    BlockedDCSweep,
    ac_gain_db,
    ac_node_voltage,
    node_voltage,
)
from .cache import ResultCache, content_key
from .costmodel import DispatchPlan
from .executors import (
    AutoExecutor,
    DispatchStats,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    map_chunks_with_retries,
    pool_is_warm,
    resolve_executor,
    shutdown_pools,
)
from .grid import MonteCarloSampler, ParameterGrid, SweepPoint
from .orchestrator import (
    ON_ERROR_POLICIES,
    FailedPoint,
    SweepResult,
    SweepStats,
    run_sweep,
)

__all__ = [
    "SweepPoint",
    "ParameterGrid",
    "MonteCarloSampler",
    "ResultCache",
    "content_key",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "AutoExecutor",
    "DispatchStats",
    "DispatchPlan",
    "BlockedDCSweep",
    "BlockedACSweep",
    "node_voltage",
    "ac_node_voltage",
    "ac_gain_db",
    "SweepError",
    "resolve_executor",
    "map_chunks_with_retries",
    "pool_is_warm",
    "shutdown_pools",
    "run_sweep",
    "SweepResult",
    "SweepStats",
    "FailedPoint",
    "ON_ERROR_POLICIES",
]
