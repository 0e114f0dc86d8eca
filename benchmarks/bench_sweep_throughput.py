"""Sweep-orchestration throughput: parallel dispatch, caching, batching.

Measures the machinery PR'd around the paper's repeated-evaluation
workloads (Monte-Carlo yield, the Fig. 5 grid, AC sweeps):

* serial vs process-pool Monte Carlo — asserting bit-identical
  populations, recording the honest speedup for *this* runner's core
  count (archived in BENCH_sweep.json next to ``cpu_count``: on a
  single-core CI box the speedup is ~1x or below and that is the
  correct number to archive, not a fabricated one);
* content-hash cache reuse — a repeated sweep must re-evaluate nothing;
* batched vs per-frequency AC solves on the CE-stage example deck;
* 500-point Monte-Carlo DC operating points — the real per-point-cost
  workload the CI speedup gate runs on — serial scalar vs blocked
  (one chunk, one stacked Newton on the serial executor) vs blocked +
  process pool;
* the ``--jobs auto`` dispatch cost model's per-size decisions (the
  "when does parallel win" table): one blocked evaluator on serial,
  process and auto, so the columns differ in dispatch alone.

Timed parallel runs warm the persistent pool first: pool spin-up is a
once-per-process cost by design, and folding it into one sweep's wall
time would measure the old architecture, not this one.  Spin-up itself
is recorded separately (``pool_spinup_seconds``).
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.geometry import MismatchSpec, monte_carlo_image_rejection
from repro.rfsystems import fig5_sweep
from repro.spice.ac import frequency_grid, solve_ac
from repro.spice.parser import parse_deck
from repro.sweep import costmodel
from repro.sweep import (
    BlockedACSweep,
    BlockedDCSweep,
    ResultCache,
    ac_gain_db,
    node_voltage,
    run_sweep,
)

from conftest import record, report

DECKS = Path(__file__).resolve().parent.parent / "examples" / "decks"

MC_SAMPLES = 800
JOBS = 4
MC_DC_POINTS = 500
MC_AC_POINTS = 200
#: The dispatch table's two largest sizes: mc_corners' blocked DC sweep,
#: inside auto's one-block rule, and one past the rule.
DISPATCH_SERIAL_POINTS = 1000
DISPATCH_PROBED_POINTS = 2 * costmodel.BLOCKED_SERIAL_POINTS
# The CI speedup gate compares against serial, so its worker count must
# not oversubscribe the runner: 4 workers on a 2-core box lose to serial
# through sheer contention, which says nothing about the dispatch layer.
DC_JOBS = max(2, min(JOBS, os.cpu_count() or 1))


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _warm_pool(jobs: int) -> float:
    """Spin the persistent pool up outside the timed region.

    Returns the measured spin-up seconds (0.0 if it was already warm).
    """
    from repro.sweep.executors import _get_pool

    state, reused = _get_pool(jobs)
    return 0.0 if reused else state.spinup_seconds


def bench_monte_carlo_parallel_dispatch():
    mismatch = MismatchSpec(1.5, 0.02)
    spinup = _warm_pool(JOBS)
    serial, t_serial = _timed(
        lambda: monte_carlo_image_rejection(MC_SAMPLES, mismatch, seed=7)
    )
    parallel, t_parallel = _timed(
        lambda: monte_carlo_image_rejection(MC_SAMPLES, mismatch, seed=7,
                                            jobs=JOBS)
    )
    # The contract under test: executors never change the numbers.
    assert parallel.values == serial.values
    assert parallel.passed == serial.passed

    speedup = t_serial / t_parallel if t_parallel > 0 else 0.0
    record("sweep", "monte_carlo_irr", {
        "points": MC_SAMPLES,
        "jobs": JOBS,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(speedup, 3),
        "serial_points_per_second": round(MC_SAMPLES / t_serial, 1),
        "pool_spinup_seconds": round(spinup, 6),
        "bit_identical": True,
    })
    report("sweep_monte_carlo", (
        f"samples {MC_SAMPLES}, jobs {JOBS}\n"
        f"serial   {t_serial * 1e3:8.2f} ms "
        f"({MC_SAMPLES / t_serial:8.0f} samples/s)\n"
        f"process  {t_parallel * 1e3:8.2f} ms (speedup {speedup:.2f}x)\n"
        f"populations bit-identical: True"
    ))


def bench_fig5_grid_parallel_dispatch():
    phases = [0.25 * k for k in range(1, 13)]
    gains = (0.01, 0.03, 0.05)
    _warm_pool(JOBS)
    serial, t_serial = _timed(lambda: fig5_sweep(phases, gains))
    parallel, t_parallel = _timed(
        lambda: fig5_sweep(phases, gains, jobs=JOBS)
    )
    assert parallel == serial
    points = len(phases) * len(gains)
    record("sweep", "fig5_grid", {
        "points": points,
        "jobs": JOBS,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(t_serial / t_parallel, 3),
        "bit_identical": True,
    })
    report("sweep_fig5_grid", (
        f"grid {len(gains)}x{len(phases)} = {points} simulated points\n"
        f"serial  {t_serial * 1e3:8.2f} ms\n"
        f"process {t_parallel * 1e3:8.2f} ms "
        f"(speedup {t_serial / t_parallel:.2f}x)"
    ))


def bench_cache_eliminates_reevaluation():
    phases = [0.5 * k for k in range(1, 9)]
    gains = (0.01, 0.05)
    cache = ResultCache()
    cold, t_cold = _timed(lambda: fig5_sweep(phases, gains, cache=cache))
    warm, t_warm = _timed(lambda: fig5_sweep(phases, gains, cache=cache))
    assert warm == cold
    points = len(phases) * len(gains)
    assert cache.hits >= points  # the whole second sweep was served
    record("sweep", "fig5_cache_reuse", {
        "points": points,
        "cold_seconds": round(t_cold, 6),
        "cached_seconds": round(t_warm, 6),
        "cache_hits": cache.hits,
        "speedup": round(t_cold / t_warm, 1) if t_warm > 0 else None,
    })
    report("sweep_cache_reuse", (
        f"{points} points: cold {t_cold * 1e3:.2f} ms, "
        f"cached {t_warm * 1e3:.3f} ms "
        f"({cache.hits} hits, nothing re-simulated)"
    ))


def bench_batched_ac_throughput():
    deck = parse_deck((DECKS / "ce_stage.cir").read_text())
    freqs = frequency_grid(1e3, 1e10, 100, "dec")
    batched, t_batched = _timed(
        lambda: solve_ac(deck.circuit, freqs, batched=True)
    )
    loop, t_loop = _timed(
        lambda: solve_ac(deck.circuit, freqs, batched=False)
    )
    np.testing.assert_allclose(batched.solutions, loop.solutions,
                               rtol=1e-12, atol=1e-15)
    speedup = t_loop / t_batched if t_batched > 0 else 0.0
    record("sweep", "batched_ac_ce_stage", {
        "frequencies": len(freqs),
        "unknowns": deck.circuit.num_unknowns,
        "batched_seconds": round(t_batched, 6),
        "loop_seconds": round(t_loop, 6),
        "speedup": round(speedup, 3),
    })
    report("sweep_batched_ac", (
        f"ce_stage.cir, {len(freqs)} frequencies, "
        f"{deck.circuit.num_unknowns} unknowns\n"
        f"per-frequency loop {t_loop * 1e3:8.2f} ms\n"
        f"batched blocks     {t_batched * 1e3:8.2f} ms "
        f"(speedup {speedup:.2f}x)"
    ))


def _mc_dc_points(count: int) -> list:
    # Deterministic "Monte Carlo" bias levels: seed-fixed draws, plain
    # param dicts (no per-point generators — the evaluator is a pure
    # function of the bias, so the blocked path stays eligible).
    rng = np.random.default_rng(42)
    return [{"VB": float(v)}
            for v in rng.uniform(0.60, 0.85, size=count)]


def bench_monte_carlo_dc_500():
    """The CI speedup-gate workload: 500 DC operating points.

    Per-point cost is a real Newton solve (~ms), which is what parallel
    dispatch needs to win.  Three configurations, all bit-identical:
    serial scalar (the old architecture's best case), serial blocked
    (one chunk, so one stacked Newton, recorded as ``blocked_chunks``),
    and blocked + persistent process pool.  CI fails if the process
    configuration does not beat serial scalar (``speedup`` field) on a
    multi-core runner, or if the serial blocked run took more than one
    chunk.
    """
    fn = BlockedDCSweep((DECKS / "ce_stage.cir").read_text(),
                        measure=node_voltage("c"))
    points = _mc_dc_points(MC_DC_POINTS)
    spinup = _warm_pool(DC_JOBS)

    scalar, t_scalar = _timed(
        lambda: run_sweep(fn, points, batch=False)
    )
    blocked, t_blocked = _timed(
        lambda: run_sweep(fn, points, batch="auto")
    )
    parallel, t_parallel = _timed(
        lambda: run_sweep(fn, points, executor="process", jobs=DC_JOBS,
                          batch="auto")
    )
    assert blocked.values == scalar.values
    assert parallel.values == scalar.values

    speedup = t_scalar / t_parallel if t_parallel > 0 else 0.0
    blocked_speedup = t_scalar / t_blocked if t_blocked > 0 else 0.0
    record("sweep", "monte_carlo_dc_500", {
        "points": MC_DC_POINTS,
        "jobs": DC_JOBS,
        "serial_seconds": round(t_scalar, 6),
        "blocked_seconds": round(t_blocked, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(speedup, 3),
        "blocked_speedup": round(blocked_speedup, 3),
        "blocked_chunks": blocked.stats.chunks,
        "pool_spinup_seconds": round(spinup, 6),
        "dispatch_payload_bytes": parallel.stats.payload_bytes,
        "chunk_p50_seconds": round(parallel.stats.chunk_p50_seconds, 6),
        "chunk_p99_seconds": round(parallel.stats.chunk_p99_seconds, 6),
        "bit_identical": True,
    })
    report("sweep_monte_carlo_dc", (
        f"ce_stage.cir, {MC_DC_POINTS} DC operating points, "
        f"jobs {DC_JOBS}\n"
        f"serial scalar      {t_scalar * 1e3:8.2f} ms\n"
        f"serial blocked     {t_blocked * 1e3:8.2f} ms "
        f"(speedup {blocked_speedup:.2f}x)\n"
        f"blocked + process  {t_parallel * 1e3:8.2f} ms "
        f"(speedup {speedup:.2f}x)\n"
        f"values bit-identical: True"
    ))


def bench_monte_carlo_ac():
    """The blocked-AC gate workload: Monte-Carlo bias x 51 frequencies.

    Every point is a full AC sweep (bias solve + 51 complex systems) on
    the CE-stage deck's ``.AC DEC 10 1MEG 100G`` grid.  Three
    configurations, all bit-identical: serial scalar (one bias solve
    and a single-lane frequency sweep per point), serial blocked (one
    chunk: one stacked Newton, then ``lanes x freq_block`` stacked
    complex solves), and blocked + persistent process pool.  CI fails
    if blocked does not beat serial scalar — that comparison is
    algorithmic, so it must hold even on a single core — or if the
    serial blocked run took more than one chunk (``blocked_chunks``).
    """
    fn = BlockedACSweep((DECKS / "ce_stage.cir").read_text(),
                        measure=ac_gain_db("c"))
    points = _mc_dc_points(MC_AC_POINTS)
    freq_count = len(fn.frequencies)
    spinup = _warm_pool(DC_JOBS)

    scalar, t_scalar = _timed(
        lambda: run_sweep(fn, points, batch=False)
    )
    blocked, t_blocked = _timed(
        lambda: run_sweep(fn, points, batch="auto")
    )
    parallel, t_parallel = _timed(
        lambda: run_sweep(fn, points, executor="process", jobs=DC_JOBS,
                          batch="auto")
    )
    for run in (blocked, parallel):
        assert len(run.values) == len(scalar.values)
        for got, want in zip(run.values, scalar.values):
            np.testing.assert_array_equal(got, want)

    speedup = t_scalar / t_parallel if t_parallel > 0 else 0.0
    blocked_speedup = t_scalar / t_blocked if t_blocked > 0 else 0.0
    record("sweep", "monte_carlo_ac", {
        "points": MC_AC_POINTS,
        "frequencies": freq_count,
        "jobs": DC_JOBS,
        "serial_seconds": round(t_scalar, 6),
        "blocked_seconds": round(t_blocked, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(speedup, 3),
        "blocked_speedup": round(blocked_speedup, 3),
        "blocked_chunks": blocked.stats.chunks,
        "pool_spinup_seconds": round(spinup, 6),
        "bit_identical": True,
    })
    report("sweep_monte_carlo_ac", (
        f"ce_stage.cir, {MC_AC_POINTS} bias points x "
        f"{freq_count} frequencies\n"
        f"serial scalar      {t_scalar * 1e3:8.2f} ms\n"
        f"serial blocked     {t_blocked * 1e3:8.2f} ms "
        f"(speedup {blocked_speedup:.2f}x)\n"
        f"blocked + process  {t_parallel * 1e3:8.2f} ms "
        f"(speedup {speedup:.2f}x)\n"
        f"values bit-identical: True"
    ))


def _best_of(runs: dict, rounds: int = 5) -> dict:
    """Each callable's value and fastest wall time over ``rounds``
    rounds.  The callables alternate within a round, so all of them see
    the same machine state, and the order rotates by one each round, so
    no callable always runs right after the same other one (on two
    cores the run after a process-pool round pays for its wind-down)."""
    names = list(runs)
    best: dict = {}
    for round_ in range(rounds):
        shift = round_ % len(names)
        for name in names[shift:] + names[:shift]:
            value, seconds = _timed(runs[name])
            if name not in best or seconds < best[name][1]:
                best[name] = (value, seconds)
    return best


def bench_dispatch_cost_model_table():
    """The "when does parallel win" table: one blocked evaluator timed
    on serial, process x ``DC_JOBS`` and auto (``jobs=DC_JOBS``) across
    sweep sizes, best of five rounds each in a rotating order, on a
    warm pool.
    The baseline is the same blocked evaluation, so the columns differ
    in dispatch alone.  The sizes run up to
    ``costmodel.BLOCKED_SERIAL_POINTS``, where auto keeps a blocked
    sweep serial and in one chunk, and one size past it, where auto
    probes; CI checks both that rule and that auto never loses to both
    fixed backends."""
    fn = BlockedDCSweep((DECKS / "ce_stage.cir").read_text(),
                        measure=node_voltage("c"))
    spinup = _warm_pool(DC_JOBS)
    rows = [f"jobs {DC_JOBS}, pool spin-up {spinup * 1e3:.1f} ms "
            "(outside the timed runs)"]
    limit = costmodel.BLOCKED_SERIAL_POINTS
    table = {"jobs": DC_JOBS, "pool_spinup_seconds": round(spinup, 6),
             "blocked_serial_points": limit}
    for count in (8, 64, MC_DC_POINTS, DISPATCH_SERIAL_POINTS,
                  DISPATCH_PROBED_POINTS):
        points = _mc_dc_points(count)
        best = _best_of({
            "serial": lambda: run_sweep(fn, points),
            "process": lambda: run_sweep(fn, points, executor="process",
                                         jobs=DC_JOBS),
            "auto": lambda: run_sweep(fn, points, executor="auto",
                                      jobs=DC_JOBS),
        })
        serial, t_serial = best["serial"]
        process, t_process = best["process"]
        auto, t_auto = best["auto"]
        assert process.values == serial.values
        assert auto.values == serial.values
        rows.append(
            f"{count:5d} points: serial {t_serial * 1e3:8.2f} ms, "
            f"process {t_process * 1e3:8.2f} ms, "
            f"auto {t_auto * 1e3:8.2f} ms -> {auto.stats.executor} "
            f"x{auto.stats.workers} in {auto.stats.chunks} chunks"
        )
        table[str(count)] = {
            "serial_seconds": round(t_serial, 6),
            "process_seconds": round(t_process, 6),
            "auto_seconds": round(t_auto, 6),
            "chosen_backend": auto.stats.executor,
            "workers": auto.stats.workers,
            "chunks": auto.stats.chunks,
            "one_block_rule": count <= limit,
            "plan": auto.stats.plan,
            "bit_identical": True,
        }
    record("sweep", "dispatch_cost_model", table)
    report("sweep_dispatch_cost_model", "\n".join(rows))
