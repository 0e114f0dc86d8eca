"""Optimization-flow wall clock: Fig. 5 derivation + mixer sizing.

Times the ``repro optimize`` pipeline pieces — the system-sweep spec
derivation and the differential-evolution sizing stage — serial vs a
process-pool population, asserting the engine contract along the way:
a fixed seed gives bit-identical sizing on every executor, so the
parallel speedup is free of any numerical caveat.  Archived in
BENCH_optimize.json next to the runner's core count.
"""

import time

from repro.optimize import derive_image_rejection_specs, run_optimize_flow
from repro.rfsystems import fig5_sweep_result

from conftest import record, report

JOBS = 4
PHASES = tuple(0.25 * k for k in range(1, 17))
SIZING = dict(population=12, generations=20)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def bench_fig5_spec_derivation():
    sweep, t_sweep = _timed(lambda: fig5_sweep_result(PHASES))
    derivation, t_derive = _timed(
        lambda: derive_image_rejection_specs(sweep, 30.0, 0.01)
    )
    record("optimize", "fig5_spec_derivation", {
        "sweep_points": len(sweep.points),
        "sweep_seconds": round(t_sweep, 6),
        "derive_seconds": round(t_derive, 6),
        "phase_allowance_deg": round(derivation.phase_allowance_deg, 4),
    })
    report("optimize_derivation", (
        f"Fig. 5 sweep: {len(sweep.points)} behavioral points in "
        f"{t_sweep * 1e3:.2f} ms\n"
        f"spec inversion: {t_derive * 1e3:.3f} ms -> phase error <= "
        f"{derivation.phase_allowance_deg:.2f} deg at 1 % gain balance"
    ))


def bench_sizing_serial_vs_parallel_population():
    # Warm the persistent pool outside the timed region: spin-up is a
    # once-per-process cost, not a per-flow one.
    from repro.sweep.executors import _get_pool

    _get_pool(JOBS)
    serial, t_serial = _timed(lambda: run_optimize_flow(**SIZING))
    parallel, t_parallel = _timed(
        lambda: run_optimize_flow(executor="process", jobs=JOBS, **SIZING)
    )

    # The contract under test: the process-pool population changes the
    # wall clock, never the sizing.
    assert serial.sizing is not None and parallel.sizing is not None
    assert parallel.sizing.result.best_params == \
        serial.sizing.result.best_params
    assert parallel.sizing.result.best_value == \
        serial.sizing.result.best_value
    assert serial.closed and parallel.closed

    result = serial.sizing.result
    speedup = t_serial / t_parallel if t_parallel > 0 else 0.0
    record("optimize", "sizing_flow", {
        "population": SIZING["population"],
        "generations": SIZING["generations"],
        "evaluations": result.evaluations,
        "jobs": JOBS,
        "serial_seconds": round(t_serial, 6),
        "parallel_seconds": round(t_parallel, 6),
        "speedup": round(speedup, 3),
        "bit_identical": True,
        "specs_met": serial.sizing.specs_met,
        "reuse_fraction": round(serial.reuse_fraction, 3),
        "predicted_irr_db": round(serial.predicted_irr_db, 2),
    })
    report("optimize_sizing_flow", (
        f"full loop, DE population {SIZING['population']} x "
        f"{SIZING['generations']} generations "
        f"({result.evaluations} evaluations)\n"
        f"serial  {t_serial * 1e3:8.2f} ms\n"
        f"process {t_parallel * 1e3:8.2f} ms "
        f"(jobs {JOBS}, speedup {speedup:.2f}x)\n"
        f"sizing bit-identical across executors: True\n"
        f"loop closed at {serial.predicted_irr_db:.1f} dB predicted IRR "
        f"(target 30 dB)"
    ))
