"""Transient hot-path speedup: chord-Newton reuse + charge replay.

Times the Fig. 11 ring-oscillator transient twice — once with the hot
path pinned off (``chord=False``, the seed-equivalent reference) and
once with the defaults on — at two sizes:

* the paper's 5-stage oscillator (Table 1 topology, 87 unknowns), which
  compiles dense (LAPACK LU), and
* the same topology scaled to 25 stages (427 unknowns, 1929 structural
  non-zeros), the headline measurement.  This ring sits past the
  solver cost model's crossover, so both arms assemble sparse and
  factor with SuperLU.  A reference step pays a sparse LU per Newton
  iteration (about 4x the hot arm's factorizations) and a full device
  evaluation at every converged point: the costs chord-Newton and the
  charge replay amortize.

At each converged step the hot path replays the last evaluation's
charges, linearized to the converged point, instead of re-evaluating
the BJT group (counted in ``bypassed_evals``).  The step ceiling (3 ps
against a ~100 ps stage delay) keeps the waveform well resolved, the
regime the mixed-level verification loops run in: most accepted steps
sit at ``max_step``, so the chord token repeats.

Each measurement is best-of-N wall clock, the reference and hot runs
alternating inside every round so that machine drift lands on both
arms alike; engine counters come from the ``stats`` of each arm's best
run (they are the same on every run).  Beside the best-of ratio each
arm reports the median and interquartile range of its rounds and its
median cost per accepted step, which move with the step's own cost
where the ratio, both arms sharing that step, may not.  Each row records the assembly
and LU backend of both arms.  Results land in ``BENCH_transient.json``
via :func:`conftest.record`.
"""

import time

import numpy as np

from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice.transient import solve_transient

from conftest import record, report

STOP_TIME = 1.5e-9
MAX_STEP = 3e-12
ROUNDS = 7
#: Comparison window for the on-vs-off waveform deviation.  A free
#: running oscillator accumulates phase differences from tiny step-size
#: changes, so pointwise agreement is only meaningful over the first
#: few stage delays.
PARITY_WINDOW = 0.3e-9


def _ring(stages):
    generator = ModelParameterGenerator(reference=default_reference())
    return build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=stages),
    )


def _run(stages, **kwargs):
    """One timed transient; returns (result, seconds, counter delta)."""
    circuit = _ring(stages)
    t0 = time.perf_counter()
    result = solve_transient(
        circuit, stop_time=STOP_TIME, max_step=MAX_STEP, **kwargs
    )
    wall = time.perf_counter() - t0
    return result, wall, result.stats.as_dict()


def _best_of_interleaved(stages):
    """Best-of-ROUNDS ``(result, seconds, counters)`` for the reference
    and the hot arm, the two alternating (in swapped order every other
    round) instead of timing all reference rounds first, and every
    round's seconds per arm."""
    arms = {"ref": {"chord": False}, "hot": {}}
    best = {}
    walls = {"ref": [], "hot": []}
    for round_ in range(ROUNDS):
        for arm in (("ref", "hot") if round_ % 2 == 0 else ("hot", "ref")):
            result, wall, delta = _run(stages, **arms[arm])
            walls[arm].append(wall)
            if arm not in best or wall < best[arm][1]:
                best[arm] = (result, wall, delta)
    return best["ref"], best["hot"], walls


def _spread(walls, steps):
    """Median and interquartile range of an arm's rounds, in seconds,
    and its median microseconds per accepted step."""
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {"median_s": round(float(median), 6),
            "iqr_s": round(float(q3 - q1), 6),
            "us_per_step": round(float(median) / steps * 1e6, 2)}


def _early_window_deviation(ref, hot):
    """Max node-voltage deviation over the shared early window."""
    t_end = min(PARITY_WINDOW, ref.times[-1], hot.times[-1])
    grid = np.linspace(0.0, t_end, 200)
    worst = 0.0
    num_nodes = len(ref.circuit.node_map)
    for col in range(num_nodes):
        a = np.interp(grid, ref.times, ref.states[:, col])
        b = np.interp(grid, hot.times, hot.states[:, col])
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def bench_transient_hotpath():
    lines = [
        f"{'stages':>6} {'ref_s':>8} {'hot_s':>8} {'speedup':>8} "
        f"{'bypassed':>9} {'reuses':>7} {'refacts':>8} {'dev_V':>9} "
        f"{'ref_med':>8} {'ref_iqr':>8} {'ref_us':>7} "
        f"{'hot_med':>8} {'hot_iqr':>8} {'hot_us':>7}"
    ]
    headline = None
    for stages in (5, 25):
        _run(stages, chord=False)  # warm caches
        (ref, t_ref, d_ref), (hot, t_hot, d_hot), walls = (
            _best_of_interleaved(stages))
        ref_spread = _spread(walls["ref"], len(ref.times) - 1)
        hot_spread = _spread(walls["hot"], len(hot.times) - 1)

        speedup = t_ref / t_hot
        deviation = _early_window_deviation(ref, hot)

        # The observability contract: the hot path must actually have
        # replayed charges and reused factorizations, the reference
        # must have done neither, and the waveforms must agree.
        assert d_hot["bypassed_evals"] > 0
        assert d_hot["jacobian_reuses"] > 0
        assert d_ref["bypassed_evals"] == 0
        assert d_ref["jacobian_reuses"] == 0
        assert deviation < 0.2, f"waveforms diverged: {deviation:.3g} V"
        assert speedup > 1.0, f"hot path slower at {stages} stages"

        payload = {
            "stages": stages,
            "unknowns": int(ref.states.shape[1]),
            "stop_time": STOP_TIME,
            "max_step": MAX_STEP,
            "ref_seconds": round(t_ref, 6),
            "hot_seconds": round(t_hot, 6),
            "speedup": round(speedup, 3),
            "ref_points": int(len(ref.times)),
            "hot_points": int(len(hot.times)),
            "early_window_deviation_v": float(deviation),
            "ref_assembly": d_ref["assembly"],
            "ref_solver": d_ref["solver"],
            "hot_assembly": d_hot["assembly"],
            "hot_solver": d_hot["solver"],
            "hot_counters": {
                key: d_hot[key]
                for key in (
                    "bypassed_evals", "jacobian_reuses",
                    "refactorizations", "factorizations",
                    "assemblies", "element_evals",
                )
            },
            "ref_factorizations": d_ref["factorizations"],
            "ref_rounds": ref_spread,
            "hot_rounds": hot_spread,
        }
        record("transient", f"ring_oscillator_{stages}_stage", payload)
        lines.append(
            f"{stages:>6} {t_ref:>8.3f} {t_hot:>8.3f} {speedup:>7.2f}x "
            f"{d_hot['bypassed_evals']:>9} {d_hot['jacobian_reuses']:>7} "
            f"{d_hot['refactorizations']:>8} {deviation:>9.2e} "
            + " ".join(
                f"{arm['median_s']:>8.3f} {arm['iqr_s']:>8.4f} "
                f"{arm['us_per_step']:>7.0f}"
                for arm in (ref_spread, hot_spread))
        )
        if stages == 25:
            headline = speedup

    report("BENCH_transient_hotpath", "\n".join(lines))
    # Headline target (tracked by BENCH_transient.json): >=2x on the
    # 25-stage ring, asserted at 1.5x for noisy shared runners.  Both
    # arms factor with SuperLU, the reference arm about four times as
    # often, so a cheaper factorization narrows the ratio.  On a 2-core
    # container eight runs read 1.64x to 1.68x (median 1.67x; reference
    # arm 0.21 s, hot arm 0.13 s), against 1.91x to 1.94x with SuperLU's
    # default panel width in eight runs alternating with them; two
    # further runs read 1.66x and 1.62x.
    assert headline is not None and headline >= 1.5
