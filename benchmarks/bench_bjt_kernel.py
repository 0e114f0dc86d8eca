"""BJT kernel cost per call: ``BJTGroup.load`` and ``load_stacked``.

Device evaluation pays numpy's per-call dispatch, so its cost is per
call and only weakly per device.  This bench times three calls of the
Fig. 11 ring's vectorized group (N1.2-12D pair, N1.2-6D follower):

* a full ``load`` of the paper's 5-stage ring (20 BJTs),
* a full ``load`` of the same ring at 101 stages (404 BJTs),
* a 64-lane ``load_stacked`` of the 5-stage group.

Each runs at the DC operating point with the converged limiting history
in place, so no junction is limited: the state of almost every
evaluation in a transient.  Rounds are fixed, not time-based: ``WARMUP``
untimed calls, then ``ROUNDS`` rounds of ``CALLS`` calls; a row records
the median and the interquartile range of the per-call time over the
rounds, in microseconds, so two runs time the same work.

Before timing, every row runs its own check, and records it as
``matches_reference``: a scalar evaluation's stamps against the
per-element reference :func:`~repro.spice.mna.load_circuit` at a seeded
random point (rtol 1e-12), and every stacked lane against a scalar
evaluation at that lane's point, bit for bit.  No time is gated; the
rows and their checks are (``benchmarks/gates.py device``).  Results
land in ``BENCH_device.json`` via :func:`conftest.record`.
"""

import time

import numpy as np

from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice import compile_circuit, solve_dc
from repro.spice.mna import load_circuit

from conftest import record, report

WARMUP = 20
ROUNDS = 15
#: Calls per timed round, per row: the stacked call costs ~20 loads.
CALLS = {"load": 100, "load_stacked": 5}
LANES = 64


def _ring(stages):
    generator = ModelParameterGenerator(reference=default_reference())
    return build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=stages),
    )


def _per_call_us(call, calls):
    """``(median, IQR)`` in microseconds of one call, over ``ROUNDS``
    rounds of ``calls`` calls after ``WARMUP`` untimed ones."""
    for _ in range(WARMUP):
        call()
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        rounds.append((time.perf_counter() - t0) / calls * 1e6)
    q1, median, q3 = np.percentile(rounds, [25, 50, 75])
    return round(float(median), 2), round(float(q3 - q1), 2)


def _matches_load_circuit(circuit, engine):
    """Whether the engine's stamps match the per-element reference at a
    seeded random point (as ``TestStampingEquivalence`` draws them: at
    the operating point the residual cancels to rounding), limiting
    history fresh on both sides."""
    x = 0.5 * np.random.default_rng(7).standard_normal(engine.size)
    ref = load_circuit(circuit, x, limits={})
    ctx = engine.evaluate(x, limits={})
    return all(
        np.allclose(np.asarray(getattr(ctx, attr)),
                    np.asarray(getattr(ref, attr)), rtol=1e-12, atol=1e-18)
        for attr in ("i_vec", "g_mat", "q_vec", "c_mat")
    )


def _lanes_match_scalar(engine, x_stack, history):
    """Whether every lane of a stacked evaluation is a scalar evaluation
    at that lane's point and history, bit for bit."""
    group = engine._bjt_group
    lanes = [{group: history[k].copy()} for k in range(len(x_stack))]
    stacked = engine.evaluate_stacked(x_stack, history=history.copy(),
                                      with_c=True)
    for k, limits in enumerate(lanes):
        ctx = engine.evaluate(x_stack[k], limits=limits)
        for lane, scalar in ((stacked.i[k], ctx.i_vec),
                             (stacked.g[k], ctx.g_mat),
                             (stacked.q[k], ctx.q_vec),
                             (stacked.c[k], ctx.c_mat)):
            if (np.asarray(lane).tobytes()
                    != np.asarray(scalar).tobytes()):
                return False
    return True


def bench_bjt_kernel():
    lines = [f"{'call':<30} {'us/call':>9} {'IQR':>7}  reference"]
    for stages in (5, 101):
        circuit = _ring(stages)
        circuit.assign_indices()
        engine = compile_circuit(circuit)
        group = engine._bjt_group
        limits = {}
        x = solve_dc(circuit, limits=limits, engine=engine)
        ctx = engine.evaluate(x, limits=limits)
        matches = _matches_load_circuit(circuit, engine)
        assert matches, f"{stages}-stage ring: stamps off the reference"
        median, iqr = _per_call_us(lambda: group.load(ctx), CALLS["load"])
        name = f"load_{group.n}_bjt"
        record("device", name, {
            "stages": stages, "devices": group.n, "lanes": 1,
            "us_per_call": median, "iqr_us": iqr,
            "warmup": WARMUP, "rounds": ROUNDS, "calls": CALLS["load"],
            "matches_reference": matches,
        })
        lines.append(f"{name:<30} {median:>9.1f} {iqr:>7.1f}  {matches}")
        if stages != 5:
            continue

        # The stacked call: lanes spread around the operating point,
        # each with the converged history.
        rng = np.random.default_rng(5)
        x_stack = x + 1e-3 * rng.standard_normal((LANES, x.size))
        history = np.repeat(limits[group][None], LANES, axis=0)
        matches = _lanes_match_scalar(engine, x_stack, history)
        assert matches, "stacked lanes diverged from scalar evaluations"
        n1 = engine.size + 1
        flat = engine.pattern.nnz + 1 if engine.assembly == "sparse" \
            else n1 * n1
        i_full, q_full = np.zeros((LANES, n1)), np.zeros((LANES, n1))
        g_flat, c_flat = np.zeros((LANES, flat)), np.zeros((LANES, flat))
        median, iqr = _per_call_us(
            lambda: group.load_stacked(x_stack, 1e-12, history, i_full,
                                       q_full, g_flat, c_flat),
            CALLS["load_stacked"])
        name = f"load_stacked_{group.n}_bjt_{LANES}_lanes"
        record("device", name, {
            "stages": stages, "devices": group.n, "lanes": LANES,
            "us_per_call": median, "iqr_us": iqr,
            "warmup": WARMUP, "rounds": ROUNDS,
            "calls": CALLS["load_stacked"], "matches_reference": matches,
        })
        lines.append(f"{name:<30} {median:>9.1f} {iqr:>7.1f}  {matches}")
    report("BENCH_bjt_kernel", "\n".join(lines))
