"""Corner-qualification throughput: blocked sweep fan-out vs scalar.

Qualifies two seeded cells — the UPMIX-1300 Gilbert mixer and the
PHASE90-IF phase shifter — across an 81-corner full-factorial set
(3 temperatures x 3 resistor scales x 3 supply levels x 3 input-bias
levels), with DC + AC measurements and device stress checks at every
corner.  The blocked ``executor="auto"`` path is asserted bit-identical
to the scalar serial reference before any number is recorded; CI gates
the blocked speedup >= 1 and one engine compile for the blocked
evaluator (``compilations``), whose lanes carry all ``corner_decks``
variants.  Archived in BENCH_verify.json next to the runner's core
count.
"""

import time

from repro.celldb import seed_database
from repro.spice.dcop import solve_dc
from repro.spice.parser import parse_deck
from repro.verify import (
    DEFAULT_STRESS_RULES,
    CornerEvaluator,
    CornerSet,
    check_stress,
    default_measurements,
    device_quantities,
    qualify_deck,
    scale_axis,
    source_axis,
    temperature_axis,
)

from conftest import record, report

JOBS = 2

#: cell -> the second (input-bias) source axis riding each corner deck.
CELLS = (
    ("UPMIX-1300", ("VRF", 0.85, 0.05)),
    ("PHASE90-IF", ("VB", 2.5, 0.05)),
)


def _corners(bias_axis) -> CornerSet:
    name, nominal, tol = bias_axis
    return CornerSet([
        temperature_axis((-20, 27, 85)),
        scale_axis("R", 0.1),
        source_axis("V1", 5.0, 0.1),
        source_axis(name, nominal, tol),
    ])


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _stress_seconds_per_corner(deck: str) -> float:
    """Direct cost of one corner's stress reduction (quantities + rules)."""
    circuit = parse_deck(deck).circuit
    circuit.assign_indices()
    x = solve_dc(circuit)
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        quantities = device_quantities(circuit, x)
        check_stress(circuit, x, DEFAULT_STRESS_RULES,
                     quantities=quantities)
    return (time.perf_counter() - t0) / reps


def bench_corner_qualification():
    # Warm the persistent pool outside the timed region, as the other
    # parallel benches do: spin-up is a once-per-process cost.
    from repro.sweep.executors import _get_pool

    _get_pool(JOBS)
    db = seed_database()
    lines = []
    for cell_name, bias_axis in CELLS:
        deck = db.get(cell_name).schematic
        corners = _corners(bias_axis)
        measurements = default_measurements(deck)

        # Compile-once parity: both arms run on evaluators that hold
        # their engine already -- the blocked one primed (the deck's
        # engine and every variant's lane stamps), the scalar one warmed
        # by an untimed run -- so the comparison is pure corner
        # evaluation, not deck compiles.
        scalar_ev = CornerEvaluator(deck, corners, measurements)
        blocked_ev = CornerEvaluator(deck, corners, measurements)
        corner_decks = blocked_ev.prime()

        def scalar_run():
            return qualify_deck(
                deck, corners, measurements, name=cell_name,
                executor="serial", batch=False, evaluator=scalar_ev)

        scalar_run()
        scalar, t_scalar = _timed(scalar_run)
        blocked, t_blocked = _timed(lambda: qualify_deck(
            deck, corners, measurements, name=cell_name,
            executor="auto", jobs=JOBS, batch="auto",
            evaluator=blocked_ev))

        # The contract under test: the blocked fan-out changes the wall
        # clock, never a single corner outcome.
        assert [o.to_dict() for o in blocked.outcomes] == \
            [o.to_dict() for o in scalar.outcomes]
        assert blocked.passed() and scalar.passed()
        assert blocked.stats["failures"] == 0

        speedup = t_scalar / t_blocked if t_blocked > 0 else 0.0
        stress_corner = _stress_seconds_per_corner(deck)
        stress_fraction = (stress_corner * len(corners) / t_blocked
                           if t_blocked > 0 else 0.0)
        record("verify", f"qualify_{cell_name}", {
            "corners": len(corners),
            "measurements": len(measurements),
            "corner_decks": corner_decks,
            # Each evaluator's compiles: one engine, whose lanes carry
            # every corner variant on both paths; CI gates both at 1.
            "compilations": blocked_ev.compilations(),
            "scalar_compilations": scalar_ev.compilations(),
            "scalar_seconds": round(t_scalar, 6),
            "blocked_seconds": round(t_blocked, 6),
            "scalar_corners_per_second": round(
                len(corners) / t_scalar, 2),
            "blocked_corners_per_second": round(
                len(corners) / t_blocked, 2),
            "speedup": round(speedup, 3),
            "bit_identical": True,
            "executor": blocked.stats["executor"],
            "jobs": blocked.stats["workers"],
            "stress_seconds_per_corner": round(stress_corner, 8),
            "stress_overhead_fraction": round(stress_fraction, 4),
            "passed": blocked.passed(),
        })
        lines.append(
            f"{cell_name}: {len(corners)} corners x "
            f"{len(measurements)} measurements "
            f"({corner_decks} corner decks, "
            f"{blocked_ev.compilations()} blocked and "
            f"{scalar_ev.compilations()} scalar engine compile)\n"
            f"  scalar serial {t_scalar * 1e3:7.1f} ms "
            f"({len(corners) / t_scalar:6.0f} corners/s)\n"
            f"  blocked {blocked.stats['executor']:7s} "
            f"{t_blocked * 1e3:7.1f} ms "
            f"({len(corners) / t_blocked:6.0f} corners/s, "
            f"speedup {speedup:.2f}x)\n"
            f"  stress checks {stress_fraction * 100:.1f} % of blocked "
            f"wall; outcomes bit-identical: True"
        )
    report("verify_corner_qualification", "\n".join(lines))
