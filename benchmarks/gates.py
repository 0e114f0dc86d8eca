"""Artifact gates over the ``BENCH_<area>.json`` files in ``benchmarks/out``.

A ``pytest benchmarks/`` run writes the artifacts; this script re-reads
them so a silently skipped benchmark cannot pass.  Name the gate groups
to check::

    python benchmarks/gates.py sweep sparse verify
    python benchmarks/gates.py service

Every gate prints one line per row it reads.  The first row that
violates a condition ends the run with a message and exit status 1.
"""

from __future__ import annotations

import json
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"

#: A check fails its row when ``FAILS[op](value, threshold)`` is true.
FAILS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
         "!=": operator.ne}

#: ``rows`` value selecting every row of the artifact, in file order.
EVERY_ROW = "every row"

#: ``rows`` value selecting every row of the artifact, in name order.
EVERY_ROW_BY_NAME = "every row by name"


@dataclass(frozen=True)
class Check:
    """One condition: the row fails when ``field op threshold``.

    ``field`` and the templates ``message`` and the gate's ``line``
    read the row's fields and the values :func:`_fields` derives from
    them.  ``multi_core`` checks are skipped on a single-core runner,
    where a parallel speedup cannot exist.
    """

    field: str
    op: str
    threshold: object
    message: str
    multi_core: bool = False


@dataclass(frozen=True)
class Gate:
    """Rows of one artifact, the line printed per row, and its checks.

    ``rows`` names the rows (``"parent/child"`` for an entry of a row
    that is a table), or is :data:`EVERY_ROW` /
    :data:`EVERY_ROW_BY_NAME`.
    """

    artifact: str
    rows: tuple | str
    line: str
    checks: tuple


#: (artifact, row, condition, threshold) per gate group.
GATES = {
    "sweep": (
        # The 500-point Monte-Carlo DC sweep has real (~ms) per-point
        # cost; on a multi-core runner the persistent-pool process path
        # must show positive scaling.  A speedup <= 1.0 here means the
        # dispatch restructuring regressed.  The serial blocked run must
        # be one chunk: an in-process blocked sweep is one lane block.
        Gate(
            "BENCH_sweep.json", ("monte_carlo_dc_500",),
            "cpu_count={cores} speedup={speedup} "
            "blocked_speedup={blocked_speedup} "
            "blocked_chunks={blocked_chunks}",
            (
                Check("blocked_chunks", "!=", 1,
                      "serial blocked sweep ran as {blocked_chunks} "
                      "chunks, not 1"),
                Check("speedup", "<=", 1.0,
                      "process speedup {speedup} <= 1.0 at {points} "
                      "points on {cores} cores", multi_core=True),
            ),
        ),
        # The 200-point x 51-frequency Monte-Carlo AC sweep compares the
        # scalar per-point path against the blocked evaluate_batch path
        # on the same serial executor — a purely algorithmic win
        # (stacked Newton bias + stacked complex solves), so no
        # core-count skip applies.  The bench itself asserts the two
        # paths are bit-identical before recording; the serial blocked
        # run must be one chunk.
        Gate(
            "BENCH_sweep.json", ("monte_carlo_ac",),
            "points={points} frequencies={frequencies} "
            "blocked_speedup={blocked_speedup} "
            "blocked_chunks={blocked_chunks} "
            "bit_identical={bit_identical}",
            (
                Check("bit_identical", "!=", True,
                      "blocked AC values diverged from the scalar path"),
                Check("blocked_chunks", "!=", 1,
                      "serial blocked AC sweep ran as {blocked_chunks} "
                      "chunks, not 1"),
                Check("blocked_speedup", "<=", 1.0,
                      "blocked AC speedup {blocked_speedup} <= 1.0 at "
                      "{points} points x {frequencies} frequencies"),
            ),
        ),
        # bench_dispatch_cost_model_table times one blocked evaluator on
        # serial, process and auto (best of three each, on a warm pool)
        # and asserts the three value lists are identical before
        # recording.  At every size auto may take at most 1.25x the
        # slower of serial and process.
        Gate(
            "BENCH_sweep.json",
            ("dispatch_cost_model/8", "dispatch_cost_model/64",
             "dispatch_cost_model/500"),
            "{name} points: serial={serial_seconds} "
            "process={process_seconds} auto={auto_seconds} -> "
            "{chosen_backend} x{workers} "
            "(auto / slower = {auto_over_slower:.2f})",
            (
                Check("auto_over_slower", ">", 1.25,
                      "auto took {auto_over_slower:.2f}x the slower "
                      "fixed backend at {name} points"),
            ),
        ),
    ),
    "sparse": (
        # bench_sparse_scaling.py already asserts >= 3x at 101 stages
        # and fill-in <= 3x at every stage count; this re-checks the
        # shipped artifact, and that the sparse arm performed zero
        # dense (n, n) assemblies.
        Gate(
            "BENCH_sparse.json", ("ring_oscillator_101_stage",),
            "unknowns={unknowns} nnz={pattern_nnz} speedup={speedup}x",
            (
                Check("speedup", "<", 3.0,
                      "sparse speedup {speedup}x < 3x at {unknowns} "
                      "unknowns"),
                Check("dense_assemblies", "!=", 0,
                      "sparse arm performed dense assemblies"),
            ),
        ),
        Gate(
            "BENCH_sparse.json", EVERY_ROW_BY_NAME,
            "{name}: fill-in {fill_in}x",
            (
                Check("fill_in", ">", 3.0,
                      "{name}: sparse LU fill-in {fill_in}x > 3x"),
            ),
        ),
    ),
    "verify": (
        # bench_verify_corners.py asserts the blocked auto-executor
        # qualification is bit-identical to the scalar serial reference
        # before recording.  The win is algorithmic (lane-stacked corner
        # solves), so it must hold even on a single-core runner where
        # auto resolves to serial.  Every corner variant compiles one
        # engine, shared by the DC and AC measurements of all its
        # corners.
        Gate(
            "BENCH_verify.json", EVERY_ROW,
            "{name}: {corners} corners "
            "scalar={scalar_corners_per_second}/s "
            "blocked={blocked_corners_per_second}/s "
            "speedup={speedup}x "
            "stress_overhead={stress_overhead_fraction} "
            "compiles={compilations} variants={corner_decks}",
            (
                Check("bit_identical", "!=", True,
                      "{name}: blocked outcomes diverged from the scalar "
                      "path"),
                Check("speedup", "<", 1.0,
                      "{name}: blocked speedup {speedup} < 1.0 at "
                      "{corners} corners"),
                Check("compiles_minus_variants", "!=", 0,
                      "{name}: {compilations} engine compiles for "
                      "{corner_decks} corner variants"),
            ),
        ),
    ),
    "service": (
        # Repeated identical requests must be served from the tenant
        # cache, and no job may recompile a circuit after its
        # create-time compile.
        Gate(
            "BENCH_service.json",
            ("service_inprocess_load", "service_http_load"),
            "{name}: {requests_per_second} req/s p50={p50_seconds}s "
            "p99={p99_seconds}s cache_hit_rate={cache_hit_rate} "
            "recompiles={recompiles}",
            (
                Check("cache_hit_rate", "<=", 0.0,
                      "{name}: cache hit rate not positive"),
                Check("recompiles", "!=", 0,
                      "{name}: {recompiles} recompiles"),
                Check("requests_per_second", "<=", 0.0,
                      "{name}: no throughput recorded"),
            ),
        ),
    ),
}


def _rows(data: dict, selection) -> list[tuple[str, dict]]:
    """``(name, row)`` pairs a gate reads from one artifact."""
    if selection == EVERY_ROW:
        return [(row["benchmark"], row) for row in data["benchmarks"]]
    rows = {row["benchmark"]: row for row in data["benchmarks"]}
    if selection == EVERY_ROW_BY_NAME:
        return sorted(rows.items())
    picked = []
    for path in selection:
        parent, _, child = path.partition("/")
        if parent not in rows:
            sys.exit(f"{parent}: no such row")
        row = rows[parent]
        if child:
            if child not in row:
                sys.exit(f"{parent} has no {child}-point row")
            picked.append((child, row[child]))
        else:
            picked.append((parent, row))
    return picked


def _fields(data: dict, name: str, row: dict) -> dict:
    """The row's fields plus ``name``, the artifact's CPU count
    (``cores``) and the values the checks compare that the row does not
    hold itself."""
    fields = dict(row, name=name,
                  cores=data.get("cpu_count") or os.cpu_count() or 1)
    if "auto_seconds" in row:
        fields["auto_over_slower"] = row["auto_seconds"] / max(
            row["serial_seconds"], row["process_seconds"])
    if "sparse_counters" in row:
        fields["dense_assemblies"] = (
            row["sparse_counters"]["dense_assemblies"])
    if "corner_decks" in row:
        fields["compiles_minus_variants"] = (
            row["compilations"] - row["corner_decks"])
    return fields


def run(groups: list[str]) -> None:
    """Check every gate of ``groups``; exits 1 at the first violation."""
    unknown = [group for group in groups if group not in GATES]
    if unknown or not groups:
        sys.exit(f"usage: gates.py GROUP... (groups: {', '.join(GATES)})")
    for group in groups:
        for gate in GATES[group]:
            data = json.loads((OUT / gate.artifact).read_text())
            for name, row in _rows(data, gate.rows):
                fields = _fields(data, name, row)
                print(gate.line.format(**fields))
                for check in gate.checks:
                    if check.multi_core and fields["cores"] < 2:
                        print("single-core runner: speedup gate skipped")
                        continue
                    if FAILS[check.op](fields[check.field],
                                       check.threshold):
                        sys.exit(check.message.format(**fields))


if __name__ == "__main__":
    run(sys.argv[1:])
