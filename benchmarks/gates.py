"""Artifact gates over the ``BENCH_<area>.json`` files in ``benchmarks/out``.

A ``pytest benchmarks/`` run writes the artifacts; this script re-reads
them so a silently skipped benchmark cannot pass.  Name the gate groups
to check::

    python benchmarks/gates.py sweep sparse verify transient device
    python benchmarks/gates.py service

Every gate prints one line per row it reads.  The first row that
violates a condition, or lacks a field its line prints, ends the run
with a message and exit status 1.
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
         ">=": operator.ge, "!=": operator.ne}

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


#: The dispatch table's rows: sizes up to the one-block rule's bound
#: (1000, mc_corners' blocked DC sweep) and one past it.
DISPATCH_ROWS = tuple(f"dispatch_cost_model/{count}"
                      for count in (8, 64, 500, 1000, 2000))

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
        # serial, process and auto (best of five rounds each, in an order
        # that rotates every round, on a warm pool)
        # and asserts the three value lists are identical before
        # recording.  At every size auto may take at most 1.25x the
        # slower of serial and process.
        Gate(
            "BENCH_sweep.json", DISPATCH_ROWS,
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
        # The same rows, a deterministic check of the plan: a row at or
        # below costmodel.BLOCKED_SERIAL_POINTS (one_block_rule) must
        # have run serially in one chunk, with no probe.
        Gate(
            "BENCH_sweep.json", DISPATCH_ROWS,
            "{name} points: one-block rule {one_block_rule} -> "
            "{chosen_backend} in {chunks} chunks",
            (
                Check("off_rule", "!=", False,
                      "auto ran {name} blocked points, inside the "
                      "one-block rule, on {chosen_backend} in {chunks} "
                      "chunks, not serial in one"),
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
        # Every row also ledgers one sparse LU factorization's cost
        # (median and IQR, bench_sparse_scaling._factor_ms); a row
        # without it fails.  Times depend on the runner, so none is
        # bounded.
        Gate(
            "BENCH_sparse.json", EVERY_ROW_BY_NAME,
            "{name}: fill-in {fill_in}x, factor {factor_ms[median]} ms "
            "(IQR {factor_ms[iqr]})",
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
        # auto resolves to serial.  Each arm's evaluator compiles one
        # engine, whose lanes carry every corner variant for the DC and
        # AC measurements of all corners.
        Gate(
            "BENCH_verify.json", EVERY_ROW,
            "{name}: {corners} corners "
            "scalar={scalar_corners_per_second}/s "
            "blocked={blocked_corners_per_second}/s "
            "speedup={speedup}x "
            "stress_overhead={stress_overhead_fraction} "
            "compiles={compilations} scalar_compiles={scalar_compilations} "
            "variants={corner_decks}",
            (
                Check("bit_identical", "!=", True,
                      "{name}: blocked outcomes diverged from the scalar "
                      "path"),
                Check("speedup", "<", 1.0,
                      "{name}: blocked speedup {speedup} < 1.0 at "
                      "{corners} corners"),
                Check("compilations", "!=", 1,
                      "{name}: {compilations} engine compiles for "
                      "{corner_decks} corner variants, not 1"),
                Check("scalar_compilations", ">", 1,
                      "{name}: the scalar arm compiled "
                      "{scalar_compilations} engines for {corner_decks} "
                      "corner variants, not 1"),
            ),
        ),
    ),
    "transient": (
        # bench_transient_hotpath.py asserts these inline before it
        # records a row; this re-checks the shipped artifact.  The hot
        # path must beat the chord=False reference, must actually have
        # replayed charges and reused factorizations, and must stay on
        # the reference waveform over the early window.
        Gate(
            "BENCH_transient.json",
            ("ring_oscillator_5_stage", "ring_oscillator_25_stage"),
            "{name}: ref={ref_seconds}s hot={hot_seconds}s "
            "speedup={speedup}x replayed={bypassed_evals} "
            "reuses={jacobian_reuses} "
            "deviation={early_window_deviation_v}V",
            (
                Check("speedup", "<=", 1.0,
                      "{name}: hot path slower ({speedup}x)"),
                Check("bypassed_evals", "<=", 0,
                      "{name}: hot path replayed no charges"),
                Check("jacobian_reuses", "<=", 0,
                      "{name}: hot path reused no factorization"),
                Check("early_window_deviation_v", ">=", 0.2,
                      "{name}: waveforms diverged by "
                      "{early_window_deviation_v}V"),
            ),
        ),
        # The headline: chord-Newton amortizes the 25-stage ring's
        # sparse LU factorizations (the ring compiles sparse).  The
        # bench asserts the same 1.5x floor.
        Gate(
            "BENCH_transient.json", ("ring_oscillator_25_stage",),
            "{name}: headline speedup {speedup}x",
            (
                Check("speedup", "<", 1.5,
                      "{name}: headline speedup {speedup}x < 1.5x"),
            ),
        ),
    ),
    "device": (
        # bench_bjt_kernel.py times BJTGroup.load (20 and 404 BJTs) and
        # a 64-lane load_stacked in fixed rounds.  Times depend on the
        # runner, so none is gated: every row must exist and carry the
        # bench's own check against the reference (load_circuit at rtol
        # 1e-12; stacked lanes against scalar evaluations, bit for bit).
        Gate(
            "BENCH_device.json",
            ("load_20_bjt", "load_404_bjt", "load_stacked_20_bjt_64_lanes"),
            "{name}: {us_per_call} us/call (IQR {iqr_us}) "
            "matches_reference={matches_reference}",
            (
                Check("matches_reference", "!=", True,
                      "{name}: stamps diverged from the reference"),
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
    if "one_block_rule" in row:
        fields["off_rule"] = bool(row["one_block_rule"]) and (
            row["chosen_backend"], row["chunks"]) != ("serial", 1)
    if "sparse_counters" in row:
        fields["dense_assemblies"] = (
            row["sparse_counters"]["dense_assemblies"])
    if "hot_counters" in row:
        for key in ("bypassed_evals", "jacobian_reuses"):
            fields[key] = row["hot_counters"][key]
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
                try:
                    print(gate.line.format(**fields))
                except KeyError as exc:
                    sys.exit(f"{name}: no {exc.args[0]} recorded")
                for check in gate.checks:
                    if check.multi_core and fields["cores"] < 2:
                        print("single-core runner: speedup gate skipped")
                        continue
                    if FAILS[check.op](fields[check.field],
                                       check.threshold):
                        sys.exit(check.message.format(**fields))


if __name__ == "__main__":
    run(sys.argv[1:])
