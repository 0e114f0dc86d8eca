"""The CI artifact gates in ``benchmarks/gates.py``.

Synthetic ``BENCH_<area>.json`` artifacts that sit on every threshold
must pass and print one line per row; the same artifacts with one value
moved past one condition must end the run with that condition's
message.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

GATES_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "gates.py"

#: Passing artifacts; each value that has a non-strict threshold sits
#: on it.
PASSING = {
    "BENCH_sweep.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": "fig5_grid", "points": 64},
        {"benchmark": "monte_carlo_dc_500", "points": 500,
         "speedup": 1.5, "blocked_speedup": 9.0, "blocked_chunks": 1},
        {"benchmark": "monte_carlo_ac", "points": 200, "frequencies": 51,
         "blocked_speedup": 1.01, "blocked_chunks": 1,
         "bit_identical": True},
        {"benchmark": "dispatch_cost_model", **{
            count: {"serial_seconds": 0.5, "process_seconds": 1.0,
                    "auto_seconds": 1.25, "chosen_backend": "serial",
                    "workers": 1, "chunks": 1, "one_block_rule": True}
            for count in ("8", "64", "500", "1000")},
            "2000": {"serial_seconds": 0.5, "process_seconds": 1.0,
                     "auto_seconds": 1.25, "chosen_backend": "process",
                     "workers": 2, "chunks": 9, "one_block_rule": False}},
    ]},
    "BENCH_sparse.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": "ring_oscillator_5_stage", "fill_in": 3.0,
         "factor_ms": {"median": 0.021, "iqr": 0.001}},
        {"benchmark": "ring_oscillator_101_stage", "unknowns": 1719,
         "pattern_nnz": 7781, "speedup": 3.0, "fill_in": 2.05,
         "factor_ms": {"median": 0.29, "iqr": 0.004},
         "sparse_counters": {"dense_assemblies": 0}},
    ]},
    "BENCH_verify.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": f"qualify_{cell}", "corners": 81,
         "scalar_corners_per_second": 240.1,
         "blocked_corners_per_second": 646.9, "speedup": 1.0,
         "stress_overhead_fraction": 0.03, "compilations": 1,
         "scalar_compilations": 1, "corner_decks": 9,
         "bit_identical": True}
        for cell in ("UPMIX", "IF")
    ]},
    "BENCH_transient.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": f"ring_oscillator_{stages}_stage", "ref_seconds": ref,
         "hot_seconds": hot, "speedup": speedup,
         "early_window_deviation_v": 0.01,
         "hot_counters": {"bypassed_evals": 1, "jacobian_reuses": 1}}
        for stages, ref, hot, speedup in ((5, 0.3, 0.25, 1.2),
                                          (25, 0.9, 0.6, 1.5))
    ]},
    "BENCH_device.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": name, "us_per_call": us, "iqr_us": 1.5,
         "matches_reference": True}
        for name, us in (("load_20_bjt", 150.0), ("load_404_bjt", 380.0),
                         ("load_stacked_20_bjt_64_lanes", 2300.0))
    ]},
    "BENCH_service.json": {"cpu_count": 2, "benchmarks": [
        {"benchmark": name, "requests_per_second": 100.0,
         "p50_seconds": 0.001, "p99_seconds": 0.01,
         "cache_hit_rate": 0.5, "recompiles": 0}
        for name in ("service_inprocess_load", "service_http_load")
    ]},
}

#: What the gates print for :data:`PASSING`, per command.
PASSING_LINES = {
    ("sweep", "sparse", "verify"): [
        "cpu_count=2 speedup=1.5 blocked_speedup=9.0 blocked_chunks=1",
        "points=200 frequencies=51 blocked_speedup=1.01 blocked_chunks=1 "
        "bit_identical=True",
        *(f"{count} points: serial=0.5 process=1.0 auto=1.25 -> serial x1 "
          "(auto / slower = 1.25)" for count in ("8", "64", "500", "1000")),
        "2000 points: serial=0.5 process=1.0 auto=1.25 -> process x2 "
        "(auto / slower = 1.25)",
        *(f"{count} points: one-block rule True -> serial in 1 chunks"
          for count in ("8", "64", "500", "1000")),
        "2000 points: one-block rule False -> process in 9 chunks",
        "unknowns=1719 nnz=7781 speedup=3.0x",
        "ring_oscillator_101_stage: fill-in 2.05x, factor 0.29 ms "
        "(IQR 0.004)",
        "ring_oscillator_5_stage: fill-in 3.0x, factor 0.021 ms (IQR 0.001)",
        *(f"qualify_{cell}: 81 corners scalar=240.1/s blocked=646.9/s "
          "speedup=1.0x stress_overhead=0.03 compiles=1 scalar_compiles=1 "
          "variants=9"
          for cell in ("UPMIX", "IF")),
    ],
    ("transient",): [
        "ring_oscillator_5_stage: ref=0.3s hot=0.25s speedup=1.2x "
        "replayed=1 reuses=1 deviation=0.01V",
        "ring_oscillator_25_stage: ref=0.9s hot=0.6s speedup=1.5x "
        "replayed=1 reuses=1 deviation=0.01V",
        "ring_oscillator_25_stage: headline speedup 1.5x",
    ],
    ("device",): [
        f"{name}: {us} us/call (IQR 1.5) matches_reference=True"
        for name, us in (("load_20_bjt", 150.0), ("load_404_bjt", 380.0),
                         ("load_stacked_20_bjt_64_lanes", 2300.0))
    ],
    ("service",): [
        f"{name}: 100.0 req/s p50=0.001s p99=0.01s cache_hit_rate=0.5 "
        "recompiles=0"
        for name in ("service_inprocess_load", "service_http_load")
    ],
}

#: (group, artifact, row, field, violating value, message); a ``None``
#: value deletes the field.
VIOLATIONS = [
    ("sweep", "BENCH_sweep.json", "monte_carlo_dc_500", "blocked_chunks", 2,
     "serial blocked sweep ran as 2 chunks, not 1"),
    ("sweep", "BENCH_sweep.json", "monte_carlo_dc_500", "speedup", 1.0,
     "process speedup 1.0 <= 1.0 at 500 points on 2 cores"),
    ("sweep", "BENCH_sweep.json", "monte_carlo_ac", "bit_identical", False,
     "blocked AC values diverged from the scalar path"),
    ("sweep", "BENCH_sweep.json", "monte_carlo_ac", "blocked_chunks", 3,
     "serial blocked AC sweep ran as 3 chunks, not 1"),
    ("sweep", "BENCH_sweep.json", "monte_carlo_ac", "blocked_speedup", 1.0,
     "blocked AC speedup 1.0 <= 1.0 at 200 points x 51 frequencies"),
    ("sweep", "BENCH_sweep.json", "dispatch_cost_model", "64", None,
     "dispatch_cost_model has no 64-point row"),
    ("sweep", "BENCH_sweep.json", "dispatch_cost_model", "500",
     {"serial_seconds": 0.5, "process_seconds": 1.0, "auto_seconds": 1.3,
      "chosen_backend": "process", "workers": 2},
     "auto took 1.30x the slower fixed backend at 500 points"),
    ("sweep", "BENCH_sweep.json", "dispatch_cost_model", "1000",
     {"serial_seconds": 0.5, "process_seconds": 1.0, "auto_seconds": 1.0,
      "chosen_backend": "process", "workers": 2, "chunks": 8,
      "one_block_rule": True},
     "auto ran 1000 blocked points, inside the one-block rule, on process "
     "in 8 chunks, not serial in one"),
    ("sweep", "BENCH_sweep.json", "dispatch_cost_model", "8",
     {"serial_seconds": 0.5, "process_seconds": 1.0, "auto_seconds": 1.0,
      "chosen_backend": "serial", "workers": 1, "chunks": 2,
      "one_block_rule": True},
     "auto ran 8 blocked points, inside the one-block rule, on serial "
     "in 2 chunks, not serial in one"),
    ("sparse", "BENCH_sparse.json", "ring_oscillator_101_stage", "speedup",
     2.9, "sparse speedup 2.9x < 3x at 1719 unknowns"),
    ("sparse", "BENCH_sparse.json", "ring_oscillator_101_stage",
     "sparse_counters", {"dense_assemblies": 1},
     "sparse arm performed dense assemblies"),
    ("sparse", "BENCH_sparse.json", "ring_oscillator_5_stage", "fill_in",
     3.01, "ring_oscillator_5_stage: sparse LU fill-in 3.01x > 3x"),
    ("sparse", "BENCH_sparse.json", "ring_oscillator_5_stage", "factor_ms",
     None, "ring_oscillator_5_stage: no factor_ms recorded"),
    ("verify", "BENCH_verify.json", "qualify_IF", "bit_identical", False,
     "qualify_IF: blocked outcomes diverged from the scalar path"),
    ("verify", "BENCH_verify.json", "qualify_IF", "speedup", 0.99,
     "qualify_IF: blocked speedup 0.99 < 1.0 at 81 corners"),
    ("verify", "BENCH_verify.json", "qualify_IF", "compilations", 10,
     "qualify_IF: 10 engine compiles for 9 corner variants, not 1"),
    ("verify", "BENCH_verify.json", "qualify_IF", "compilations", 8,
     "qualify_IF: 8 engine compiles for 9 corner variants, not 1"),
    ("verify", "BENCH_verify.json", "qualify_IF", "scalar_compilations", 9,
     "qualify_IF: the scalar arm compiled 9 engines for 9 corner "
     "variants, not 1"),
    ("transient", "BENCH_transient.json", "ring_oscillator_5_stage",
     "speedup", 1.0, "ring_oscillator_5_stage: hot path slower (1.0x)"),
    ("transient", "BENCH_transient.json", "ring_oscillator_5_stage",
     "hot_counters", {"bypassed_evals": 0, "jacobian_reuses": 1},
     "ring_oscillator_5_stage: hot path replayed no charges"),
    ("transient", "BENCH_transient.json", "ring_oscillator_25_stage",
     "hot_counters", {"bypassed_evals": 1, "jacobian_reuses": 0},
     "ring_oscillator_25_stage: hot path reused no factorization"),
    ("transient", "BENCH_transient.json", "ring_oscillator_25_stage",
     "early_window_deviation_v", 0.2,
     "ring_oscillator_25_stage: waveforms diverged by 0.2V"),
    ("transient", "BENCH_transient.json", "ring_oscillator_25_stage",
     "speedup", 1.49,
     "ring_oscillator_25_stage: headline speedup 1.49x < 1.5x"),
    ("device", "BENCH_device.json", "load_404_bjt", "matches_reference",
     False, "load_404_bjt: stamps diverged from the reference"),
    ("device", "BENCH_device.json", "load_stacked_20_bjt_64_lanes",
     "matches_reference", False,
     "load_stacked_20_bjt_64_lanes: stamps diverged from the reference"),
    ("service", "BENCH_service.json", "service_http_load", "cache_hit_rate",
     0.0, "service_http_load: cache hit rate not positive"),
    ("service", "BENCH_service.json", "service_http_load", "recompiles", 1,
     "service_http_load: 1 recompiles"),
    ("service", "BENCH_service.json", "service_http_load",
     "requests_per_second", 0.0, "service_http_load: no throughput recorded"),
]


@pytest.fixture
def gates(tmp_path, monkeypatch):
    """``benchmarks/gates.py`` reading its artifacts from ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("gates", GATES_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "gates", module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    return module


def _write(directory: Path, artifacts: dict) -> None:
    for name, data in artifacts.items():
        (directory / name).write_text(json.dumps(data))


@pytest.mark.parametrize("groups", list(PASSING_LINES), ids="-".join)
def test_passing_artifacts_print_every_row(gates, tmp_path, capsys, groups):
    _write(tmp_path, PASSING)
    gates.run(list(groups))
    assert capsys.readouterr().out.splitlines() == PASSING_LINES[groups]


@pytest.mark.parametrize(
    "group, artifact, row, field, value, message", VIOLATIONS,
    ids=[f"{v[2]}-{v[3]}" + ("" if isinstance(v[4], dict) else f"-{v[4]}")
         for v in VIOLATIONS])
def test_each_violation_exits_nonzero(gates, tmp_path, group, artifact, row,
                                      field, value, message):
    artifacts = copy.deepcopy(PASSING)
    [target] = [entry for entry in artifacts[artifact]["benchmarks"]
                if entry["benchmark"] == row]
    if value is None:
        del target[field]
    else:
        target[field] = value
    _write(tmp_path, artifacts)
    with pytest.raises(SystemExit) as exc:
        gates.run([group])
    assert exc.value.code == message


def test_single_core_runner_skips_only_the_process_speedup(gates, tmp_path,
                                                          capsys):
    artifacts = copy.deepcopy(PASSING)
    sweep = artifacts["BENCH_sweep.json"]
    sweep["cpu_count"] = 1
    sweep["benchmarks"][1]["speedup"] = 0.5
    _write(tmp_path, artifacts)
    gates.run(["sweep"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "cpu_count=1 speedup=0.5 blocked_speedup=9.0 blocked_chunks=1",
        "single-core runner: speedup gate skipped",
    ]
    # The AC row, then the dispatch rows under both of their gates.
    assert len(lines) == 2 + 1 + 2 * len(gates.DISPATCH_ROWS)
    sweep["benchmarks"][1]["blocked_chunks"] = 2
    _write(tmp_path, artifacts)
    with pytest.raises(SystemExit, match="ran as 2 chunks"):
        gates.run(["sweep"])


def test_a_missing_row_exits_nonzero(gates, tmp_path):
    artifacts = copy.deepcopy(PASSING)
    rows = artifacts["BENCH_device.json"]["benchmarks"]
    rows[:] = [row for row in rows if row["benchmark"] != "load_404_bjt"]
    _write(tmp_path, artifacts)
    with pytest.raises(SystemExit) as exc:
        gates.run(["device"])
    assert exc.value.code == "load_404_bjt: no such row"


@pytest.mark.parametrize("groups", ([], ["sweep", "bogus"]),
                         ids=("none", "unknown"))
def test_unknown_or_missing_group_is_a_usage_error(gates, groups):
    with pytest.raises(SystemExit, match="usage"):
        gates.run(groups)
