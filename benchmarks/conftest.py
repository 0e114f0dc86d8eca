"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper; the
regenerated rows/series are printed to stdout (run with ``-s`` to see
them live) and archived under ``benchmarks/out/`` so the numbers are
inspectable after a quiet run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.geometry import (
    MaskDesignRules,
    ModelParameterGenerator,
    ProcessData,
    default_reference,
)
from repro.spice.engine import CompiledCircuit, EngineStats

OUTPUT_DIR = Path(__file__).parent / "out"

#: Rows per area, written to ``BENCH_<area>.json`` at session end.
_RECORDS: dict[str, list[dict]] = {}

#: The :class:`EngineStats` fields summed over a benchmark's engines;
#: the gauges (solver, assembly, pattern and fill-in) describe a single
#: engine and are left out.
_SUMMED = ("wall_seconds",) + EngineStats._COUNTERS


def record(area: str, name: str, payload: dict) -> None:
    """Archive one measurement as a row of ``BENCH_<area>.json``."""
    _RECORDS.setdefault(area, []).append({"benchmark": name, **payload})


@pytest.fixture(autouse=True)
def _engine_counters(request, monkeypatch):
    """Record wall time and the engine work (solves, factorizations,
    element evaluations...) of every engine compiled during each
    benchmark, into ``BENCH_engine.json``.

    A benchmark timed through pytest-benchmark's ``benchmark`` fixture
    runs its function as many rounds as that fixture picks from elapsed
    time, so its counters scale with them: its row also records
    ``rounds``, and rows of two runs compare per round.  Rows of other
    benchmarks have no ``rounds``."""
    timer = (request.getfixturevalue("benchmark")
             if "benchmark" in request.fixturenames else None)
    compiled: list[EngineStats] = []
    compile_engine = CompiledCircuit.__init__

    def init(self, *args, **kwargs):
        compile_engine(self, *args, **kwargs)
        compiled.append(self.stats)

    monkeypatch.setattr(CompiledCircuit, "__init__", init)
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0
    row = {
        "wall_seconds": round(wall, 6),
        "engine": {
            name: sum(getattr(stats, name) for stats in compiled)
            for name in _SUMMED
        },
    }
    if getattr(timer, "stats", None) is not None:
        row["rounds"] = timer.stats.stats.rounds
    record("engine", request.node.name, row)


def pytest_sessionfinish(session, exitstatus):
    for area, rows in _RECORDS.items():
        OUTPUT_DIR.mkdir(exist_ok=True)
        payload = {
            "schema": f"bench-{area}-v1",
            # Speedups only mean anything relative to the cores the
            # runner actually had; record it with the numbers.
            "cpu_count": os.cpu_count(),
            "benchmarks": rows,
        }
        (OUTPUT_DIR / f"BENCH_{area}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )


def report(name: str, text: str) -> None:
    """Print a regenerated table and archive it under benchmarks/out/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def process() -> ProcessData:
    return ProcessData()


@pytest.fixture(scope="session")
def rules() -> MaskDesignRules:
    return MaskDesignRules()


@pytest.fixture(scope="session")
def reference(process, rules):
    return default_reference(process, rules)


@pytest.fixture(scope="session")
def generator(process, rules, reference) -> ModelParameterGenerator:
    return ModelParameterGenerator(process, rules, reference)
