"""The repository benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table1_ring --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the working directory.  Each
run prints a line of details (core count, recorded dense/sparse and
executor choices, output-check mismatches), then, as the last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
layer wrappers (see ``layers.py``), does one pass of the workload's
fixed work, and reports the per-layer metrics, writing its spans to
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

_ENTRY = time.perf_counter()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("table1_ring", "ring101", "mc_corners", "service_mix")
#: Packages whose module-level names the tracer must see bound.
PRELOAD = ("repro.spice", "repro.sweep", "repro.verify", "repro.service",
           "repro.geometry", "repro.rfsystems", "repro.devices",
           "repro.celldb", "repro.units")
#: Set-ups per run, each timed; ``setup_s`` takes the median.  The
#: imports are timed in this process and in fresh interpreters.
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("throughput", "1/s"), ("peak_rss_mb", "MB"))
TRACE_DIR = ".perfbench"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _choices(tracer) -> dict:
    """Counts of every recorded compile and auto-dispatch choice."""
    counts: dict[str, int] = {}
    for size, backend in tracer.samples.get("choice.compile", []):
        key = f"compile:{size}:{backend}"
        counts[key] = counts.get(key, 0) + 1
    for name, points, executor, workers in tracer.samples.get(
            "choice.sweep", []):
        key = f"sweep:{name}:{points}:{executor}x{workers}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def _import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter that imports the program."""
    src = str(root / "src")
    code = "; ".join([f"import sys; sys.path.insert(0, {src!r})"]
                     + [f"import {name}" for name in PRELOAD])
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _trace_overhead(workload, state, tracer) -> float:
    """One representative operation traced against the same untraced."""
    tracer.pause()
    untraced = workload.probe(state)
    tracer.resume()
    traced = workload.probe(state)
    tracer.pause()
    return traced / untraced - 1.0


def main(argv=None) -> int:
    args = _arguments(argv)
    root = Path.cwd()
    sys.path[:0] = [str(HERE), str(root / "src")]
    try:
        for name in PRELOAD:
            importlib.import_module(name)
        origin = Path(sys.modules["repro"].__file__).resolve()
        if not origin.is_relative_to((root / "src").resolve()):
            raise ImportError(f"repro was found at {origin} instead")
    except ImportError as exc:
        print(f"error: cannot import the program from {root / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    import common
    import layers
    import speed
    import tracer as tracing

    imported = time.perf_counter()
    started = common.process_age() - (time.perf_counter() - _ENTRY)
    imports = [started + (imported - _ENTRY)] + [
        _import_seconds(root) for _ in range(SETUP_REPEATS - 1)]
    module = importlib.import_module(f"workloads.{args.workload}")
    tracer = tracing.Tracer(spans=bool(args.trace))
    tracer.install(layers.TARGETS if args.trace else layers.CHOICE_TARGETS)
    run = common.Run(args.workload, args.seed, args.seconds,
                     one_pass=bool(args.trace))
    workload = module.Workload(run, root)
    details = run.details
    state = None
    try:
        traced_from = time.perf_counter()
        setups = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - t0)
            if repeat < SETUP_REPEATS - 1:
                workload.teardown(state)
                state = None
        run.start_clock()
        metrics = workload.measure(state)
        traced_wall = time.perf_counter() - traced_from
        tracer.pause()
        if hasattr(workload, "check"):
            workload.check(state)
        setup_wall = common.median(imports) + common.median(setups)
        if not args.trace:
            metrics["setup_s"] = speed.scale(setup_wall, run.kernel_samples)
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        details["choices"] = _choices(tracer)
        if args.trace:
            values = layers.layer_metrics(tracer, traced_wall)
            if hasattr(workload, "layer_extras"):
                values.update(workload.layer_extras(state, tracer))
            details["spans"] = _write_spans(root, args, tracer)
            values["trace.overhead_frac"] = _trace_overhead(
                workload, state, tracer)
    finally:
        if state is not None:
            workload.teardown(state)
        common.stop_children()
        tracer.uninstall()

    details["setup_repeats_s"] = [round(s, 4) for s in setups]
    details["setup_wall_s"] = setup_wall
    details["kernel_p50_s"] = common.median(run.kernel_samples)
    details["import_repeats_s"] = [round(s, 4) for s in imports]
    drift = _drift(args.workload, details["choices"], details["cores"])
    details["choice_drift"] = drift
    details["mismatches"] = run.mismatches
    if drift:
        print(f"FLAG: {args.workload} made dense/sparse or executor "
              f"choices the seed did not: {details['choice_drift']}",
              file=sys.stderr)
    failed_frac = run.failed / max(run.attempted, 1)
    details["failed_frac"] = failed_frac
    if args.trace:
        values["check.max_rel_dev"] = run.max_rel_dev
        values["failed_frac"] = failed_frac
        for prefix, name in (("compile:", "spice.engine.compile"),
                             ("sweep:", "sweep.executors")):
            values[f"{name}.choice_drift"] = sum(
                details["choices"][key] for key in drift
                if key.startswith(prefix))
        details["traced_wall_s"] = traced_wall
        result_metrics = {name: {"value": float(values.get(name, 0.0)),
                                 "unit": unit}
                          for name, unit, _, _ in layers.PER_LAYER}
    else:
        result_metrics = {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in END_TO_END}
    print(json.dumps(details, sort_keys=True, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0


def _drift(workload: str, choices: dict, cores: int) -> list:
    """Choices absent from the ones the seed recorded for this workload."""
    reference = json.loads((HERE / "reference" / "choices.json").read_text())
    drift = sorted(set(choices) - set(reference["workloads"][workload]))
    if reference["cores"] != cores:
        drift.insert(0, f"reference recorded on {reference['cores']} "
                        f"cores, this run has {cores}")
    return drift


def _write_spans(root: Path, args, tracer) -> str:
    """Spans as Chrome trace events, one file per traced run."""
    out = root / TRACE_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace_{args.workload}_{args.seed}.json"
    events = [{"name": layer, "ph": "X", "ts": start * 1e6,
               "dur": (end - start) * 1e6, "tid": thread, "pid": 0,
               "args": {"id": span_id, "parent": parent,
                        "request": request}}
              for span_id, parent, layer, thread, request, start, end
              in tracer.spans]
    path.write_text(json.dumps({"traceEvents": events,
                                "droppedSpans": tracer.dropped_spans}))
    return str(path.relative_to(root))


if __name__ == "__main__":
    sys.exit(main())
