"""The layers the traced run times, and the per-layer metrics.

:data:`TARGETS` lists the public calls wrapped at each layer boundary;
:data:`CHOICE_TARGETS` is the subset the measured run keeps (hooks only,
no spans) to record every dense/sparse compile choice and every
``executor="auto"`` dispatch choice.  :data:`PER_LAYER` is the metric
table: name, unit, which way is better, and the end-to-end metric and
workloads it should move.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from common import median
from tracer import Target


# -- hooks -------------------------------------------------------------------


def _compiled(tracer, call, result, pre):
    engine = call.args[0]
    tracer.sample("choice.compile", (int(engine.size), engine.assembly))
    if tracer.inside("verify.harness"):
        tracer.count("verify.compiles")


def _swept(tracer, call, result, pre):
    stats = result.stats
    tracer.count("sweep.points", stats.points)
    tracer.count("sweep.failures", stats.failures)
    if call.kwargs.get("cache") is not None:
        tracer.count("sweep.cache_hits", stats.cache_hits)
        tracer.count("sweep.cache_lookups", stats.points)
    tracer.count("sweep.spinup_s", stats.spinup_seconds)
    tracer.count("sweep.payload_bytes", stats.payload_bytes)
    if stats.chunk_p50_seconds:
        tracer.sample("sweep.chunk_p50_s", stats.chunk_p50_seconds)
    if "auto" in (call.kwargs.get("executor"), call.kwargs.get("jobs")):
        fn = call.args[0]
        name = (fn.func.__name__ if hasattr(fn, "func")
                else type(fn).__name__)
        tracer.sample("choice.sweep", (name, int(stats.points),
                                       stats.executor, int(stats.workers)))


def _token_cached(call):
    token = call.arg(3, "token")
    return token is not None and call.args[0].has_factorization(token)


def _solved(tracer, call, result, pre):
    tracer.count("linsolve.solves")
    tracer.count("linsolve.reuses" if pre else "linsolve.factorizations")


def _solved_cached(tracer, call, result, pre):
    tracer.count("linsolve.solves")
    tracer.count("linsolve.reuses")


def _solved_stack(tracer, call, result, pre):
    from repro.spice.engine import SparseLUSolver

    # SparseLUSolver.solve_batched loops its own (wrapped) solve, which
    # already counted every system.
    if not isinstance(call.args[0], SparseLUSolver):
        _solved_pattern(tracer, call, result, pre)


def _solved_pattern(tracer, call, result, pre):
    tracer.count("linsolve.solves", len(result))
    tracer.count("linsolve.factorizations", len(result))


def _loaded(tracer, call, result, pre):
    tracer.count("device.evals", call.args[0].n)
    tracer.count("device.bypassed", result)


def _loaded_stacked(tracer, call, result, pre):
    tracer.count("device.evals", call.args[0].n * len(call.args[1]))


def _assembled(tracer, call, result, pre):
    if call.parent == "spice.dcop":
        tracer.count("dcop.iterations")


def _newton_failed(tracer, call, exc):
    from repro.errors import ConvergenceError

    if isinstance(exc, ConvergenceError):
        tracer.count("dcop.failures")


def _newton_batched(tracer, call, result, pre):
    _, converged = result
    tracer.count("dcop.failures", int((~converged).sum()))


def _stepped(tracer, call, result, pre):
    tracer.count("transient.accepted", len(result.times) - 1)
    tracer.count("transient.rejected", result.rejected_steps)
    if result.stats.fill_ratio:
        tracer.sample("linsolve.fill_ratio", result.stats.fill_ratio)


def _created(tracer, call, result, pre):
    tracer.count("service.creates")
    if result.get("reused"):
        tracer.count("service.creates_reused")


def _submitted(tracer, call, result, pre):
    if result.get("status") == "rejected":
        tracer.count("service.rejected")


def _popped(tracer, call, result, pre):
    if result is not None:
        tracer.sample("service.jobs", result)
        tracer.set_request(result.id)


# -- targets -----------------------------------------------------------------

_ENGINE = "repro.spice.engine"
_SOLVER = [
    Target(f"{_ENGINE}:LinearSolver.solve", "spice.engine.linsolve",
           before=_token_cached, after=_solved),
    Target(f"{_ENGINE}:LinearSolver.solve_cached", "spice.engine.linsolve",
           after=_solved_cached),
    Target(f"{_ENGINE}:LinearSolver.solve_batched", "spice.engine.linsolve",
           after=_solved_stack),
    Target(f"{_ENGINE}:LinearSolver.solve_batched_exact",
           "spice.engine.linsolve"),
    Target(f"{_ENGINE}:SparseLUSolver.solve_pattern_batched",
           "spice.engine.linsolve", after=_solved_pattern),
]

CHOICE_TARGETS = [
    Target(f"{_ENGINE}:CompiledCircuit.__init__", "spice.engine.compile",
           after=_compiled),
    Target("repro.sweep.orchestrator:run_sweep", "sweep.orchestrator",
           after=_swept),
]

TARGETS = CHOICE_TARGETS + _SOLVER + [
    Target("repro.geometry.generator:ModelParameterGenerator.generate",
           "geometry.generator"),
    Target("repro.spice.parser:parse_deck", "spice.parser"),
    Target("repro.spice.lint:lint_circuit", "spice.lint"),
    Target(f"{_ENGINE}:BJTGroup.load", "spice.engine.device",
           after=_loaded),
    Target(f"{_ENGINE}:BJTGroup.load_stacked", "spice.engine.device",
           after=_loaded_stacked),
    Target(f"{_ENGINE}:CompiledCircuit.evaluate", "spice.engine.assemble",
           after=_assembled),
    Target(f"{_ENGINE}:CompiledCircuit.evaluate_stacked",
           "spice.engine.assemble", after=_assembled),
    Target("repro.spice.dcop:newton_solve", "spice.dcop",
           failed=_newton_failed),
    Target("repro.spice.dcop:newton_solve_batched", "spice.dcop",
           after=_newton_batched),
    Target("repro.spice.transient:solve_transient", "spice.transient",
           after=_stepped),
    Target("repro.spice.ac:solve_ac", "spice.ac"),
    Target("repro.spice.ac:solve_ac_lanes", "spice.ac"),
    Target("repro.sweep.batched:BlockedDCSweep.evaluate_batch",
           "sweep.batched"),
    Target("repro.sweep.batched:BlockedACSweep.evaluate_batch",
           "sweep.batched"),
    Target("repro.verify.harness:CornerEvaluator.evaluate_batch",
           "sweep.batched"),
    Target("repro.sweep.executors:Executor.map_chunks", "sweep.executors"),
    Target("repro.verify.harness:qualify_deck", "verify.harness"),
    Target("repro.verify.stress:check_stress", "verify.stress"),
    Target("repro.verify.stress:device_quantities", "verify.stress"),
    Target("repro.service.server:SimulationService.create_circuit",
           "service.server.create", after=_created),
    Target("repro.service.server:SimulationService.submit",
           "service.server.submit", after=_submitted),
    Target("repro.service.jobs:JobQueue.next_job", None, after=_popped),
]


# -- the per-layer metric table ----------------------------------------------

#: (name, unit, better, the end-to-end metric and workloads it should move)
PER_LAYER = [
    ("geometry.generator.calls", "count", "lower",
     "setup_s on table1_ring and ring101"),
    ("geometry.generator.self_s", "s", "lower",
     "setup_s on table1_ring and ring101"),
    ("spice.parser.calls", "count", "lower",
     "throughput on mc_corners and service_mix; flat on the rings"),
    ("spice.parser.self_s", "s", "lower",
     "throughput on mc_corners and service_mix; flat on the rings"),
    ("spice.lint.self_s", "s", "lower",
     "throughput on service_mix (creates)"),
    ("spice.engine.compile.calls", "count", "lower",
     "throughput on mc_corners; flat on the rings"),
    ("spice.engine.compile.self_s", "s", "lower",
     "throughput on mc_corners; flat on the rings"),
    ("spice.engine.compile.choice_drift", "count", "lower",
     "throughput on ring101 (compiles whose dense/sparse backend the "
     "seed did not choose; must stay 0)"),
    ("spice.engine.device.calls", "count", "lower",
     "throughput on table1_ring and mc_corners"),
    ("spice.engine.device.self_s", "s", "lower",
     "throughput on table1_ring and mc_corners"),
    ("spice.engine.device.bypass_ratio", "fraction", "higher",
     "throughput on table1_ring and ring101"),
    ("spice.engine.assemble.calls", "count", "lower",
     "throughput on table1_ring and ring101"),
    ("spice.engine.assemble.self_s", "s", "lower",
     "throughput on table1_ring and ring101"),
    ("spice.engine.linsolve.calls", "count", "lower",
     "throughput on ring101, mc_corners and table1_ring"),
    ("spice.engine.linsolve.self_s", "s", "lower",
     "throughput on ring101, mc_corners and table1_ring"),
    ("spice.engine.linsolve.factorizations", "count", "lower",
     "throughput on ring101 and table1_ring"),
    ("spice.engine.linsolve.reuse_ratio", "fraction", "higher",
     "throughput on ring101 and table1_ring"),
    ("spice.engine.linsolve.fill_ratio", "ratio", "lower",
     "throughput on ring101"),
    ("spice.dcop.calls", "count", "lower",
     "throughput on mc_corners and the rings"),
    ("spice.dcop.self_s", "s", "lower",
     "throughput on mc_corners and the rings"),
    ("spice.dcop.iterations", "count", "lower",
     "throughput on mc_corners and the rings"),
    ("spice.dcop.failures", "count", "lower",
     "throughput on mc_corners and the rings"),
    ("spice.transient.self_s", "s", "lower",
     "throughput on table1_ring and ring101"),
    ("spice.transient.accepted_steps", "count", "lower",
     "throughput on table1_ring and ring101"),
    ("spice.transient.rejected_steps", "count", "lower",
     "throughput on table1_ring and ring101"),
    ("spice.ac.calls", "count", "lower",
     "throughput on mc_corners and service_mix"),
    ("spice.ac.self_s", "s", "lower",
     "throughput on mc_corners and service_mix"),
    ("sweep.orchestrator.calls", "count", "lower",
     "throughput on mc_corners; flat on the rings"),
    ("sweep.orchestrator.self_s", "s", "lower",
     "throughput on mc_corners; flat on the rings"),
    ("sweep.orchestrator.points", "count", "higher",
     "throughput on mc_corners"),
    ("sweep.orchestrator.failures", "count", "lower",
     "throughput on mc_corners"),
    ("sweep.batched.self_s", "s", "lower",
     "throughput on mc_corners"),
    ("sweep.executors.busy_s", "s", "lower",
     "throughput on mc_corners, and on service_mix, whose in-process "
     "serial sweeps it holds; near zero on the rings"),
    ("sweep.executors.spinup_s", "s", "lower",
     "setup_s and throughput on mc_corners"),
    ("sweep.executors.payload_bytes", "bytes", "lower",
     "throughput on mc_corners"),
    ("sweep.executors.chunk_p50_s", "s", "lower",
     "throughput on mc_corners"),
    ("sweep.executors.choice_drift", "count", "lower",
     "throughput on mc_corners (auto sweeps whose executor or worker "
     "count the seed did not choose; must stay 0)"),
    ("sweep.cache.hit_ratio", "fraction", "higher",
     "throughput on service_mix (cache reads)"),
    ("service.server.cache_hit_ratio", "fraction", "higher",
     "throughput on service_mix (cache reads)"),
    ("verify.harness.calls", "count", "lower",
     "throughput on mc_corners and service_mix"),
    ("verify.harness.self_s", "s", "lower",
     "throughput on mc_corners and service_mix"),
    ("verify.harness.compiles_per_qualify", "count", "lower",
     "throughput on mc_corners"),
    ("verify.stress.self_s", "s", "lower",
     "throughput on mc_corners and service_mix"),
    ("service.server.create_s", "s", "lower",
     "throughput on service_mix"),
    ("service.server.create_reuse_ratio", "fraction", "higher",
     "throughput on service_mix"),
    ("service.server.exec_busy_s", "s", "lower",
     "throughput on service_mix"),
    ("service.server.recompiles", "count", "lower",
     "throughput on service_mix (must stay 0)"),
    ("service.jobs.wait_p50_s", "s", "lower",
     "throughput on service_mix; first the fixed-rate job latency in the "
     "details line"),
    ("service.jobs.wait_tail_s", "s", "lower",
     "throughput on service_mix; first the fixed-rate job latency in the "
     "details line"),
    ("service.jobs.rejected", "count", "lower",
     "failed_frac on service_mix (must stay 0)"),
    ("failed_frac", "fraction", "lower",
     "none; failed, refused and mismatched operations over attempted"),
    ("trace.overhead_frac", "fraction", "lower",
     "none; diagnostic of the traced run"),
    ("trace.other_s", "s", "lower",
     "none; traced wall minus all named self time"),
    ("check.max_rel_dev", "ratio", "lower",
     "none; largest relative deviation of a checked output"),
    ("gen.late_max_s", "s", "lower",
     "none; how late the open-loop generator ran (service_mix)"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer values from a traced run's spans and counters.

    Layers the workload never entered read 0; the service workload adds
    its queue figures.  ``wall`` is the traced wall clock the self times
    are compared against.
    """
    layers = {name: list(record) for name, record in tracer.layers.items()}
    counters = dict(tracer.counters)
    samples = {name: list(values) for name, values in tracer.samples.items()}

    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0]

    def inclusive(layer):
        return layers.get(layer, [0, 0.0, 0.0])[1]

    def self_s(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2]

    fills = samples.get("linsolve.fill_ratio", [])
    qualifies = calls("verify.harness")
    out = {
        "geometry.generator.calls": calls("geometry.generator"),
        "geometry.generator.self_s": self_s("geometry.generator"),
        "spice.parser.calls": calls("spice.parser"),
        "spice.parser.self_s": self_s("spice.parser"),
        "spice.lint.self_s": self_s("spice.lint"),
        "spice.engine.compile.calls": calls("spice.engine.compile"),
        "spice.engine.compile.self_s": self_s("spice.engine.compile"),
        "spice.engine.device.calls": calls("spice.engine.device"),
        "spice.engine.device.self_s": self_s("spice.engine.device"),
        "spice.engine.device.bypass_ratio": _ratio(
            counters.get("device.bypassed", 0),
            counters.get("device.evals", 0)),
        "spice.engine.assemble.calls": calls("spice.engine.assemble"),
        "spice.engine.assemble.self_s": self_s("spice.engine.assemble"),
        "spice.engine.linsolve.calls": calls("spice.engine.linsolve"),
        "spice.engine.linsolve.self_s": self_s("spice.engine.linsolve"),
        "spice.engine.linsolve.factorizations": counters.get(
            "linsolve.factorizations", 0),
        "spice.engine.linsolve.reuse_ratio": _ratio(
            counters.get("linsolve.reuses", 0),
            counters.get("linsolve.solves", 0)),
        "spice.engine.linsolve.fill_ratio": (
            sum(fills) / len(fills) if fills else 0.0),
        "spice.dcop.calls": calls("spice.dcop"),
        "spice.dcop.self_s": self_s("spice.dcop"),
        "spice.dcop.iterations": counters.get("dcop.iterations", 0),
        "spice.dcop.failures": counters.get("dcop.failures", 0),
        "spice.transient.self_s": self_s("spice.transient"),
        "spice.transient.accepted_steps": counters.get(
            "transient.accepted", 0),
        "spice.transient.rejected_steps": counters.get(
            "transient.rejected", 0),
        "spice.ac.calls": calls("spice.ac"),
        "spice.ac.self_s": self_s("spice.ac"),
        "sweep.orchestrator.calls": calls("sweep.orchestrator"),
        "sweep.orchestrator.self_s": self_s("sweep.orchestrator"),
        "sweep.orchestrator.points": counters.get("sweep.points", 0),
        "sweep.orchestrator.failures": counters.get("sweep.failures", 0),
        "sweep.batched.self_s": self_s("sweep.batched"),
        "sweep.executors.busy_s": inclusive("sweep.executors"),
        "sweep.executors.spinup_s": counters.get("sweep.spinup_s", 0.0),
        "sweep.executors.payload_bytes": counters.get(
            "sweep.payload_bytes", 0),
        "sweep.executors.chunk_p50_s": median(
            samples.get("sweep.chunk_p50_s", [])),
        "sweep.cache.hit_ratio": _ratio(
            counters.get("sweep.cache_hits", 0),
            counters.get("sweep.cache_lookups", 0)),
        "verify.harness.calls": qualifies,
        "verify.harness.self_s": self_s("verify.harness"),
        "verify.harness.compiles_per_qualify": _ratio(
            counters.get("verify.compiles", 0), qualifies),
        "verify.stress.self_s": self_s("verify.stress"),
        "service.server.create_s": inclusive("service.server.create"),
        "service.server.create_reuse_ratio": _ratio(
            counters.get("service.creates_reused", 0),
            counters.get("service.creates", 0)),
        "service.jobs.rejected": counters.get("service.rejected", 0),
    }
    named_self = sum(record[2] for record in layers.values())
    out["trace.other_s"] = wall - named_self
    return out
