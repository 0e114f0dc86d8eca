"""Deterministic derivative-free optimizers on the sweep engine.

Three searches, chosen for the shapes analog sizing problems take:

* :func:`coordinate_search` — pattern search along one axis at a time
  with step shrinking; robust on noisy, cheap objectives,
* :func:`nelder_mead` — the downhill simplex; fast local polish on
  smooth objectives,
* :func:`differential_evolution` — population-based global search;
  the workhorse for multimodal sizing landscapes.

All three share the evaluation backend: every batch of candidate
points fans out through :func:`repro.sweep.run_sweep`, which brings

* **parallelism** — ``executor=``/``jobs=`` run candidates on a process
  pool, with the engine's guarantee that results are bit-identical to a
  serial run (chunking and seeding are independent of scheduling),
* **caching** — a :class:`~repro.sweep.ResultCache` serves revisited
  points (pattern searches and DE's survivors revisit constantly)
  without re-simulation,
* **fault tolerance** — candidates are evaluated under
  ``on_error="skip"``: a :class:`~repro.errors.ConvergenceError` (or
  any solver failure) costs that candidate a ``failure_penalty``
  instead of killing the run,
* **determinism** — all randomness is drawn parent-side from
  ``SeedSequence(seed)``; stochastic objectives receive per-candidate
  :class:`~numpy.random.SeedSequence` children keyed to the evaluation
  index, so a fixed seed gives bit-identical results on every executor.

Objectives are ``fn(params: dict) -> float`` (minimized).  Stochastic
objectives declare an ``rng`` keyword and are handed a per-evaluation
generator.  Build spec-driven objectives with :func:`spec_objective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError, DesignError
from ..sweep import SweepPoint, run_sweep
from ..sweep.orchestrator import _accepts_keyword, _evaluation_tag

#: Objective value charged to a candidate whose evaluation failed.
DEFAULT_FAILURE_PENALTY = 1e12


@dataclass(frozen=True)
class Parameter:
    """One search dimension: bounds, optional log scaling, initial value.

    ``log=True`` searches the exponent uniformly between the bounds'
    logs — the right metric for currents and resistances spanning
    decades.
    """

    name: str
    lower: float
    upper: float
    initial: float | None = None
    log: bool = False

    def __post_init__(self):
        if not self.name:
            raise DesignError("parameter needs a name")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DesignError(f"parameter {self.name!r}: bounds must be finite")
        if self.lower >= self.upper:
            raise DesignError(
                f"parameter {self.name!r}: lower bound {self.lower:g} must "
                f"be below upper bound {self.upper:g}"
            )
        if self.log and self.lower <= 0:
            raise DesignError(
                f"parameter {self.name!r}: log scaling needs positive bounds"
            )
        if self.initial is not None and not (
            self.lower <= self.initial <= self.upper
        ):
            raise DesignError(
                f"parameter {self.name!r}: initial {self.initial:g} outside "
                f"[{self.lower:g}, {self.upper:g}]"
            )

    # -- the internal unit-cube coordinate system -----------------------------------
    #
    # Optimizers work in [0, 1] per axis; encode/decode map to physical
    # values (through log space when requested).  Keeping the search in
    # the unit cube makes steps comparable across axes.

    def decode(self, u: float) -> float:
        """Unit-cube coordinate -> physical value (clipped into bounds)."""
        u = min(1.0, max(0.0, float(u)))
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            return math.exp(lo + u * (hi - lo))
        return self.lower + u * (self.upper - self.lower)

    def encode(self, value: float) -> float:
        """Physical value -> unit-cube coordinate."""
        if self.log:
            lo, hi = math.log(self.lower), math.log(self.upper)
            return (math.log(min(self.upper, max(self.lower, value))) - lo) / (hi - lo)
        return (min(self.upper, max(self.lower, value)) - self.lower) / (
            self.upper - self.lower
        )

    def initial_unit(self) -> float:
        """Starting coordinate: encoded ``initial`` or the cube centre."""
        if self.initial is None:
            return 0.5
        return self.encode(self.initial)


@dataclass
class OptimizeResult:
    """Outcome of one optimization run."""

    method: str
    best_params: dict  #: physical parameter values of the best candidate
    best_value: float  #: objective at the best candidate
    evaluations: int = 0  #: objective evaluations actually run
    cache_hits: int = 0  #: evaluations served from the result cache
    failed_evaluations: int = 0  #: candidates charged the failure penalty
    iterations: int = 0  #: optimizer iterations / generations
    converged: bool = False  #: tolerance reached before the budget ran out
    history: list = field(default_factory=list)  #: best value per iteration

    def summary(self) -> str:
        status = "converged" if self.converged else "budget exhausted"
        params = ", ".join(f"{k}={v:.6g}"
                           for k, v in self.best_params.items())
        text = (f"{self.method}: best {self.best_value:.6g} at [{params}] "
                f"after {self.iterations} iteration(s), "
                f"{self.evaluations} evaluation(s) ({status})")
        if self.cache_hits:
            text += f", {self.cache_hits} cache hit(s)"
        if self.failed_evaluations:
            text += f", {self.failed_evaluations} failed candidate(s)"
        return text


def spec_objective(specs, measure, extra_cost=None):
    """Build a minimizable objective from a spec set and a measurer.

    ``measure(params) -> {name: value}`` produces the measurements the
    :class:`~repro.optimize.spec.SpecSet` scores; ``extra_cost(params,
    measurements) -> float`` (optional) adds a secondary objective —
    typically power or area — that breaks ties once all specs are met.
    The returned callable is pickle-friendly as long as ``measure`` and
    ``extra_cost`` are (module-level functions or partials), so it fans
    out through the process executor.
    """
    return _SpecObjective(specs, measure, extra_cost)


class _SpecObjective:
    """Picklable spec-penalty objective (see :func:`spec_objective`)."""

    def __init__(self, specs, measure, extra_cost=None):
        self.specs = specs
        self.measure = measure
        self.extra_cost = extra_cost

    def __call__(self, params: dict) -> float:
        measurements = self.measure(params)
        value = self.specs.penalty(measurements)
        if self.extra_cost is not None:
            value += self.extra_cost(params, measurements)
        return value


class _BatchEvaluator:
    """Evaluates candidate batches through the sweep engine.

    Candidates are unit-cube vectors; the evaluator decodes them to
    physical parameter dicts, dispatches one :func:`run_sweep` per
    batch (``on_error="skip"``), charges failures the penalty, and
    accumulates counters.  For stochastic objectives (``fn`` accepts
    ``rng``) each evaluation receives its own ``SeedSequence`` child,
    spawned in submission order from a dedicated root — executor
    scheduling cannot perturb the streams.
    """

    def __init__(self, fn, parameters, *, executor=None, jobs=None,
                 cache=None, cache_tag=None,
                 failure_penalty=DEFAULT_FAILURE_PENALTY,
                 eval_seed_root=None):
        self.fn = fn
        self.parameters = tuple(parameters)
        if not self.parameters:
            raise DesignError("optimization needs at least one parameter")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise DesignError(f"duplicate parameter names in {names}")
        self.executor = executor
        self.jobs = jobs
        self.cache = cache
        self.cache_tag = cache_tag
        if cache is not None and cache_tag is None:
            # Resolve the tag once up front so an unhashable callable
            # fails fast, not on the first batch.
            self.cache_tag = _evaluation_tag(fn, require_code=True)
        self.failure_penalty = float(failure_penalty)
        self.stochastic = _accepts_keyword(fn, "rng")
        self._seed_root = eval_seed_root
        self.evaluations = 0
        self.cache_hits = 0
        self.failures = 0

    def decode(self, vector) -> dict:
        """Unit-cube vector -> physical parameter dict."""
        return {p.name: p.decode(u)
                for p, u in zip(self.parameters, vector)}

    def __call__(self, vectors) -> np.ndarray:
        """Evaluate a batch of unit-cube vectors; returns their values."""
        points = []
        for i, vector in enumerate(vectors):
            seed = None
            if self.stochastic:
                if self._seed_root is None:
                    raise AnalysisError(
                        "stochastic objective (accepts rng=) needs the "
                        "optimizer's seed; use differential_evolution or "
                        "pass eval_seed_root"
                    )
                (seed,) = self._seed_root.spawn(1)
            points.append(SweepPoint(index=i, params=self.decode(vector),
                                     seed=seed))
        result = run_sweep(
            self.fn, points,
            executor=self.executor, jobs=self.jobs,
            cache=self.cache, cache_tag=self.cache_tag,
            on_error="skip",
        )
        self.evaluations += result.stats.evaluated
        self.cache_hits += result.stats.cache_hits
        self.failures += len(result.failures)
        failed = set(result.failed_indices())
        values = np.empty(len(points))
        for i, value in enumerate(result.values):
            if i in failed or value is None:
                values[i] = self.failure_penalty
            else:
                values[i] = float(value)
        return values


def _finish(method, evaluator, best_vector, best_value, iterations,
            converged, history) -> OptimizeResult:
    return OptimizeResult(
        method=method,
        best_params=evaluator.decode(best_vector),
        best_value=float(best_value),
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        failed_evaluations=evaluator.failures,
        iterations=iterations,
        converged=converged,
        history=history,
    )


def coordinate_search(
    fn,
    parameters,
    *,
    initial_step: float = 0.25,
    shrink: float = 0.5,
    tol: float = 1e-3,
    max_iterations: int = 60,
    executor=None,
    jobs: int | None = None,
    cache=None,
    cache_tag: str | None = None,
    failure_penalty: float = DEFAULT_FAILURE_PENALTY,
) -> OptimizeResult:
    """Deterministic compass/coordinate pattern search.

    From the initial point, probe ``+/- step`` along every axis (one
    batched sweep per iteration — the probes parallelize); move to the
    best improving probe, or shrink the step by ``shrink`` when none
    improves.  Stops when the step drops below ``tol`` (in unit-cube
    units) or the iteration budget runs out.  Entirely deterministic —
    no randomness at all.
    """
    if not (0.0 < shrink < 1.0):
        raise DesignError("shrink factor must be in (0, 1)")
    if initial_step <= 0:
        raise DesignError("initial_step must be positive")
    evaluator = _BatchEvaluator(
        fn, parameters, executor=executor, jobs=jobs, cache=cache,
        cache_tag=cache_tag, failure_penalty=failure_penalty,
    )
    dims = len(evaluator.parameters)
    current = np.array([p.initial_unit() for p in evaluator.parameters])
    current_value = float(evaluator([current])[0])
    step = float(initial_step)
    history = [current_value]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        probes = []
        for axis in range(dims):
            for direction in (+1.0, -1.0):
                probe = current.copy()
                probe[axis] = min(1.0, max(0.0,
                                           probe[axis] + direction * step))
                probes.append(probe)
        values = evaluator(probes)
        best = int(np.argmin(values))
        if values[best] < current_value:
            current = probes[best]
            current_value = float(values[best])
        else:
            step *= shrink
        history.append(current_value)
        if step < tol:
            converged = True
            break
    return _finish("coordinate_search", evaluator, current, current_value,
                   iterations, converged, history)


def nelder_mead(
    fn,
    parameters,
    *,
    initial_spread: float = 0.15,
    tol: float = 1e-6,
    max_iterations: int = 200,
    executor=None,
    jobs: int | None = None,
    cache=None,
    cache_tag: str | None = None,
    failure_penalty: float = DEFAULT_FAILURE_PENALTY,
) -> OptimizeResult:
    """Downhill simplex (Nelder-Mead) within the parameter box.

    Standard reflection/expansion/contraction/shrink with coefficients
    (1, 2, 0.5, 0.5); simplex vertices are clipped into the unit cube.
    The initial simplex spans ``initial_spread`` of each axis around the
    initial point.  Converges when the simplex's value spread falls
    below ``tol``.  Deterministic.
    """
    if initial_spread <= 0:
        raise DesignError("initial_spread must be positive")
    evaluator = _BatchEvaluator(
        fn, parameters, executor=executor, jobs=jobs, cache=cache,
        cache_tag=cache_tag, failure_penalty=failure_penalty,
    )
    dims = len(evaluator.parameters)
    base = np.array([p.initial_unit() for p in evaluator.parameters])
    simplex = [base]
    for axis in range(dims):
        vertex = base.copy()
        nudge = initial_spread if vertex[axis] + initial_spread <= 1.0 \
            else -initial_spread
        vertex[axis] = min(1.0, max(0.0, vertex[axis] + nudge))
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = evaluator(list(simplex))

    history = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        history.append(float(values[0]))
        if float(values[-1] - values[0]) <= tol:
            converged = True
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]

        def clipped(point):
            return np.clip(point, 0.0, 1.0)

        reflected = clipped(centroid + (centroid - worst))
        reflected_value = float(evaluator([reflected])[0])
        if reflected_value < values[0]:
            expanded = clipped(centroid + 2.0 * (centroid - worst))
            expanded_value = float(evaluator([expanded])[0])
            if expanded_value < reflected_value:
                simplex[-1], values[-1] = expanded, expanded_value
            else:
                simplex[-1], values[-1] = reflected, reflected_value
        elif reflected_value < values[-2]:
            simplex[-1], values[-1] = reflected, reflected_value
        else:
            contracted = clipped(centroid + 0.5 * (worst - centroid))
            contracted_value = float(evaluator([contracted])[0])
            if contracted_value < values[-1]:
                simplex[-1], values[-1] = contracted, contracted_value
            else:
                # Shrink every non-best vertex toward the best (batched).
                shrunk = [clipped(simplex[0] + 0.5 * (v - simplex[0]))
                          for v in simplex[1:]]
                shrunk_values = evaluator(shrunk)
                simplex[1:] = shrunk
                values[1:] = shrunk_values
    best = int(np.argmin(values))
    return _finish("nelder_mead", evaluator, simplex[best],
                   float(values[best]), iterations, converged, history)


def differential_evolution(
    fn,
    parameters,
    *,
    seed: int = 0,
    population: int = 16,
    generations: int = 40,
    differential_weight: float = 0.6,
    crossover: float = 0.8,
    tol: float = 1e-9,
    executor=None,
    jobs: int | None = None,
    cache=None,
    cache_tag: str | None = None,
    failure_penalty: float = DEFAULT_FAILURE_PENALTY,
) -> OptimizeResult:
    """DE/rand/1/bin differential evolution over the parameter box.

    Each generation builds ``population`` trial vectors (mutation +
    binomial crossover, all drawn parent-side from a generator seeded
    by ``SeedSequence(seed)``) and evaluates them as **one batched
    sweep** — the population fans out across ``executor``/``jobs``
    workers with per-candidate ``SeedSequence`` children for stochastic
    objectives.  Selection is greedy per slot.  Because every random
    draw happens in the parent and :func:`repro.sweep.run_sweep` is
    executor-independent, a fixed seed yields **bit-identical results
    on serial and process executors**.

    A candidate whose evaluation raises (``ConvergenceError`` included)
    is charged ``failure_penalty`` — it loses its slot, the run
    continues.  Converges when the population's value spread falls
    below ``tol``.
    """
    if population < 4:
        raise DesignError("differential evolution needs population >= 4")
    if not (0.0 < crossover <= 1.0):
        raise DesignError("crossover must be in (0, 1]")
    if differential_weight <= 0:
        raise DesignError("differential_weight must be positive")
    root = np.random.SeedSequence(seed)
    driver_seed, eval_seed = root.spawn(2)
    rng = np.random.default_rng(driver_seed)
    evaluator = _BatchEvaluator(
        fn, parameters, executor=executor, jobs=jobs, cache=cache,
        cache_tag=cache_tag, failure_penalty=failure_penalty,
        eval_seed_root=eval_seed,
    )
    dims = len(evaluator.parameters)

    # Initial population: uniform in the unit cube, slot 0 pinned to
    # the declared initial point so a known-good starting design is
    # always in the gene pool.
    vectors = rng.random((population, dims))
    vectors[0] = [p.initial_unit() for p in evaluator.parameters]
    values = evaluator(list(vectors))

    history = [float(values.min())]
    converged = False
    iterations = 0
    for iterations in range(1, generations + 1):
        trials = np.empty_like(vectors)
        for i in range(population):
            # Three distinct partners, none equal to i.
            choices = [j for j in range(population) if j != i]
            a, b, c = rng.choice(choices, size=3, replace=False)
            mutant = vectors[a] + differential_weight * (
                vectors[b] - vectors[c]
            )
            mutant = np.clip(mutant, 0.0, 1.0)
            cross = rng.random(dims) < crossover
            cross[rng.integers(dims)] = True  # at least one gene crosses
            trials[i] = np.where(cross, mutant, vectors[i])
        trial_values = evaluator(list(trials))
        better = trial_values < values
        vectors[better] = trials[better]
        values[better] = trial_values[better]
        history.append(float(values.min()))
        if float(values.max() - values.min()) <= tol:
            converged = True
            break
    best = int(np.argmin(values))
    return _finish("differential_evolution", evaluator, vectors[best],
                   float(values[best]), iterations, converged, history)
