"""DC operating-point solution by Newton-Raphson with homotopies.

The solve ladder mirrors SPICE: plain Newton first, then gmin stepping
(relaxing the junction shunt conductance from 1e-2 S down to the target),
then source stepping (ramping all independent sources from zero).  Each
stage warm-starts from the best solution found so far.

Per-iteration assembly goes through an engine (see
:mod:`repro.spice.engine`): by default the circuit's cached
:class:`~repro.spice.engine.CompiledCircuit`, which stamps the linear
part once and evaluates only the nonlinear devices per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConvergenceError, ConvergenceReport
from .engine import resolve_engine
from .netlist import Circuit


def weighted_error_vector(
    delta: np.ndarray,
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    num_nodes: int,
    reltol: float,
    atol_nodes: float,
    atol_branches: float,
) -> np.ndarray:
    """Per-unknown |delta| in units of the per-unknown tolerance.

    The tolerance for unknown ``i`` is
    ``reltol * max(|ref_a[i]|, |ref_b[i]|) + atol``, with ``atol``
    switching from the node (voltage) to the branch (current) value at
    index ``num_nodes``.
    """
    scale = reltol * np.maximum(np.abs(ref_a), np.abs(ref_b))
    scale[:num_nodes] += atol_nodes
    scale[num_nodes:] += atol_branches
    return np.abs(delta) / scale


def weighted_max_error(
    delta: np.ndarray,
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    num_nodes: int,
    reltol: float,
    atol_nodes: float,
    atol_branches: float,
) -> float:
    """Largest entry of :func:`weighted_error_vector`.

    Shared by the Newton step-size test and the transient
    local-truncation-error estimate.
    """
    return float(np.max(weighted_error_vector(
        delta, ref_a, ref_b, num_nodes, reltol, atol_nodes, atol_branches
    )))


def _failure_report(
    circuit: Circuit,
    stage: str,
    iterations: int,
    residual: float,
    worst: int,
    gmin: float,
    source_scale: float,
    time: float | None,
) -> ConvergenceReport:
    """Assemble the forensics record for one failed Newton run."""
    worst_name = ""
    if worst >= 0:
        try:
            worst_name = circuit.unknown_name(worst)
        except Exception:  # name lookup must never mask the real failure
            worst_name = f"unknown[{worst}]"
    return ConvergenceReport(
        stage=stage,
        iterations=iterations,
        residual=residual,
        worst_index=worst,
        worst_name=worst_name,
        gmin=gmin,
        source_scale=source_scale,
        time=time,
    )


@dataclass(frozen=True)
class Tolerances:
    """Newton convergence tolerances (SPICE option names)."""

    reltol: float = 1e-3
    vntol: float = 1e-6  #: absolute voltage tolerance
    abstol: float = 1e-12  #: absolute current tolerance
    max_iterations: int = 100

    def converged(self, dx: np.ndarray, x: np.ndarray, num_nodes: int) -> bool:
        """Per-unknown step-size test: voltages vs vntol, currents vs abstol."""
        return (
            weighted_max_error(
                dx, x, x + dx, num_nodes,
                self.reltol, self.vntol, self.abstol,
            )
            <= 1.0
        )


#: Small conductance stamped from every node to ground to avoid floating
#: subcircuits making the Jacobian singular.
DIAG_GSHUNT = 1e-12


#: A chord iteration must shrink the weighted error by at least this
#: factor per step, or the frozen Jacobian is declared stale and
#: refactorized (SPICE's Newton-Richardson convergence watch).
CHORD_CONTRACTION = 0.5


def newton_solve(
    circuit: Circuit,
    x0: np.ndarray,
    tolerances: Tolerances,
    gmin: float,
    source_scale: float = 1.0,
    time: float | None = None,
    limits: dict | None = None,
    dynamic=None,
    engine=None,
    jacobian_token=None,
    chord: bool = False,
    bypass_tol: float = 0.0,
    jac_alpha: float | None = None,
    return_context=False,
    rhs_delta: np.ndarray | None = None,
):
    """Run Newton iterations on F(x) = I(x) [+ dynamic terms] until converged.

    ``dynamic``, when given, is a callable ``(ctx, F, J) -> None`` that adds
    the integration-formula terms (used by transient analysis).  ``engine``
    selects the evaluation engine (see
    :func:`repro.spice.engine.resolve_engine`); ``jacobian_token``, when
    the circuit has a constant Jacobian, lets the linear solver reuse its
    factorization across iterations and calls carrying the same token.

    ``chord=True`` extends that reuse to nonlinear circuits
    (chord / Newton-Richardson iteration): the Jacobian factorized under
    ``jacobian_token`` is kept across iterations *and* across calls
    carrying the same token, while the weighted error must contract by
    :data:`CHORD_CONTRACTION` per chord step — otherwise the factorization
    is declared stale and rebuilt.  If the chord loop exhausts the
    iteration budget it falls back to one full-Newton pass (with device
    bypass disabled) before raising.  ``bypass_tol`` is forwarded to
    ``engine.evaluate`` for device bypass.

    ``return_context=True`` returns ``(x, ctx)`` where ``ctx`` is a
    :class:`~repro.spice.mna.LoadContext` evaluated at (or, with
    bypass/chord enabled, within Newton tolerance of) the converged
    solution — transient analysis reads its charge vector instead of
    re-assembling.  Raises :class:`~repro.errors.ConvergenceError` if the
    iteration limit is hit or the Jacobian goes singular.

    ``jac_alpha``, when the engine supports fused assembly, makes
    ``evaluate`` build ``g_mat = G + jac_alpha*C`` directly; the
    ``dynamic`` callback must then add only the residual's integration
    terms and leave the Jacobian alone.

    ``rhs_delta``, when given, is a per-unknown residual offset added to
    every assembly (scaled by ``source_scale``, like the sources it
    stands in for).  It is how sweeps re-bias independent sources
    without recompiling the engine: the compiled circuit folds DC
    source values into its cached RHS at compile time, so an override
    is expressed as ``coeff * (level - base)`` on the source's residual
    rows instead (see :class:`repro.sweep.batched.BlockedDCSweep`).  The
    scalar and blocked Newton paths apply it at the same point with the
    same arithmetic, which is what keeps them bit-identical.
    """
    engine = resolve_engine(circuit, engine)
    num_nodes = engine.num_nodes
    x = np.array(x0, dtype=float)
    if limits is None:
        limits = {}
    diag = np.arange(num_nodes)
    chord_ok = chord and jacobian_token is not None
    full_newton = not chord_ok
    # The chord loop gets the normal budget; the full-Newton fallback the
    # same again, so a stale-Jacobian stall can never mask a solvable step.
    max_iterations = tolerances.max_iterations * (2 if chord_ok else 1)
    eff_bypass = bypass_tol
    refactor_next = False
    last_error = math.nan
    prev_error = math.inf
    worst = -1
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not full_newton and iterations > tolerances.max_iterations:
            # Chord budget exhausted: refactorize every iteration and
            # re-evaluate every device from here on.
            full_newton = True
            eff_bypass = 0.0
            engine.invalidate_factorization()
        use_cached = (
            not full_newton
            and not refactor_next
            and engine.has_factorization(jacobian_token)
        )
        ctx = engine.evaluate(
            x, time=time, gmin=gmin, limits=limits,
            source_scale=source_scale, bypass_tol=eff_bypass,
            jac_alpha=jac_alpha,
            # A chord-reuse iteration never reads the Jacobian, so skip
            # its dense assembly entirely.
            residual_only=use_cached,
        )
        # The context arrays are engine-owned buffers, free to mutate:
        # the next evaluation rebuilds them.
        residual = ctx.i_vec
        jacobian = ctx.g_mat
        if rhs_delta is not None:
            if source_scale == 1.0:
                residual += rhs_delta
            else:
                residual += rhs_delta * source_scale
        if dynamic is not None:
            dynamic(ctx, residual, jacobian)
        if not use_cached:
            jacobian[diag, diag] += DIAG_GSHUNT
        residual[:num_nodes] += DIAG_GSHUNT * x[:num_nodes]
        try:
            if use_cached:
                dx = engine.solve_cached(-residual)
            else:
                dx = engine.solve(
                    jacobian, -residual, token=jacobian_token,
                    chord=not full_newton and chord_ok,
                )
                refactor_next = False
                prev_error = math.inf
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Jacobian: {exc}",
                report=_failure_report(
                    circuit, "newton", iterations, last_error, worst,
                    gmin, source_scale, time,
                ),
            ) from exc
        if not np.all(np.isfinite(dx)):
            if use_cached:
                # A stale factorization produced garbage — rebuild it and
                # retry this iteration instead of failing outright.
                engine.invalidate_factorization()
                engine.stats.refactorizations += 1
                refactor_next = True
                continue
            worst = int(np.argmax(~np.isfinite(dx)))
            raise ConvergenceError(
                "non-finite Newton step",
                report=_failure_report(
                    circuit, "newton", iterations, math.inf, worst,
                    gmin, source_scale, time,
                ),
            )
        x += dx
        errors = weighted_error_vector(
            dx, x - dx, x, num_nodes,
            tolerances.reltol, tolerances.vntol, tolerances.abstol,
        )
        worst = int(np.argmax(errors))
        last_error = float(errors[worst])
        if last_error <= 1.0:
            if not return_context:
                return x
            # Hand back a context assembled at the converged point.  The
            # charge vector feeds the integrator's history, where any
            # final-iterate offset would be amplified by 1/h and ring
            # through the trapezoidal rule — so this is never skipped.
            # With bypass on, an infinite tolerance forces every device
            # onto the replay path (cached stamps extrapolated with the
            # cached Jacobians to the converged x — second-order accurate
            # in the final Newton step) and only the charge vector is
            # assembled, since the integrator's accept path reads nothing
            # else.  At bypass_tol=0 it matches the seed's post-accept
            # re-evaluation stamp for stamp.
            if eff_bypass > 0.0:
                ctx = engine.evaluate(
                    x, time=time, gmin=gmin, limits=limits,
                    source_scale=source_scale,
                    bypass_tol=math.inf, charges_only=True,
                )
            else:
                ctx = engine.evaluate(
                    x, time=time, gmin=gmin, limits=limits,
                    source_scale=source_scale,
                )
            return x, ctx
        if use_cached and last_error >= prev_error * CHORD_CONTRACTION:
            # The frozen Jacobian is no longer contracting the error —
            # refactorize at the next iteration.
            engine.invalidate_factorization()
            engine.stats.refactorizations += 1
            refactor_next = True
        prev_error = last_error
    raise ConvergenceError(
        f"Newton failed to converge in {max_iterations} "
        "iterations",
        report=_failure_report(
            circuit, "newton", iterations, last_error, worst,
            gmin, source_scale, time,
        ),
    )


def retry_perturbation(x0: np.ndarray, attempt: int,
                       amplitude: float = 0.05) -> np.ndarray:
    """Deterministic initial-guess jitter for retry attempt ``attempt``.

    Attempt ``k`` always produces the same perturbation (the stream is
    seeded by ``k``), so a retried sweep point is reproducible.  The
    amplitude grows with the attempt number: later retries explore
    further from the failed starting point.
    """
    if attempt <= 0:
        return np.array(x0, dtype=float)
    rng = np.random.default_rng(attempt)
    return np.asarray(x0, dtype=float) + rng.normal(
        0.0, amplitude * attempt, size=np.shape(x0)
    )


def solve_dc(
    circuit: Circuit,
    x0: np.ndarray | None = None,
    tolerances: Tolerances | None = None,
    gmin: float = 1e-12,
    limits: dict | None = None,
    engine=None,
    attempt: int = 0,
    rhs_delta: np.ndarray | None = None,
) -> np.ndarray:
    """DC operating point with the full homotopy ladder.

    Returns the solution vector (node voltages then branch currents).
    On failure raises :class:`~repro.errors.ConvergenceError` carrying a
    :class:`~repro.errors.ConvergenceReport` whose ``stage`` records the
    last homotopy rung attempted and whose ``history`` lists every rung
    that failed before it.

    ``attempt`` is the retry ladder hook used by fault-tolerant sweeps
    (see :func:`repro.sweep.run_sweep`): attempt ``k > 0`` starts from a
    deterministically perturbed initial guess
    (:func:`retry_perturbation`) and walks a longer, heavier gmin
    ladder.  The converged solution is unchanged — only the path to it.

    ``rhs_delta`` re-biases the independent sources without recompiling
    (see :func:`newton_solve`); it rides through every homotopy stage,
    scaled with the sources during source stepping.
    """
    circuit.assign_indices()
    engine = resolve_engine(circuit, engine)
    if tolerances is None:
        tolerances = Tolerances()
    if x0 is None:
        x0 = np.zeros(circuit.num_unknowns)
    if limits is None:
        limits = {}
    if attempt > 0:
        x0 = retry_perturbation(x0, attempt)
    history: list[str] = []

    try:
        return newton_solve(
            circuit, x0, tolerances, gmin, limits=limits,
            engine=engine, jacobian_token=("dc",), rhs_delta=rhs_delta,
        )
    except ConvergenceError as exc:
        history.append(f"newton: {exc}")

    # gmin stepping: solve with a heavy junction shunt, then relax it.
    # Retry attempts relax harder: a higher starting shunt and more rungs.
    x = np.array(x0, dtype=float)
    try:
        step_limits: dict = {}
        start_gmin = 1e-2 * 10.0 ** min(attempt, 2)
        rungs = 11 + 4 * min(attempt, 5)
        target_gmin = gmin if gmin > 0 else 1e-12
        relax_gmins = list(np.geomspace(start_gmin, target_gmin, rungs))
        for step_gmin in relax_gmins:
            x = newton_solve(
                circuit, x, tolerances, step_gmin, limits=step_limits,
                engine=engine, rhs_delta=rhs_delta,
            )
        if relax_gmins[-1] != gmin:
            x = newton_solve(
                circuit, x, tolerances, gmin, limits=step_limits,
                engine=engine, rhs_delta=rhs_delta,
            )
        limits.update(step_limits)
        return x
    except ConvergenceError as exc:
        history.append(f"gmin stepping: {exc}")
        if exc.report is not None:
            exc.report.stage = "gmin_stepping"

    # Source stepping: ramp all independent sources from zero.
    x = np.zeros(circuit.num_unknowns)
    step_limits = {}
    scale = 0.0
    step = 0.1
    failures = 0
    while scale < 1.0:
        target = min(scale + step, 1.0)
        try:
            x = newton_solve(
                circuit, x, tolerances, gmin,
                source_scale=target, limits=step_limits, engine=engine,
                rhs_delta=rhs_delta,
            )
            scale = target
            step = min(step * 1.5, 0.25)
        except ConvergenceError as exc:
            failures += 1
            step /= 4.0
            if failures > 40 or step < 1e-6:
                history.append(f"source stepping: {exc}")
                report = replace(
                    exc.report or ConvergenceReport(),
                    stage="source_stepping",
                    history=history,
                )
                raise ConvergenceError(
                    "DC operating point: Newton, gmin stepping and source "
                    f"stepping all failed ({report.summary()})",
                    report=report,
                ) from None
    limits.update(step_limits)
    return x


def newton_solve_batched(
    circuit: Circuit,
    x0: np.ndarray,
    tolerances: Tolerances,
    gmin: float,
    source_scale: float = 1.0,
    rhs_deltas=None,
    engine=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton iterations over a ``(B, n)`` stack of operating points.

    Every lane runs the **same iteration protocol** as
    :func:`newton_solve` — identical assembly, identical
    :data:`DIAG_GSHUNT` regularization, identical per-backend linear
    solves (:meth:`~repro.spice.engine.LinearSolver.solve_batched_exact`
    or, for constant-Jacobian circuits, the same token-cached
    factorization the scalar path reuses), identical weighted-error
    convergence test — so a converged lane is bit-identical to a scalar
    :func:`newton_solve` on that point.  The blocking win is per-point
    convergence masking (finished lanes drop out of the stack) and array
    operations over every active lane per iteration — re-bias,
    regularization, finiteness mask, update and error test — instead of
    ``B`` of each.

    ``rhs_deltas``, when given, is a per-lane sequence of residual
    offsets (entries may be ``None``); see :func:`newton_solve`.

    Every iteration assembles the active lanes in one
    :meth:`~repro.spice.engine.CompiledCircuit.evaluate_stacked` pass,
    which raises :class:`~repro.errors.AnalysisError` on a circuit with
    a diode; :func:`solve_dc_batched` sends such circuits down the
    scalar ladder instead.  Each lane carries its own ``pnjlim``
    history, as a fresh ``limits`` dict would in the scalar path, held
    as one ``(B, 2, n)`` array
    (:meth:`~repro.spice.engine.CompiledCircuit.new_history`) that every
    stacked assembly reads and rewrites for the active lanes.

    Returns ``(x, converged)``: the ``(B, n)`` solution stack and a
    boolean mask.  Lanes that hit a singular Jacobian, a non-finite step
    or the iteration budget come back unconverged with their last
    iterate — callers escalate them through the scalar homotopy ladder
    (:func:`solve_dc_batched`), which reproduces the identical failure
    trajectory and forensics.
    """
    engine = resolve_engine(circuit, engine)
    num_nodes = engine.num_nodes
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError("newton_solve_batched expects a (B, n) stack")
    batch, size = x.shape
    diag = np.arange(num_nodes)
    converged = np.zeros(batch, dtype=bool)
    # Source re-biases, stacked once.  Lanes without one get no add at
    # all: ``+= 0.0`` would turn a -0.0 residual entry into +0.0, which
    # the scalar path never does.
    has_delta = np.zeros(batch, dtype=bool)
    deltas = np.zeros((batch, size))
    for k, delta in enumerate(rhs_deltas if rhs_deltas is not None else ()):
        if delta is not None:
            has_delta[k] = True
            deltas[k] = delta
    if source_scale != 1.0:
        deltas *= source_scale
    # Sparse-assembly engines keep per-lane Jacobians as flat value
    # vectors over the compiled pattern — (B, nnz) instead of (B, n, n)
    # — and solve each lane through the identical pattern-wrapped path
    # the scalar Newton uses, so lanes stay bit-identical to solve_dc.
    pattern = engine.pattern if engine.assembly == "sparse" else None
    diag_pos = pattern.positions(diag, diag) if pattern is not None else None
    # One stacked pass assembles every active lane — the scalar device
    # kernel with a lane axis, so residuals and Jacobians stay
    # bit-identical to a scalar evaluate per lane.
    history = engine.new_history(batch)
    active = np.arange(batch)
    for _iteration in range(tolerances.max_iterations):
        if active.size == 0:
            break
        xa = x[active]
        lane_history = history[active]
        sctx = engine.evaluate_stacked(
            xa, gmin=gmin, history=lane_history, source_scale=source_scale,
        )
        history[active] = lane_history
        res, jac = sctx.i, sctx.g
        # The scalar iteration's regularization, in its order, on every
        # active lane at once: re-bias, Jacobian diagonal, residual.
        rebias = has_delta[active]
        if rebias.any():
            res[rebias] += deltas[active[rebias]]
        if pattern is not None:
            jac[:, diag_pos] += DIAG_GSHUNT
        else:
            jac[:, diag, diag] += DIAG_GSHUNT
        res[:, :num_nodes] += DIAG_GSHUNT * xa[:, :num_nodes]
        if engine.has_constant_jacobian:
            # The scalar path factorizes this (lane-independent) matrix
            # once under the ("dc",) token and back-substitutes for every
            # later point; reuse the very same cached factorization.
            dx = np.empty((active.size, size))
            for j in range(active.size):
                try:
                    if engine.has_factorization(("dc",)):
                        dx[j] = engine.solve_cached(-res[j])
                    else:
                        system = (pattern.matrix(jac[j])
                                  if pattern is not None else jac[j])
                        dx[j] = engine.solve(system, -res[j], token=("dc",))
                except np.linalg.LinAlgError:
                    dx[j] = np.nan
        else:
            dx = engine.solve_batched_exact(jac, -res)
        # A singular or non-finite step ends its lane unconverged.
        finite = np.isfinite(dx).all(axis=1)
        stepped = active[finite]
        if stepped.size == 0:
            break
        step = dx[finite]
        x[stepped] += step
        # Vectorized convergence masking: one weighted-error evaluation
        # over every lane that stepped, elementwise-identical to the
        # scalar test (which recomputes the pre-step iterate as x - dx).
        xs = x[stepped]
        scale = tolerances.reltol * np.maximum(np.abs(xs - step), np.abs(xs))
        scale[:, :num_nodes] += tolerances.vntol
        scale[:, num_nodes:] += tolerances.abstol
        done = np.max(np.abs(step) / scale, axis=1) <= 1.0
        converged[stepped[done]] = True
        active = stepped[~done]
    return x, converged


def solve_dc_batched(
    circuit: Circuit,
    rhs_deltas,
    x0: np.ndarray | None = None,
    tolerances: Tolerances | None = None,
    gmin: float = 1e-12,
    engine=None,
    attempt: int = 0,
) -> tuple[np.ndarray, list]:
    """Blocked DC operating points: one batched Newton, scalar escalation.

    ``rhs_deltas`` is a per-lane sequence of residual offsets (entries
    may be ``None``) — one operating point per lane, typically source
    re-biases from a sweep (:class:`repro.sweep.batched.BlockedDCSweep`).

    Stage 1 runs every lane through :func:`newton_solve_batched`.  Lanes
    that converge there are done — bit-identical to what scalar
    :func:`solve_dc` would have produced, because its first ladder rung
    is exactly this Newton run.  Lanes that do not are re-solved with
    scalar :func:`solve_dc`, re-living the identical Newton failure and
    then the identical gmin/source-stepping homotopies, so values,
    :class:`~repro.errors.ConvergenceError` messages and
    :class:`~repro.errors.ConvergenceReport` forensics all match the
    scalar path lane for lane.  An engine without stacked evaluation
    (:attr:`~repro.spice.engine.CompiledCircuit.supports_stacked_evaluate`
    is false: the circuit has a diode) skips stage 1: every lane is
    solved with scalar :func:`solve_dc`.

    Returns ``(x, errors)``: the ``(B, n)`` solution stack and a
    per-lane list of ``None`` (success) or the lane's
    :class:`~repro.errors.ConvergenceError`.

    With ``attempt > 0`` (a sweep retry) the blocked stage is skipped
    outright: the retry contract is scalar ``solve_dc(attempt=k)`` with
    its perturbed guess and heavier ladder, applied per failing lane.
    """
    circuit.assign_indices()
    engine = resolve_engine(circuit, engine)
    if tolerances is None:
        tolerances = Tolerances()
    batch = len(rhs_deltas)
    size = circuit.num_unknowns
    if x0 is None:
        x0 = np.zeros(size)
    x0 = np.asarray(x0, dtype=float)
    stack = np.broadcast_to(x0, (batch, size)) if x0.ndim == 1 else x0
    errors: list = [None] * batch
    if attempt == 0 and engine.supports_stacked_evaluate:
        x, converged = newton_solve_batched(
            circuit, stack, tolerances, gmin,
            rhs_deltas=rhs_deltas, engine=engine,
        )
    else:
        x = np.array(stack, dtype=float)
        converged = np.zeros(batch, dtype=bool)
    for k in np.flatnonzero(~converged):
        try:
            x[k] = solve_dc(
                circuit, x0=np.array(x0 if x0.ndim == 1 else x0[k]),
                tolerances=tolerances, gmin=gmin, engine=engine,
                attempt=attempt, rhs_delta=rhs_deltas[k],
            )
        except ConvergenceError as exc:
            errors[k] = exc
            x[k] = np.nan
    return x, errors
