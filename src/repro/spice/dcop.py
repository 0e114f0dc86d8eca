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


def weighted_error(
    delta: np.ndarray,
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    reltol: float,
    atol,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Per-unknown ``|delta|`` in units of the per-unknown tolerance
    ``reltol * max(|ref_a|, |ref_b|) + atol``; a step passes where every
    entry is at most 1.

    The one step-size test: Newton's (scalar and stacked) and the
    transient local-truncation-error estimate.  ``atol`` is a per-unknown
    tolerance vector (:meth:`~repro.spice.engine.CompiledCircuit.
    tolerance_vector`) or one value for every unknown; the arrays may
    carry any leading lane axes.  The result is written to ``out`` and
    the tolerance to ``work`` (fresh arrays when ``None``); ``work`` may
    be ``ref_a`` itself, and neither may alias another input.
    """
    scale = np.abs(ref_a, out=work)
    np.maximum(scale, np.abs(ref_b, out=out), out=scale)
    scale *= reltol
    scale += atol
    error = np.abs(delta, out=out)
    error /= scale
    return error


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


class Integration:
    """A transient step's integration history, as :func:`newton_solve`
    adds it to the residual: ``alpha (Q(x) - q_prev)``, less
    ``qdot_prev`` under the trapezoidal rule (``trap``), with ``alpha``
    ``1/h`` (backward Euler) or ``2/h``.

    The transient keeps one and updates it in place from step to step.
    """

    __slots__ = ("alpha", "q_prev", "qdot_prev", "trap")

    def __init__(self, alpha: float, q_prev: np.ndarray,
                 qdot_prev: np.ndarray, trap: bool):
        self.alpha = alpha
        self.q_prev = q_prev
        self.qdot_prev = qdot_prev
        self.trap = trap


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
    integration: Integration | None = None,
    engine=None,
    jacobian_token=None,
    return_context=False,
    stamps=None,
):
    """Run Newton iterations on F(x) = I(x) [+ dynamic terms] until converged.

    ``integration``, when given, is a transient step's
    :class:`Integration`, whose term the residual adds at every
    iteration.  ``engine`` selects the evaluation engine (see
    :func:`repro.spice.engine.resolve_engine`).

    Without a ``jacobian_token`` every iteration factorizes its own
    Jacobian (full Newton); a transient step then adds ``alpha * C`` to
    it.  A ``jacobian_token`` turns on chord
    (Newton-Richardson) iteration, the one user of factorization reuse:
    the Jacobian factorized under the token is kept across iterations
    *and* across calls carrying the same token, while the weighted error
    must contract by :data:`CHORD_CONTRACTION` per chord step —
    otherwise the factorization is declared stale and rebuilt.  If the
    chord loop exhausts the iteration budget it falls back to one
    full-Newton pass, which keeps no factorization, before raising.
    A chord transient step has the engine assemble ``G + alpha*C``
    directly (``evaluate``'s ``jac_alpha``).

    ``return_context=True`` returns ``(x, ctx)`` where ``ctx`` is a
    :class:`~repro.spice.mna.LoadContext` holding the charges at the
    converged solution — transient analysis reads its charge vector
    instead of re-assembling.  Full Newton evaluates them there; a
    chord run replays the last evaluation's charges, linearized to the
    converged point.  Raises :class:`~repro.errors.ConvergenceError` if
    the iteration limit is hit or the Jacobian goes singular.

    ``stamps``, one lane of :class:`~repro.spice.engine.LaneStamps`,
    solves that lane's circuit variant (its temperature, its passive
    values, its DC source levels) on the engine (see
    ``CompiledCircuit.evaluate``).

    A step converges when it passes the weighted step-size test and the
    evaluation it was solved from limited no junction (SPICE's rule): a
    small step from a limited evaluation is pnjlim's, not Newton's.

    Every iteration is a fixed sequence of in-place calls over the
    engine's buffers (:attr:`~repro.spice.engine.CompiledCircuit.
    buffers`); only the solution and the solver's step are new arrays.
    """
    engine = resolve_engine(circuit, engine)
    evaluate = engine.evaluate
    solver = engine.solver
    num_nodes = engine.num_nodes
    x = np.array(x0, dtype=float)
    x_nodes = x[:num_nodes]
    if limits is None:
        limits = {}
    buffers = engine.buffers
    rhs, term, scale, error = (buffers.rhs, buffers.term, buffers.scale,
                               buffers.error)
    jacobian_data = engine.jacobian_data
    diag_pos = engine.node_diagonal
    reltol = tolerances.reltol
    atol = engine.tolerance_vector(tolerances.vntol, tolerances.abstol)
    full_newton = jacobian_token is None
    jac_alpha = None
    if integration is not None and not full_newton:
        jac_alpha = integration.alpha
    # The chord loop gets the normal budget; the full-Newton fallback the
    # same again, so a stale-Jacobian stall can never mask a solvable step.
    max_iterations = tolerances.max_iterations * (1 if full_newton else 2)
    refactor_next = False
    last_error = math.nan
    prev_error = math.inf
    worst = -1
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not full_newton and iterations > tolerances.max_iterations:
            # Chord budget exhausted: refactorize every iteration from
            # here on.
            full_newton = True
            solver.invalidate()
        use_cached = (
            not full_newton
            and not refactor_next
            and solver.has_factorization(jacobian_token)
        )
        ctx = evaluate(
            x, time=time, gmin=gmin, limits=limits,
            source_scale=source_scale, jac_alpha=jac_alpha,
            # A chord-reuse iteration never reads the Jacobian, so skip
            # its dense assembly entirely.
            residual_only=use_cached, stamps=stamps,
        )
        # The context arrays are engine-owned buffers, free to mutate:
        # the next evaluation rebuilds them.
        residual = ctx.i_vec
        if integration is not None:
            np.subtract(ctx.q_vec, integration.q_prev, out=term)
            term *= integration.alpha
            if integration.trap:
                term -= integration.qdot_prev
            residual += term
            if jac_alpha is None:
                ctx.g_mat += integration.alpha * ctx.c_mat
        if not use_cached:
            jacobian_data[diag_pos] += DIAG_GSHUNT
        residual[:num_nodes] += np.multiply(x_nodes, DIAG_GSHUNT,
                                            out=term[:num_nodes])
        np.negative(residual, out=rhs)
        try:
            if use_cached:
                dx = solver.solve_cached(rhs)
            else:
                dx = solver.solve(
                    ctx.g_mat, rhs,
                    token=None if full_newton else jacobian_token,
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
        if not np.isfinite(dx).all():
            if use_cached:
                # A stale factorization produced garbage — rebuild it and
                # retry this iteration instead of failing outright.
                solver.invalidate()
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
        # The test recomputes the pre-step iterate as x - dx.
        errors = weighted_error(dx, np.subtract(x, dx, out=scale), x,
                                reltol, atol, out=error, work=scale)
        worst = int(errors.argmax())
        last_error = float(errors[worst])
        if last_error <= 1.0 and not ctx.limited:
            if not return_context:
                return x
            # Hand back a context assembled at the converged point.  The
            # charge vector feeds the integrator's history, where any
            # final-iterate offset would be amplified by 1/h and ring
            # through the trapezoidal rule — so this is never skipped.
            # A chord run replays the last evaluation's charges,
            # linearized to the converged x (second-order accurate in
            # the final Newton step), and assembles only the charge
            # vector, since the integrator's accept path reads nothing
            # else.  Full Newton re-evaluates every device, matching the
            # seed's post-accept re-evaluation stamp for stamp.
            ctx = evaluate(
                x, time=time, gmin=gmin, limits=limits,
                source_scale=source_scale, charges_only=not full_newton,
                stamps=stamps,
            )
            return x, ctx
        if use_cached and last_error >= prev_error * CHORD_CONTRACTION:
            # The frozen Jacobian is no longer contracting the error —
            # refactorize at the next iteration.
            solver.invalidate()
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
    stamps=None,
) -> np.ndarray:
    """DC operating point with the full homotopy ladder.

    Every rung runs full Newton (:func:`newton_solve` without a
    ``jacobian_token``): each iteration factorizes its own Jacobian and
    keeps nothing for later solves.  Returns the solution vector (node
    voltages then branch currents).
    On failure raises :class:`~repro.errors.ConvergenceError` carrying a
    :class:`~repro.errors.ConvergenceReport` whose ``stage`` records the
    last homotopy rung attempted and whose ``history`` lists every rung
    that failed before it.

    ``attempt`` is the retry ladder hook used by fault-tolerant sweeps
    (see :func:`repro.sweep.run_sweep`): attempt ``k > 0`` starts from a
    deterministically perturbed initial guess
    (:func:`retry_perturbation`) and walks a longer, heavier gmin
    ladder.  The converged solution is unchanged — only the path to it.

    ``stamps`` (see :func:`newton_solve`) ride through every homotopy
    stage; source stepping scales their source levels.
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
            engine=engine, stamps=stamps,
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
                engine=engine, stamps=stamps,
            )
        if relax_gmins[-1] != gmin:
            x = newton_solve(
                circuit, x, tolerances, gmin, limits=step_limits,
                engine=engine, stamps=stamps,
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
                stamps=stamps,
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
    engine=None,
    lanes=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton iterations over a ``(B, n)`` stack of operating points.

    Every lane runs the **same iteration protocol** as a full-Newton
    :func:`newton_solve` (no ``jacobian_token``) — identical assembly,
    identical :data:`DIAG_GSHUNT` regularization, identical per-backend
    linear solves (every lane factorized by
    :meth:`~repro.spice.engine.LinearSolver.solve_batched_exact`, the
    scalar ``solve``'s arithmetic), identical convergence test and
    limiting rule — so a converged lane is bit-identical to a scalar
    :func:`newton_solve` on that point.  The blocking win is per-point
    convergence masking (finished lanes drop out of the stack) and array
    operations over every active lane per iteration — regularization,
    finiteness mask, update and error test — instead of ``B`` of each.

    ``lanes``, when given, is one lane of
    :class:`~repro.spice.engine.LaneStamps` per point: each lane then
    solves its own circuit variant (its temperature, its passive
    values, its DC source levels) on the one engine, bit-identical to a
    scalar :func:`newton_solve` under that lane's ``stamps``.  By
    default every lane solves the engine's own circuit.

    Every iteration assembles the active lanes in one
    :meth:`~repro.spice.engine.CompiledCircuit.evaluate_stacked` pass.
    Each lane carries its own ``pnjlim`` history, as a fresh ``limits``
    dict would in the scalar path, held as one ``(B, 2, n)`` array
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
    batch = x.shape[0]
    diag = np.arange(num_nodes)
    converged = np.zeros(batch, dtype=bool)
    # Sparse-assembly engines keep per-lane Jacobians as flat value
    # vectors over the compiled pattern — (B, nnz) instead of (B, n, n)
    # — and solve each lane through the identical pattern-wrapped path
    # the scalar Newton uses, so lanes stay bit-identical to solve_dc.
    solver = engine.solver
    pattern = engine.pattern if engine.assembly == "sparse" else None
    diag_pos = engine.node_diagonal
    atol = engine.tolerance_vector(tolerances.vntol, tolerances.abstol)
    # One stacked pass assembles every active lane — the scalar device
    # kernels with a lane axis, so residuals and Jacobians stay
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
            lanes=(lanes if lanes is None or active.size == batch
                   else lanes.take(active)),
        )
        history[active] = lane_history
        res, jac = sctx.i, sctx.g
        # The scalar iteration's regularization, in its order, on every
        # active lane at once: Jacobian diagonal, then residual.
        if pattern is not None:
            jac[:, diag_pos] += DIAG_GSHUNT
        else:
            jac[:, diag, diag] += DIAG_GSHUNT
        res[:, :num_nodes] += DIAG_GSHUNT * xa[:, :num_nodes]
        systems = ([pattern.matrix(values) for values in jac]
                   if pattern is not None else jac)
        dx = solver.solve_batched_exact(systems, -res)
        # A singular or non-finite step ends its lane unconverged.
        finite = np.isfinite(dx).all(axis=1)
        stepped = active[finite]
        if stepped.size == 0:
            break
        step = dx[finite]
        x[stepped] += step
        # Vectorized convergence masking: the scalar step-size test
        # over every lane that stepped, and the scalar limiting rule per
        # lane.
        xs = x[stepped]
        errors = weighted_error(step, xs - step, xs, tolerances.reltol, atol)
        done = (errors.max(axis=-1) <= 1.0) & ~sctx.limited[finite]
        converged[stepped[done]] = True
        active = stepped[~done]
    return x, converged


def solve_dc_batched(
    circuit: Circuit,
    lanes,
    tolerances: Tolerances | None = None,
    gmin: float = 1e-12,
    engine=None,
) -> tuple[np.ndarray, list]:
    """Blocked DC operating points: one batched Newton, scalar escalation.

    ``lanes`` is :class:`~repro.spice.engine.LaneStamps` on the one
    engine, one operating point per lane: its circuit variant and
    source levels (see :func:`newton_solve_batched`).

    Stage 1 runs every lane from zero through
    :func:`newton_solve_batched`.  Lanes that converge there are done —
    bit-identical to what scalar :func:`solve_dc` would have produced,
    because its first ladder rung is exactly this Newton run.  Lanes
    that do not are re-solved with scalar :func:`solve_dc` on the same
    engine under the lane's own stamps, re-living the identical Newton
    failure and then the identical gmin/source-stepping homotopies, so
    values, :class:`~repro.errors.ConvergenceError` messages and
    :class:`~repro.errors.ConvergenceReport` forensics all match the
    scalar path lane for lane.

    Returns ``(x, errors)``: the ``(B, n)`` solution stack and a
    per-lane list of ``None`` (success) or the lane's
    :class:`~repro.errors.ConvergenceError`.
    """
    circuit.assign_indices()
    engine = resolve_engine(circuit, engine)
    if tolerances is None:
        tolerances = Tolerances()
    errors: list = [None] * len(lanes)
    x, converged = newton_solve_batched(
        circuit, np.zeros((len(lanes), circuit.num_unknowns)), tolerances,
        gmin, engine=engine, lanes=lanes)
    for k in np.flatnonzero(~converged):
        try:
            x[k] = solve_dc(circuit, tolerances=tolerances, gmin=gmin,
                            engine=engine, stamps=lanes.take([k]))
        except ConvergenceError as exc:
            errors[k] = exc
            x[k] = np.nan
    return x, errors
