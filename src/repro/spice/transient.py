"""Transient analysis: trapezoidal/backward-Euler integration with
predictor-corrector step control.

The charge-oriented system ``I(x) + dQ(x)/dt = 0`` is discretized with

* backward Euler for the first step (and after discontinuities), and
* the trapezoidal rule otherwise:

    trap:  dQ/dt |n+1  =  (2/h) (Q(x_{n+1}) - Q_n) - Qdot_n
    BE:    dQ/dt |n+1  =  (Q(x_{n+1}) - Q_n) / h

Local error is estimated from the difference between a quadratic
predictor through the last accepted points and the Newton corrector;
steps shrink/grow by a cubic-root rule and land exactly on source
breakpoints (pulse edges, PWL corners).  At each breakpoint the
integration restarts: backward Euler for the next step *and* a cleared
predictor history, so the polynomial predictor never extrapolates across
a waveform corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import (
    AnalysisError,
    ConvergenceError,
    ConvergenceReport,
    NetlistError,
)
from .dcop import Tolerances, newton_solve, solve_dc, weighted_max_error
from .engine import EngineStats, resolve_engine
from .netlist import Circuit


@dataclass
class TransientResult:
    """Time sweep result."""

    circuit: Circuit
    times: np.ndarray
    states: np.ndarray  #: shape (num_points, num_unknowns)
    rejected_steps: int = 0
    newton_failures: int = 0
    #: Engine work performed by this analysis (None for results built
    #: outside solve_transient, e.g. in tests).
    stats: EngineStats | None = None

    def voltage(self, node: str) -> np.ndarray:
        try:
            index = self.circuit.node_index(node)
        except NetlistError as exc:
            known = ", ".join(self.circuit.nodes())
            raise AnalysisError(
                f"transient result has no node {node!r}; "
                f"known nodes: {known}"
            ) from exc
        if index < 0:  # ground is identically 0 V
            return np.zeros(len(self.times))
        return self.states[:, index]

    def differential(self, node_p: str, node_n: str) -> np.ndarray:
        return self.voltage(node_p) - self.voltage(node_n)

    def branch_current(self, element_name: str, branch: int = 0) -> np.ndarray:
        try:
            index = self.circuit.branch_index(element_name, branch)
        except NetlistError as exc:
            known = ", ".join(self.circuit.branch_elements()) or "none"
            raise AnalysisError(
                f"transient result has no branch current for "
                f"{element_name!r} (branch {branch}); elements with "
                f"branch unknowns: {known}"
            ) from exc
        return self.states[:, index]

    def sample(self, node: str, time: float) -> float:
        """Linearly interpolated node voltage at one time."""
        return float(np.interp(time, self.times, self.voltage(node)))


def _collect_breakpoints(
    circuit: Circuit, stop_time: float, min_separation: float = 0.0
) -> list[float]:
    """Sorted source breakpoints, merged to at least ``min_separation``.

    Two sources can contribute breakpoints closer than the minimum step
    (e.g. coincident pulse edges); keeping both would force a near-zero
    ``h = next_bp - t`` step, so later points within ``min_separation``
    of an earlier one are dropped.
    """
    points: set[float] = set()
    for element in circuit:
        getter = getattr(element, "breakpoints", None)
        if getter is not None:
            points.update(getter(stop_time))
    ordered = sorted(points)
    if min_separation <= 0.0:
        return ordered
    merged: list[float] = []
    for point in ordered:
        if merged and point - merged[-1] < min_separation:
            continue
        merged.append(point)
    # A trailing breakpoint just short of stop_time would likewise leave
    # a sliver of a final step once stop_time is appended by the caller.
    while merged and merged[-1] > stop_time - min_separation:
        merged.pop()
    return merged


#: Default device-bypass voltage tolerance for the transient hot path.
#: BJTs whose terminal voltages all moved less than this between
#: Newton evaluations replay their cached stamps, extrapolated to the
#: current solution with the cached Jacobians (see
#: :meth:`repro.spice.engine.CompiledCircuit.evaluate`); the replay
#: error is second order in this tolerance.
DEFAULT_BYPASS_TOL = 1e-3

#: Maximum relative drift of ``alpha = 1/h`` (or ``2/h``) tolerated
#: before a chord-Newton jacobian token is re-anchored.  Within the
#: window, steps share one factorization even though the continuous step
#: controller varies h slightly; the frozen Jacobian is then wrong by up
#: to ~10% in its capacitive part, which slows the chord contraction a
#: little but stays inside what the contraction watch tolerates before
#: forcing a refactorization.
_ALPHA_DRIFT = 0.1

#: Step-controller deadband (chord mode only): hold the step size when
#: the proposed change factor falls inside [lo, hi].  The band only
#: covers factors whose LTE is at or below target, so holding never
#: runs above the error budget; a steady h keeps the chord token fixed
#: so factorizations survive across steps.
_DEADBAND_LO = 0.9
_DEADBAND_HI = 1.25


def solve_transient(
    circuit: Circuit,
    stop_time: float,
    max_step: float | None = None,
    initial_step: float | None = None,
    x0: np.ndarray | None = None,
    method: str = "trap",
    tolerances: Tolerances | None = None,
    gmin: float = 1e-12,
    lte_reltol: float = 1e-3,
    lte_abstol: float = 1e-6,
    max_points: int = 2_000_000,
    engine=None,
    bypass_tol: float | None = None,
    chord: bool | None = None,
) -> TransientResult:
    """Integrate the circuit from t=0 to ``stop_time``.

    ``x0`` provides initial conditions; when omitted the DC operating
    point at t=0 is used.  ``method`` is ``"trap"`` (default) or ``"be"``.

    ``bypass_tol`` and ``chord`` control the transient hot path: device
    bypass (skip re-evaluating devices whose voltages barely moved) and
    chord-Newton (reuse the factorized Jacobian across iterations and
    steps sharing a token).  Both default on (``bypass_tol=None`` means
    :data:`DEFAULT_BYPASS_TOL`); pass ``bypass_tol=0`` and
    ``chord=False`` to force the exact reference stepping path.
    """
    if stop_time <= 0:
        raise AnalysisError("transient stop_time must be positive")
    if max_step is not None and max_step <= 0:
        raise AnalysisError(
            f"transient max_step must be positive, got {max_step!r}"
        )
    if initial_step is not None and initial_step <= 0:
        raise AnalysisError(
            f"transient initial_step must be positive, got {initial_step!r}"
        )
    if lte_reltol <= 0:
        raise AnalysisError(
            f"transient lte_reltol must be positive, got {lte_reltol!r}"
        )
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown integration method {method!r}")
    if bypass_tol is None:
        bypass_tol = DEFAULT_BYPASS_TOL
    elif bypass_tol < 0:
        raise AnalysisError(
            f"transient bypass_tol must be non-negative, got {bypass_tol!r}"
        )
    if chord is None:
        chord = True
    circuit.assign_indices()
    engine = resolve_engine(circuit, engine)
    with engine.measured() as stats:
        result = _solve_transient(
            circuit, engine, stop_time, max_step, initial_step, x0,
            method, tolerances, gmin, lte_reltol, lte_abstol, max_points,
            bypass_tol, chord,
        )
    result.stats = stats
    return result


def _solve_transient(
    circuit, engine, stop_time, max_step, initial_step, x0,
    method, tolerances, gmin, lte_reltol, lte_abstol, max_points,
    bypass_tol, chord,
) -> TransientResult:
    if tolerances is None:
        tolerances = Tolerances()
    if max_step is None:
        max_step = stop_time / 50.0
    if initial_step is None:
        initial_step = max_step / 10.0
    num_nodes = engine.num_nodes

    # Hot-path mode keeps one canonical limits dict for the whole run
    # (saved/restored around rejected steps) so the device-bypass cache,
    # which is keyed on dict identity, survives from step to step.  The
    # reference mode copies the dict per step exactly like the seed code.
    # Hot mode also fuses G + alpha*C into one assembly pass inside the
    # engine; the integrator callback then touches only the residual.
    hot = chord or bypass_tol > 0.0

    limits: dict = {}
    if x0 is None:
        x = solve_dc(circuit, gmin=gmin, limits=limits, engine=engine)
    else:
        x = np.array(x0, dtype=float)

    ctx0 = engine.evaluate(x, time=0.0, gmin=gmin, limits=dict(limits))
    q_prev = ctx0.q_vec.copy()
    qdot_prev = np.zeros_like(q_prev)
    # Accept-path scratch (hot mode): charges are copied out of the
    # engine-owned context buffers into these, then ping-ponged into
    # q_prev/qdot_prev, so the accept path allocates nothing per step.
    q_scratch = np.empty_like(q_prev)
    qdot_scratch = np.empty_like(q_prev)

    min_step = stop_time * 1e-15
    breakpoints = _collect_breakpoints(circuit, stop_time, min_step)
    breakpoints.append(stop_time)
    bp_iter = iter(breakpoints)
    next_bp = next(bp_iter)

    # Amortized-doubling storage for the accepted trajectory; the
    # predictor reads its (up to 3-point) window straight out of these
    # buffers via ``hist_start`` instead of shuffling a Python list.
    size = len(x)
    capacity = 256
    times = np.empty(capacity)
    states = np.empty((capacity, size))
    times[0] = 0.0
    states[0] = x
    count = 1
    hist_start = 0

    t = 0.0
    h = min(initial_step, max_step)
    use_be_next = True  # first step (no qdot history yet)
    rejected = 0
    newton_failures = 0
    token_anchor = None  # log(alpha) the chord token is anchored at
    token_use_be = None

    while t < stop_time * (1.0 - 1e-12):
        h = min(h, max_step, stop_time - t)
        hit_breakpoint = False
        while next_bp is not None and next_bp <= t * (1 + 1e-12):
            next_bp = next(bp_iter, None)
        if next_bp is not None and t + h >= next_bp - min_step:
            h = next_bp - t
            hit_breakpoint = True
        t_new = t + h

        # Predictor: quadratic extrapolation through the last 3 points.
        x_pred = _predict(times, states, hist_start, count, t_new)

        use_be = use_be_next or method == "be"
        alpha = (1.0 / h) if use_be else (2.0 / h)

        if hot:
            # The engine already assembled jacobian = G + alpha*C.
            def dynamic(ctx, residual, jacobian):
                qdot = alpha * (ctx.q_vec - q_prev)
                if not use_be:
                    qdot -= qdot_prev
                residual += qdot

            step_limits = limits
            saved_limits = dict(limits)
        else:
            def dynamic(ctx, residual, jacobian):
                qdot = alpha * (ctx.q_vec - q_prev)
                if not use_be:
                    qdot -= qdot_prev
                residual += qdot
                jacobian += alpha * ctx.c_mat

            step_limits = dict(limits)
        try:
            if chord:
                # Hysteresis: keep the token anchored at the alpha the
                # jacobian was last factorized for until the controller
                # drifts the step size too far from it.
                log_alpha = math.log(alpha)
                if (
                    token_anchor is None
                    or token_use_be != use_be
                    or abs(log_alpha - token_anchor) > _ALPHA_DRIFT
                ):
                    token_anchor = log_alpha
                    token_use_be = use_be
                token = ("tran", use_be, token_anchor)
            else:
                token = ("tran", use_be, alpha)
            x_new, ctx = newton_solve(
                circuit, x_pred, tolerances, gmin,
                time=t_new, limits=step_limits, dynamic=dynamic,
                engine=engine, jacobian_token=token,
                chord=chord, bypass_tol=bypass_tol,
                jac_alpha=alpha if hot else None,
                return_context=True,
            )
        except ConvergenceError as exc:
            newton_failures += 1
            h /= 8.0
            use_be_next = True
            if hot:
                limits.clear()
                limits.update(saved_limits)
            if h < min_step:
                report = replace(
                    exc.report or ConvergenceReport(),
                    stage="transient",
                    time=t_new,
                )
                raise ConvergenceError(
                    f"transient stalled at t={t:.6g}s (step underflow; "
                    f"{newton_failures} Newton failures; "
                    f"{report.summary()})",
                    report=report,
                ) from exc
            continue

        # Local truncation error: corrector vs predictor.
        if count - hist_start >= 3:
            error = weighted_max_error(
                x_new - x_pred, x_new, x, num_nodes,
                lte_reltol, lte_abstol, lte_abstol,
            )
        else:
            error = 0.5  # no history yet: accept and grow slowly
        if error > 10.0 and h > min_step * 8:
            rejected += 1
            if hot:
                limits.clear()
                limits.update(saved_limits)
            h = max(h * (1.0 / error) ** (1.0 / 3.0) * 0.9, h / 8.0)
            continue

        # Accept the step.  ``ctx`` already holds the charges at (or,
        # with bypass/chord on, within Newton tolerance of) x_new — the
        # seed's separate post-accept re-evaluation is gone.
        np.copyto(q_scratch, ctx.q_vec)
        np.subtract(q_scratch, q_prev, out=qdot_scratch)
        qdot_scratch *= alpha
        if not use_be:
            qdot_scratch -= qdot_prev
        q_prev, q_scratch = q_scratch, q_prev
        qdot_prev, qdot_scratch = qdot_scratch, qdot_prev

        t = t_new
        x = x_new
        if not hot:
            limits = step_limits
        if count == capacity:
            capacity *= 2
            new_times = np.empty(capacity)
            new_times[:count] = times
            times = new_times
            new_states = np.empty((capacity, size))
            new_states[:count] = states
            states = new_states
        times[count] = t
        states[count] = x
        count += 1
        if hit_breakpoint:
            # Waveform corner: the solution has a derivative discontinuity
            # here, so restart the predictor from scratch instead of
            # extrapolating a polynomial across it.
            hist_start = count - 1
        if count > max_points:
            raise AnalysisError(
                f"transient produced more than {max_points} points; "
                "increase max_step or loosen tolerances"
            )

        use_be_next = hit_breakpoint  # restart integration after corners
        # Continuous step control (identical to the reference path).
        # Chord-Newton still reuses factorizations across steps because
        # well-resolved transients spend most accepted steps pinned at
        # ``max_step``, where the jacobian token (which embeds 1/h)
        # repeats naturally.
        growth = (1.0 / max(error, 1e-6)) ** (1.0 / 3.0)
        factor = min(max(growth * 0.9, 0.2), 2.0)
        if chord and _DEADBAND_LO <= factor <= _DEADBAND_HI:
            # Deadband: hold the step when the controller asks for less
            # than a ~25% nudge (error is at or below target in this
            # whole band).  A steady h keeps alpha — and with it the
            # chord token — fixed, so the factorization survives across
            # steps instead of being invalidated by step-size jitter.
            factor = 1.0
        h *= factor

    return TransientResult(
        circuit=circuit,
        times=times[:count].copy(),
        states=states[:count].copy(),
        rejected_steps=rejected,
        newton_failures=newton_failures,
    )


def _predict(
    times: np.ndarray,
    states: np.ndarray,
    start: int,
    count: int,
    t_new: float,
) -> np.ndarray:
    """Polynomial extrapolation of the solution to ``t_new``.

    Reads up to the last three accepted points (quadratic Lagrange form)
    from the trajectory buffers, beginning no earlier than ``start`` (the
    predictor restart marker); falls back to lower order early in a
    window.
    """
    avail = count - start
    if avail == 1:
        return states[count - 1].copy()
    if avail == 2:
        t0, t1 = times[count - 2], times[count - 1]
        x0, x1 = states[count - 2], states[count - 1]
        if t1 == t0:
            return x1.copy()
        frac = (t_new - t1) / (t1 - t0)
        return x1 + frac * (x1 - x0)
    t0, t1, t2 = times[count - 3], times[count - 2], times[count - 1]
    x0, x1, x2 = states[count - 3], states[count - 2], states[count - 1]
    l0 = (t_new - t1) * (t_new - t2) / ((t0 - t1) * (t0 - t2))
    l1 = (t_new - t0) * (t_new - t2) / ((t1 - t0) * (t1 - t2))
    l2 = (t_new - t0) * (t_new - t1) / ((t2 - t0) * (t2 - t1))
    return l0 * x0 + l1 * x1 + l2 * x2
