"""AC small-signal analysis.

Linearizes the circuit at a DC operating point and solves the complex
system ``(G + j*omega*C) dx = b`` per frequency, where ``G = dI/dx`` and
``C = dQ/dx`` are the Jacobians delivered by the element loads at the
operating point, and ``b`` collects the AC stimuli of the independent
sources.

The solve core is lane-aware: :func:`solve_ac_lanes` takes a *stack* of
(G, C) pairs — one lane per operating point — and solves every
``lane x frequency`` combination through one unified block iterator, so
a blocked parameter sweep (:class:`repro.sweep.batched.BlockedACSweep`)
and a plain single-point AC analysis share the exact same arithmetic.
Blocking only partitions *which* systems go into each batched call;
each system is formed elementwise and solved independently, so results
are bit-identical regardless of lane count or block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from .dcop import Tolerances, solve_dc
from .elements.sources import CurrentSource, VoltageSource
from .engine import EngineStats, resolve_engine
from .netlist import Circuit


@dataclass
class ACResult:
    """Frequency sweep result: complex solution per frequency."""

    circuit: Circuit
    frequencies: np.ndarray
    solutions: np.ndarray  #: shape (num_freqs, num_unknowns), complex
    dc_solution: np.ndarray
    #: Engine work performed by this analysis.
    stats: EngineStats | None = None

    def voltage(self, node: str) -> np.ndarray:
        """Complex node voltage over the sweep."""
        index = self.circuit.node_index(node)
        if index < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.solutions[:, index]

    def voltage_db(self, node: str) -> np.ndarray:
        """Node voltage magnitude in dB (20*log10)."""
        magnitude = np.abs(self.voltage(node))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-300))

    def voltage_phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.voltage(node)))

    def branch_current(self, element_name: str) -> np.ndarray:
        index = self.circuit.branch_index(element_name)
        return self.solutions[:, index]


def frequency_grid(
    start: float, stop: float, points: int, sweep: str = "dec"
) -> np.ndarray:
    """Build an AC sweep grid: 'dec' (points/decade), 'lin', or 'oct'."""
    if start <= 0 or stop < start:
        raise AnalysisError(f"bad AC sweep range [{start}, {stop}]")
    if points < 1:
        raise AnalysisError("AC sweep needs at least one point")
    if sweep == "lin":
        return np.linspace(start, stop, points)
    if sweep == "dec":
        decades = np.log10(stop / start)
        count = max(int(np.ceil(decades * points)) + 1, 2) if stop > start else 1
        return np.geomspace(start, stop, count)
    if sweep == "oct":
        octaves = np.log2(stop / start)
        count = max(int(np.ceil(octaves * points)) + 1, 2) if stop > start else 1
        return np.geomspace(start, stop, count)
    raise AnalysisError(f"unknown sweep type {sweep!r}")


#: Memory budget for one stacked block (bytes): blocks are sized so
#: ``systems * per_system_bytes`` stays below.  It bounds the complex
#: frequency blocks here and the deck evaluators' Newton lane blocks
#: (:class:`repro.sweep.batched.BlockedDCSweep` and kin), which is what
#: bounds a blocked sweep's memory once it runs as one chunk.  2 MiB was
#: measured against the ``service_mix`` benchmark's peak RSS (see
#: ``docs/simulator.md``): larger budgets bought no speed there and
#: raised the peak by up to 48 %.
MAX_BLOCK_BYTES = 1 << 21


def ac_lane_blocks(lanes: int, freqs: int, per_system_bytes: int,
                   limit: int | None = None) -> tuple[int, int]:
    """``(lane_block, freq_block)`` sizing for the unified block iterator.

    Lanes are packed first — stacking a whole parameter chunk into one
    batched call is the point of blocked sweeps — then as many
    frequencies as the remaining memory budget allows, capped at 512.
    ``per_system_bytes`` is one system's footprint: ``16 * n^2`` for a
    dense complex ``(n, n)`` matrix, ``16 * nnz`` for a flat complex
    value vector over a sparse pattern (``8 *`` for the real Newton
    Jacobians, with ``freqs=1``), so far more sparse systems fit in a
    block.
    """
    budget = max(1, (limit or MAX_BLOCK_BYTES) // max(per_system_bytes, 1))
    lane_block = max(1, min(lanes, budget))
    freq_block = max(1, min(freqs, budget // lane_block, 512))
    return lane_block, freq_block


def ac_stimulus_rhs(circuit: Circuit, size: int) -> np.ndarray:
    """The complex AC excitation vector collected from the deck's
    independent sources.  All-zero when no source carries an AC
    stimulus — callers decide whether that is an error."""
    rhs = np.zeros(size, dtype=complex)
    for element in circuit:
        if isinstance(element, VoltageSource):
            stimulus = element.ac_stimulus()
            if stimulus:
                rhs[element.branch_index[0]] += stimulus
        elif isinstance(element, CurrentSource):
            stimulus = element.ac_stimulus()
            if stimulus:
                p, n = element.node_index
                if p >= 0:
                    rhs[p] -= stimulus
                if n >= 0:
                    rhs[n] += stimulus
    return rhs


def unit_excitation_rhs(element, size: int) -> np.ndarray:
    """The right-hand side of a unit excitation at an independent
    source: 1 on a V source's branch row, or 1 A from an I source's
    ``p`` node to its ``n`` node.  ``.TF`` and ``.NOISE``'s input
    transfer solve against it."""
    rhs = np.zeros(size)
    if isinstance(element, VoltageSource):
        rhs[element.branch_index[0]] = 1.0
    elif isinstance(element, CurrentSource):
        p, n = element.node_index
        if p >= 0:
            rhs[p] -= 1.0
        if n >= 0:
            rhs[n] += 1.0
    else:
        raise AnalysisError(
            f"input source {element.name!r} is not an independent source"
        )
    return rhs


def stack_ac_systems(g_stack: np.ndarray, c_stack: np.ndarray,
                     omegas: np.ndarray) -> np.ndarray:
    """Form ``G_l + j*omega_f*C_l`` for every (lane, frequency) pair.

    ``g_stack``/``c_stack`` are ``(lanes, nnz)`` flat value stacks
    (sparse assembly) or ``(lanes, n, n)`` dense stacks; the result is
    the flattened ``(lanes * freqs, ...)`` system stack, lane-major so
    a reshape recovers ``(lanes, freqs, ...)``.  Pure elementwise
    broadcast arithmetic: identical to forming each system alone.
    """
    g = np.asarray(g_stack)[:, None]
    c = np.asarray(c_stack)[:, None]
    w = np.asarray(omegas, dtype=float)
    w = w.reshape((1, w.size) + (1,) * (g.ndim - 2))
    data = g + 1j * w * c
    return data.reshape((-1,) + data.shape[2:])


def small_signal(engine, x: np.ndarray, gmin: float,
                 limits: dict) -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of ``G`` and ``C`` linearized at ``x``.

    ``(n, n)`` arrays on a dense-assembly engine, ``(nnz,)`` value
    vectors over the compiled pattern on a sparse one — one lane of the
    stacks :func:`solve_ac_lanes` takes.  Copied out of the engine
    buffers, so later evaluations cannot clobber them.
    """
    ctx = engine.evaluate(x, gmin=gmin, limits=limits)
    if engine.assembly == "sparse":
        return np.array(ctx.g_mat.values), np.array(ctx.c_mat.values)
    return np.array(ctx.g_mat), np.array(ctx.c_mat)


def solve_ac_lanes(engine, g_stack: np.ndarray, c_stack: np.ndarray,
                   omegas: np.ndarray, rhs: np.ndarray,
                   batched: bool = True,
                   transpose: bool = False) -> np.ndarray:
    """Solve ``(G_l + j*omega_f*C_l) x = rhs`` for every lane and
    frequency; returns ``(lanes, freqs, n)`` complex.

    One unified block iterator covers every case — single frequency,
    single lane, or a full ``chunk x grid`` product: blocks are sized by
    :func:`ac_lane_blocks` and handed to the batched entry points of
    the engine's LU (``solve_pattern_batched`` over the shared CSC
    pattern for sparse value stacks, ``solve_batched`` for dense
    stacks), all against the one shared ``(n,)`` vector ``rhs``.
    ``batched=False`` is the reference loop instead: one solve per
    system.  Both paths, and any block size, produce the same solutions
    to rounding: systems are formed elementwise and solved
    independently.  ``transpose=True`` solves the adjoint systems
    ``(G_l + j*omega_f*C_l).T x = rhs`` (noise analysis); sparse
    transposes stay sparse.
    """
    g_stack = np.asarray(g_stack)
    c_stack = np.asarray(c_stack)
    omegas = np.asarray(omegas, dtype=float)
    lanes = g_stack.shape[0]
    nfreq = omegas.size
    size = np.asarray(rhs).shape[-1]
    sparse = g_stack.ndim == 2
    solver = engine.solver
    out = np.zeros((lanes, nfreq, size), dtype=complex)

    def solve_stack(data):
        if sparse:
            return solver.solve_pattern_batched(engine.pattern, data, rhs,
                                                transpose=transpose)
        if transpose:
            data = data.transpose(0, 2, 1)
        return solver.solve_batched(data, rhs)

    if batched:
        per_system = 16 * (g_stack.shape[-1] if sparse else size * size)
        lane_block, freq_block = ac_lane_blocks(lanes, nfreq, per_system)
        for l0 in range(0, lanes, lane_block):
            gs = g_stack[l0:l0 + lane_block]
            cs = c_stack[l0:l0 + lane_block]
            for f0 in range(0, nfreq, freq_block):
                w = omegas[f0:f0 + freq_block]
                block = solve_stack(stack_ac_systems(gs, cs, w))
                out[l0:l0 + gs.shape[0], f0:f0 + w.size] = block.reshape(
                    gs.shape[0], w.size, size
                )
        return out
    for lane in range(lanes):
        for k, omega in enumerate(omegas):
            system = g_stack[lane] + 1j * omega * c_stack[lane]
            if sparse:
                out[lane, k] = solve_stack(system[None])[0]
            else:
                out[lane, k] = solver.solve(
                    system.T if transpose else system, rhs
                )
    return out


def solve_ac(
    circuit: Circuit,
    frequencies,
    dc_solution: np.ndarray | None = None,
    tolerances: Tolerances | None = None,
    gmin: float = 1e-12,
    engine=None,
    batched: bool = True,
) -> ACResult:
    """Run an AC sweep over the given frequencies (Hz).

    Without ``dc_solution`` the bias is solved here, under
    ``tolerances`` (default :class:`~repro.spice.dcop.Tolerances`) and
    ``gmin``, as :func:`~repro.spice.dcop.solve_dc` does.
    ``G`` and ``C`` are assembled once at the operating point; the sweep
    then solves ``(G + j*omega*C) dx = b`` through
    :func:`solve_ac_lanes` with a single lane.  With ``batched=True``
    (the default) every grid — including a single spot frequency — goes
    through the blocked iterator: systems are formed as one
    ``(block, n, n)`` stack (dense) or ``(block, nnz)`` value stack
    (sparse assembly) and handed to the engine's batched solver.
    ``batched=False`` takes the per-frequency reference loop; both
    paths produce the same solutions and the regression tests assert
    it.
    """
    frequencies = np.asarray(list(frequencies), dtype=float)
    engine = resolve_engine(circuit, engine)
    with engine.measured() as stats:
        limits: dict = {}
        if dc_solution is None:
            dc_solution = solve_dc(
                circuit, tolerances=tolerances, gmin=gmin, limits=limits,
                engine=engine,
            )
        size = circuit.num_unknowns
        # One evaluation at the operating point gives both Jacobians.  The
        # limits dict is pre-converged, so limiting is inactive here.
        g_arr, c_arr = small_signal(engine, dc_solution, gmin, limits)

        rhs = ac_stimulus_rhs(circuit, size)
        if not np.any(rhs):
            raise AnalysisError("AC analysis: no source has an AC stimulus")

        omegas = 2.0 * np.pi * frequencies
        solutions = solve_ac_lanes(
            engine, g_arr[None], c_arr[None], omegas, rhs, batched=batched
        )[0]
    return ACResult(
        circuit=circuit,
        frequencies=frequencies,
        solutions=solutions,
        dc_solution=dc_solution,
        stats=stats,
    )
