"""Analysis orchestration: .OP, .DC sweeps, .AC, .TF, .TRAN behind one
facade."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, NetlistError
from .ac import ACResult, frequency_grid, solve_ac, unit_excitation_rhs
from .dcop import Tolerances, solve_dc
from .elements.sources import CurrentSource, VoltageSource
from .engine import EngineStats, resolve_engine
from .netlist import Circuit
from .transient import TransientResult, solve_transient


@dataclass
class OperatingPointResult:
    """Converged DC solution with name-based accessors."""

    circuit: Circuit
    x: np.ndarray
    #: Engine work performed by the solve.
    stats: EngineStats | None = None

    def voltage(self, node: str) -> float:
        index = self.circuit.node_index(node)
        return 0.0 if index < 0 else float(self.x[index])

    def branch_current(self, element_name: str) -> float:
        return float(self.x[self.circuit.branch_index(element_name)])

    def device_operating_point(self, element_name: str):
        """Internal operating point of a BJT (or compatible) device."""
        element = self.circuit.element(element_name)
        getter = getattr(element, "operating_point", None)
        if getter is None:
            raise NetlistError(
                f"element {element_name!r} does not expose an operating point"
            )
        return getter(self.x)

    def node_voltages(self) -> dict[str, float]:
        return {node: self.voltage(node) for node in self.circuit.nodes()}

    def bjt_table(self) -> str:
        """SPICE-style operating-point table for every BJT.

        Columns: IC, IB, VBE, VBC, beta, gm, Cpi, Cmu, fT — the numbers
        a designer reads after every .OP.
        """
        from .elements.bjt import BJT

        rows = [
            "device       ic [A]      ib [A]     vbe [V]  vbc [V]   "
            "beta      gm [S]   cpi [fF]  cmu [fF]   fT [GHz]"
        ]
        for element in self.circuit:
            if not isinstance(element, BJT):
                continue
            op = element.operating_point(self.x)
            rows.append(
                f"{element.name:10s} {op.ic:11.4g} {op.ib:11.4g} "
                f"{op.vbe:8.4f} {op.vbc:8.4f} {op.beta_dc:7.1f} "
                f"{op.gm:11.4g} {op.cpi * 1e15:9.2f} "
                f"{op.cmu * 1e15:9.2f} "
                f"{op.transition_frequency() / 1e9:9.3f}"
            )
        if len(rows) == 1:
            return "no BJT devices in the circuit"
        return "\n".join(rows)

    def summary(self) -> str:
        """Node voltages, source branch currents and the BJT table."""
        lines = ["operating point:"]
        for node, value in sorted(self.node_voltages().items()):
            lines.append(f"  V({node}) = {value:.6g}")
        for element in self.circuit:
            if element.branch_index and isinstance(
                element, (VoltageSource,)
            ):
                current = self.x[element.branch_index[0]]
                lines.append(f"  I({element.name}) = {current:.6g}")
        table = self.bjt_table()
        if "no BJT" not in table:
            lines.append("")
            lines.append(table)
        return "\n".join(lines)


@dataclass
class DCSweepResult:
    """Result of sweeping one source's DC value."""

    circuit: Circuit
    sweep_values: np.ndarray
    states: np.ndarray
    #: Engine work performed by the sweep.
    stats: EngineStats | None = None

    def voltage(self, node: str) -> np.ndarray:
        index = self.circuit.node_index(node)
        if index < 0:
            return np.zeros(len(self.sweep_values))
        return self.states[:, index]

    def branch_current(self, element_name: str) -> np.ndarray:
        return self.states[:, self.circuit.branch_index(element_name)]


@dataclass(frozen=True)
class TransferFunction:
    """SPICE ``.TF``-style small-signal transfer quantities."""

    gain: float  #: d(output)/d(input) at the operating point
    input_resistance: float  #: ohms seen by the input source
    output_resistance: float  #: ohms seen at the output node
    #: Engine work performed by the analysis.
    stats: EngineStats | None = None


def transfer_function(
    circuit: Circuit,
    input_source: str,
    output_node: str,
    gmin: float = 1e-12,
    engine=None,
    tolerances: Tolerances | None = None,
) -> TransferFunction:
    """Small-signal DC transfer function (SPICE ``.TF``).

    Linearizes at the operating point and computes the gain from
    ``input_source`` (V or I) to ``output_node``, the resistance the
    source sees, and the output resistance at the node.  The bias is
    solved under ``tolerances`` (default
    :class:`~repro.spice.dcop.Tolerances`) and ``gmin``, as
    :func:`~repro.spice.dcop.solve_dc` does.
    """
    element = circuit.element(input_source)
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise AnalysisError(
            f"{input_source!r} is not an independent source"
        )
    out_index = circuit.node_index(output_node)
    if out_index < 0:
        raise AnalysisError("output node cannot be ground")

    engine = resolve_engine(circuit, engine)
    with engine.measured() as stats:
        limits: dict = {}
        x_op = solve_dc(circuit, tolerances=tolerances, gmin=gmin,
                        limits=limits, engine=engine)
        ctx = engine.evaluate(x_op, gmin=gmin, limits=limits)
        g_mat = ctx.g_mat.copy()
        size = circuit.num_unknowns

        # Unit input excitation.  Both solves share one factorization of
        # the small-signal conductance matrix: the second back-substitutes
        # against the one the first keeps.
        solver = engine.solver
        try:
            response = solver.solve(
                g_mat, unit_excitation_rhs(element, size), token=("tf",))
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(
                f"singular small-signal system: {exc}"
            ) from exc
        gain = float(response[out_index])

        if isinstance(element, VoltageSource):
            input_current = -float(response[element.branch_index[0]])
            input_resistance = (math.inf if input_current == 0.0
                                else 1.0 / input_current)
        else:
            p, n = element.node_index
            v_p = float(response[p]) if p >= 0 else 0.0
            v_n = float(response[n]) if n >= 0 else 0.0
            input_resistance = v_n - v_p

        # Output resistance: quiet the input, push a unit current into the
        # output node.  A V-source input stays in the system (its branch
        # keeps the node pinned), exactly as SPICE computes .TF.
        rhs_out = np.zeros(size)
        rhs_out[out_index] = 1.0
        response_out = solver.solve_cached(rhs_out)
        output_resistance = float(response_out[out_index])
        solver.invalidate()

    return TransferFunction(
        gain=gain,
        input_resistance=input_resistance,
        output_resistance=output_resistance,
        stats=stats,
    )



class Simulator:
    """Facade running analyses on one circuit.

    >>> sim = Simulator(circuit)
    >>> op = sim.operating_point()
    >>> ac = sim.ac(1e3, 1e9, points_per_decade=10)
    >>> tran = sim.transient(stop_time=1e-6)
    """

    def __init__(self, circuit: Circuit, tolerances: Tolerances | None = None,
                 gmin: float = 1e-12, engine=None):
        self.circuit = circuit
        self.tolerances = tolerances or Tolerances()
        self.gmin = gmin
        #: Engine selector threaded to every analysis: ``None`` (the
        #: circuit's cached compiled engine), ``"dense"``/``"sparse"``/
        #: ``"auto"`` (that engine with its backend pinned) or an engine
        #: object (see :func:`repro.spice.engine.resolve_engine`).
        self.engine = engine

    def _engine(self):
        return resolve_engine(self.circuit, self.engine)

    def operating_point(self) -> OperatingPointResult:
        """Solve the DC operating point (Newton with homotopies)."""
        engine = self._engine()
        with engine.measured() as stats:
            x = solve_dc(
                self.circuit, tolerances=self.tolerances, gmin=self.gmin,
                engine=engine,
            )
        return OperatingPointResult(self.circuit, x, stats=stats)

    def dc_sweep(self, source_name: str, values) -> DCSweepResult:
        """Sweep the DC level of a DC source, warm-starting each point.
        Each level is a lane of the engine, as in
        :class:`~repro.sweep.BlockedDCSweep` (see
        :meth:`~repro.spice.engine.CompiledCircuit.at_levels`)."""
        values = np.asarray(list(values), dtype=float)
        engine = self._engine()
        lanes = engine.at_levels(engine.stamps, self.circuit,
                                 [{source_name: value} for value in values])
        states = []
        x = None
        limits: dict = {}
        with engine.measured() as stats:
            for k in range(len(values)):
                x = solve_dc(
                    self.circuit, x0=x, tolerances=self.tolerances,
                    gmin=self.gmin, limits=limits, engine=engine,
                    stamps=lanes.take([k]),
                )
                states.append(x.copy())
        return DCSweepResult(
            self.circuit, values, np.array(states), stats=stats,
        )

    def ac(
        self,
        start: float,
        stop: float,
        points_per_decade: int = 10,
        sweep: str = "dec",
    ) -> ACResult:
        """AC sweep from start to stop Hz about a bias solved under the
        Simulator's tolerances and gmin, whatever ran before it."""
        return solve_ac(
            self.circuit,
            frequency_grid(start, stop, points_per_decade, sweep),
            tolerances=self.tolerances, gmin=self.gmin,
            engine=self._engine(),
        )

    def transient(
        self,
        stop_time: float,
        max_step: float | None = None,
        initial_step: float | None = None,
        method: str = "trap",
        x0: np.ndarray | None = None,
        **kwargs,
    ) -> TransientResult:
        """Integrate 0..stop_time (see :func:`solve_transient`)."""
        kwargs.setdefault("engine", self._engine())
        return solve_transient(
            self.circuit,
            stop_time,
            max_step=max_step,
            initial_step=initial_step,
            method=method,
            x0=x0,
            tolerances=self.tolerances,
            gmin=self.gmin,
            **kwargs,
        )
