"""Small-signal noise analysis.

"In such CATV tuner systems, distortion, noise and image signal are main
concerns in circuit design" — this module adds the noise leg: classic
SPICE ``.NOISE``-style analysis of the linearized circuit.

Method: the adjoint (transpose) system.  With the AC system
``A(w) x = b``, the transfer of a noise *current* injected between nodes
p and n to the output voltage is ``y_n - y_p`` where
``A(w)^T y = e_out``.  One adjoint solve per frequency prices every
noise source in the circuit simultaneously.

Modelled sources:

* resistor thermal noise        4kT/R          (current, across R)
* diode shot noise              2q*Id          (across the junction)
* BJT collector shot noise      2q*Ic          (internal C' to E')
* BJT base shot noise           2q*Ib          (internal B' to E')
* BJT flicker noise             KF*Ib^AF/f     (internal B' to E')
* BJT ohmic rbb/RE/RC thermal   4kT/Rx         (across each resistance)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..devices.gummel_poon import diode_current
from ..errors import AnalysisError
from .ac import small_signal, solve_ac_lanes, unit_excitation_rhs
from .dcop import Tolerances, solve_dc
from .elements.bjt import BJT
from .elements.diode import Diode
from .elements.resistor import Resistor
from .engine import BJTGroup, EngineStats, resolve_engine
from .netlist import Circuit

#: Boltzmann constant (J/K) and electron charge (C).
BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19

#: Analysis temperature (K) for 4kT terms.
NOISE_TEMPERATURE = 300.15


@dataclass(frozen=True)
class NoiseSource:
    """One noise current source: PSD(f) injected from node p to node n."""

    element: str
    kind: str  #: "thermal" | "shot" | "flicker"
    p: int  #: equation index (-1 = ground)
    n: int
    psd: object  #: callable f -> A^2/Hz

    def density(self, frequency: float) -> float:
        return self.psd(frequency)


def _thermal_psd(resistance: float):
    level = 4.0 * BOLTZMANN * NOISE_TEMPERATURE / resistance
    return lambda f: level


def _shot_psd(current: float):
    level = 2.0 * ELECTRON_CHARGE * abs(current)
    return lambda f: level


def _flicker_psd(kf: float, af: float, current: float):
    numerator = kf * abs(current) ** af

    def psd(frequency: float) -> float:
        return numerator / max(frequency, 1e-6)

    return psd


def collect_noise_sources(circuit: Circuit, x_op: np.ndarray,
                          limits: dict) -> list[NoiseSource]:
    """Enumerate every noise source at the DC operating point; a diode's
    is priced at its limited voltage in the device group's history."""
    junction = {name: v for key, history in limits.items()
                if isinstance(key, BJTGroup)
                for name, v in zip(key.names, history[0])}
    sources: list[NoiseSource] = []
    for element in circuit:
        if isinstance(element, Resistor):
            # Zero/negative resistances (ideal shorts, behavioral
            # negative-R elements) carry no thermal noise; including
            # them would divide by zero in the 4kT/R density.
            if element.resistance <= 0.0:
                continue
            p, n = element.node_index
            sources.append(NoiseSource(element.name, "thermal", p, n,
                                       _thermal_psd(element.resistance)))
        elif isinstance(element, Diode):
            anode, cathode = element.node_index
            junction_p = (element.branch_index[0]
                          if element.rs > 0 else anode)
            v_lim = junction.get(element.name, 0.0)
            current, _ = diode_current(element.i_sat, v_lim,
                                       element.model.N * element._vt)
            sources.append(NoiseSource(element.name, "shot", junction_p,
                                       cathode, _shot_psd(current)))
            if element.rs > 0:
                sources.append(NoiseSource(
                    element.name + ":rs", "thermal", anode, junction_p,
                    _thermal_psd(element.rs),
                ))
        elif isinstance(element, BJT):
            sources.extend(_bjt_sources(element, x_op))
    return sources


def _bjt_sources(element: BJT, x_op: np.ndarray) -> list[NoiseSource]:
    params = element.params
    op = element.operating_point(x_op)
    c, b, e, _s = element.node_index
    ci, bi, ei = element._internal_indices()
    sources = [
        NoiseSource(element.name + ":ic", "shot", ci, ei,
                    _shot_psd(op.ic)),
        NoiseSource(element.name + ":ib", "shot", bi, ei,
                    _shot_psd(op.ib)),
    ]
    if params.KF > 0.0:
        sources.append(NoiseSource(
            element.name + ":flicker", "flicker", bi, ei,
            _flicker_psd(params.KF, params.AF, op.ib),
        ))
    if element._has_rb:
        sources.append(NoiseSource(element.name + ":rb", "thermal", b, bi,
                                   _thermal_psd(max(op.rbb, 1e-3))))
    if element._has_re:
        sources.append(NoiseSource(element.name + ":re", "thermal", e, ei,
                                   _thermal_psd(params.RE)))
    if element._has_rc:
        sources.append(NoiseSource(element.name + ":rc", "thermal", c, ci,
                                   _thermal_psd(params.RC)))
    return sources


@dataclass
class NoiseResult:
    """Output noise spectrum with per-source breakdown."""

    circuit: Circuit
    output_node: str
    frequencies: np.ndarray
    #: total output noise voltage density squared, V^2/Hz, per frequency
    output_density: np.ndarray
    #: element/source name -> V^2/Hz array
    contributions: dict[str, np.ndarray]
    #: |H(f)|^2 from the designated input source to the output (None when
    #: no input source was given)
    gain_squared: np.ndarray | None = None
    #: Engine work performed by this analysis.
    stats: EngineStats | None = None

    def output_rms_density(self, frequency: float) -> float:
        """Output noise density in V/sqrt(Hz), interpolated."""
        return float(np.sqrt(np.interp(frequency, self.frequencies,
                                       self.output_density)))

    def input_referred_density(self) -> np.ndarray:
        """Input-referred noise V^2/Hz (needs an input source)."""
        if self.gain_squared is None:
            raise AnalysisError("no input source was designated")
        return self.output_density / np.maximum(self.gain_squared, 1e-300)

    def integrated_output_noise(self) -> float:
        """Total output noise voltage (V rms) over the swept band."""
        return float(np.sqrt(np.trapezoid(self.output_density,
                                          self.frequencies)))

    def dominant_contributors(self, frequency: float,
                              count: int = 5) -> list[tuple[str, float]]:
        """The ``count`` largest contributors at one frequency."""
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        ranked = sorted(
            ((name, values[index]) for name, values in
             self.contributions.items()),
            key=lambda item: item[1], reverse=True,
        )
        return ranked[:count]

    def noise_figure_db(self, source_contribution_name: str) -> np.ndarray:
        """Spot noise figure: F = total / (source-resistor contribution).

        ``source_contribution_name`` names the resistor standing for the
        generator impedance (e.g. ``"RS"``).
        """
        source = self.contributions.get(source_contribution_name)
        if source is None:
            raise AnalysisError(
                f"no noise contribution from {source_contribution_name!r}"
            )
        factor = self.output_density / np.maximum(source, 1e-300)
        return 10.0 * np.log10(np.maximum(factor, 1.0))


def solve_noise(
    circuit: Circuit,
    output_node: str,
    frequencies,
    input_source: str | None = None,
    gmin: float = 1e-12,
    engine=None,
    batched: bool = True,
    tolerances: Tolerances | None = None,
) -> NoiseResult:
    """Run a noise analysis at the DC operating point.

    ``output_node`` is where the output noise is summed; ``input_source``
    (a V or I source name) enables input-referred quantities.  The bias
    is solved under ``tolerances`` (default
    :class:`~repro.spice.dcop.Tolerances`) and ``gmin``, as
    :func:`~repro.spice.dcop.solve_dc` does.  With
    ``batched=True`` the adjoint systems of a whole frequency block are
    solved as one stacked call (see
    :func:`repro.spice.ac.solve_ac_lanes`);
    ``batched=False`` keeps the per-frequency reference loop.
    """
    frequencies = np.asarray(list(frequencies), dtype=float)
    if len(frequencies) == 0:
        raise AnalysisError("noise analysis needs at least one frequency")
    engine = resolve_engine(circuit, engine)
    with engine.measured() as stats:
        result = _solve_noise(
            circuit, engine, output_node, frequencies, input_source, gmin,
            batched, tolerances,
        )
    result.stats = stats
    return result


def _solve_noise(
    circuit, engine, output_node, frequencies, input_source, gmin, batched,
    tolerances,
) -> NoiseResult:
    limits: dict = {}
    x_op = solve_dc(circuit, tolerances=tolerances, gmin=gmin, limits=limits,
                    engine=engine)
    g_arr, c_arr = small_signal(engine, x_op, gmin, limits)

    out_index = circuit.node_index(output_node)
    if out_index < 0:
        raise AnalysisError("output node cannot be ground")
    sources = collect_noise_sources(circuit, x_op, limits)
    if not sources:
        raise AnalysisError("circuit contains no noise sources")

    size = circuit.num_unknowns
    e_out = np.zeros(size, dtype=complex)
    e_out[out_index] = 1.0
    omegas = 2.0 * math.pi * frequencies

    # The adjoint prices every noise source with one transpose solve
    # per frequency, through the same block iterator as AC analysis.
    adjoints = solve_ac_lanes(engine, g_arr[None], c_arr[None], omegas,
                              e_out, batched=batched, transpose=True)[0]
    total = np.zeros(len(frequencies))
    contributions = {s.element: np.zeros(len(frequencies)) for s in sources}
    for source in sources:
        y_p = adjoints[:, source.p] if source.p >= 0 else 0.0
        y_n = adjoints[:, source.n] if source.n >= 0 else 0.0
        density = np.array([source.density(f) for f in frequencies])
        value = np.abs(y_n - y_p) ** 2 * density
        total += value
        contributions[source.element] += value

    gain_squared = None
    if input_source is not None:
        rhs_in = unit_excitation_rhs(circuit.element(input_source), size)
        solutions = solve_ac_lanes(engine, g_arr[None], c_arr[None],
                                   omegas, rhs_in, batched=batched)[0]
        gain_squared = np.abs(solutions[:, out_index]) ** 2

    return NoiseResult(
        circuit=circuit,
        output_node=output_node,
        frequencies=frequencies,
        output_density=total,
        contributions=contributions,
        gain_squared=gain_squared,
    )

