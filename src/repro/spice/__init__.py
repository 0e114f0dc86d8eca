"""A SPICE-class analog circuit simulator.

Built from scratch as the substrate for reproducing the paper's Fig. 9
(fT vs Ic) and Table 1 (ring-oscillator frequency) experiments: modified
nodal analysis with DC operating point, AC small-signal and transient
analyses, and a classic deck parser.
"""

from .netlist import Circuit, Element
from .engine import (
    CompiledCircuit,
    DenseLUSolver,
    EngineStats,
    LinearSolver,
    SparseLUSolver,
    compile_circuit,
    get_engine,
    make_solver,
    resolve_engine,
)
from .analysis import (
    DCSweepResult,
    OperatingPointResult,
    Simulator,
)
from .ac import ACResult, frequency_grid, solve_ac
from .dcop import Tolerances, solve_dc
from .transient import TransientResult, solve_transient
from .parser import AnalysisCard, Deck, parse_deck, parse_file
from .noise import NoiseResult, solve_noise
from .fourier import (
    FourierComponent,
    FourierResult,
    fourier_analysis,
    total_harmonic_distortion,
)
from .lint import LintIssue, check_circuit, lint_circuit
from .runner import DeckRun, run_deck
from .sparse import PatternMatrix, SparsityPattern
from .analysis import TransferFunction, transfer_function
from .temperature import circuit_at_temperature, temperature_sweep
from .serialize import circuit_to_deck
from . import elements

__all__ = [
    "Circuit",
    "Element",
    "CompiledCircuit",
    "EngineStats",
    "LinearSolver",
    "DenseLUSolver",
    "SparseLUSolver",
    "compile_circuit",
    "get_engine",
    "make_solver",
    "resolve_engine",
    "Simulator",
    "OperatingPointResult",
    "DCSweepResult",
    "ACResult",
    "TransientResult",
    "Tolerances",
    "solve_dc",
    "solve_ac",
    "solve_transient",
    "frequency_grid",
    "parse_deck",
    "parse_file",
    "Deck",
    "AnalysisCard",
    "NoiseResult",
    "solve_noise",
    "FourierResult",
    "FourierComponent",
    "fourier_analysis",
    "total_harmonic_distortion",
    "DeckRun",
    "run_deck",
    "LintIssue",
    "check_circuit",
    "lint_circuit",
    "SparsityPattern",
    "PatternMatrix",
    "TransferFunction",
    "transfer_function",
    "circuit_at_temperature",
    "temperature_sweep",
    "circuit_to_deck",
    "elements",
]
