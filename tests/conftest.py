"""Shared fixtures: models, references, generators used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import GummelPoonParameters
from repro.geometry import (
    MaskDesignRules,
    ModelParameterGenerator,
    ProcessData,
    default_reference,
)


@pytest.fixture(scope="session")
def hf_model() -> GummelPoonParameters:
    """A representative high-frequency npn with every effect enabled."""
    return GummelPoonParameters(
        name="QHF",
        IS=4e-17, BF=100.0, NF=1.0, VAF=40.0, IKF=8e-3,
        ISE=5e-15, NE=2.0, BR=2.0, NR=1.0, VAR=4.0, IKR=1e-2,
        ISC=1e-14, NC=2.0,
        RB=120.0, RE=3.0, RC=60.0,
        CJE=45e-15, VJE=0.9, MJE=0.35,
        CJC=30e-15, VJC=0.7, MJC=0.33, XCJC=0.8,
        CJS=70e-15, VJS=0.6, MJS=0.4,
        TF=9e-12, XTF=2.0, VTF=2.0, ITF=8e-3, TR=1e-9,
    )


@pytest.fixture(scope="session")
def simple_npn() -> GummelPoonParameters:
    """A minimal npn (no parasitics) for closed-form comparisons."""
    return GummelPoonParameters(name="QSIMPLE", IS=1e-16, BF=100.0)


@pytest.fixture(scope="session")
def process() -> ProcessData:
    return ProcessData()


@pytest.fixture(scope="session")
def rules() -> MaskDesignRules:
    return MaskDesignRules()


@pytest.fixture(scope="session")
def reference(process, rules):
    return default_reference(process, rules)


@pytest.fixture(scope="session")
def generator(process, rules, reference) -> ModelParameterGenerator:
    return ModelParameterGenerator(process, rules, reference)


@pytest.fixture(scope="session")
def uncalibrated_generator(process, rules) -> ModelParameterGenerator:
    return ModelParameterGenerator(process, rules)


@pytest.fixture(scope="session")
def as_pattern():
    """Factory ``systems -> (pattern, values)``: the nonzeros of a dense
    ``(n, n)`` matrix, or of a ``(batch, n, n)`` stack over their union,
    as a :class:`~repro.spice.sparse.SparsityPattern` plus ``(nnz,)`` or
    ``(batch, nnz)`` values — the only input the sparse LU backend takes
    (``pattern.matrix(values)`` for a single system)."""
    from repro.spice.sparse import SparsityPattern

    def build(systems):
        systems = np.asarray(systems)
        leading = tuple(range(systems.ndim - 2))
        rows, cols = np.nonzero(np.any(systems != 0, axis=leading))
        pattern = SparsityPattern(systems.shape[-1], rows, cols)
        values = np.zeros(systems.shape[:-2] + (pattern.nnz,),
                          dtype=systems.dtype)
        values[..., pattern.positions(rows, cols)] = systems[..., rows, cols]
        return pattern, values

    return build


def _written(circuit, levels: dict):
    """``circuit`` with each DC source named in ``levels`` replaced by an
    edited copy at its level (the deck written at those levels); every
    other element is shared with ``circuit``."""
    from repro.spice.netlist import Circuit

    if not levels:
        return circuit
    written = Circuit(circuit.title)
    for element in circuit:
        level = levels.get(element.name.upper())
        if level is not None:
            element = type(element)(element.name, element.nodes, dc=level,
                                    ac_mag=element.ac_mag,
                                    ac_phase_deg=element.ac_phase_deg)
        written.add(element)
    return written


class _VariantOracle:
    """What a deck evaluator's point solves to as the deck written at it.

    A deck evaluator (:class:`~repro.sweep.BlockedDCSweep`,
    :class:`~repro.sweep.BlockedACSweep`,
    :class:`~repro.verify.CornerEvaluator`) solves every point on the
    deck's one engine, under a lane carrying the point's variant and
    source levels.  ``oracle(params)`` solves the deck that lane stands
    in for: the variant's own circuit with edited copies of the DC
    sources the point sets, compiled on its own with the deck's options
    (once per written deck), through the full ``solve_dc`` ladder, then
    the small-signal AC sweep when the evaluator has one, reduced as the
    evaluator reduces its points.
    """

    def __init__(self, evaluator):
        evaluator._resolve()
        self.evaluator = evaluator
        self.decks = {}

    def __call__(self, params: dict):
        from repro.errors import AnalysisError
        from repro.spice.ac import small_signal, solve_ac_lanes
        from repro.spice.dcop import solve_dc
        from repro.spice.engine import compile_circuit

        ev = self.evaluator
        key, levels = ev._lane(params)
        deck = (key, tuple(sorted(levels.items())))
        if deck not in self.decks:
            circuit = _written(ev._variant(key).circuit, levels)
            circuit._permc_spec = getattr(ev._deck.circuit, "_permc_spec",
                                          None)
            self.decks[deck] = (circuit, compile_circuit(circuit, ev._mode))
        circuit, engine = self.decks[deck]
        x = solve_dc(circuit, tolerances=ev._tolerances, gmin=ev._gmin,
                     engine=engine)
        solutions = None
        if ev._with_ac:
            if not np.any(ev._rhs):
                raise AnalysisError("AC analysis: no source has an AC "
                                    "stimulus")
            g, c = small_signal(engine, x, ev._gmin, {})
            solutions = solve_ac_lanes(engine, g[None], c[None],
                                       ev._omegas, ev._rhs)[0]
        # The written deck carries the point's levels itself.
        return ev._reduce(circuit, x, solutions, {})

    def outcomes(self, corners) -> list:
        """Every corner's outcome, as a qualification reports it."""
        from repro.verify.report import CornerOutcome

        outcomes = []
        for corner in corners:
            value = self(dict(corner.values))
            outcomes.append(CornerOutcome(
                corner=corner.name, values=dict(corner.values),
                measurements=dict(value["measurements"]),
                quantities=value["quantities"],
                violations=tuple(value["violations"]),
            ).to_dict())
        return outcomes


@pytest.fixture(scope="session")
def variant_oracle():
    """Factory ``evaluator -> oracle``: ``oracle(params)`` is the value
    ``evaluator(params)`` must equal bit for bit, solved on an engine
    compiled from the deck written at the point; ``oracle.outcomes(
    corners)`` the outcome dicts of a qualification over ``corners``.
    Its compiles show in :func:`compile_log`."""
    return _VariantOracle


def _hexed(value):
    """``value`` with every float spelled in hex, through arrays, dicts,
    lists and tuples: equal exactly when bit for bit equal, signed
    zeros included (NaN compares equal to NaN)."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.fixture(scope="session")
def hexed():
    """``hexed(value)``: ``value`` with its floats as hex strings, for
    asserting bit-for-bit equality of nested results."""
    return _hexed


@pytest.fixture()
def compile_log(monkeypatch):
    """Every engine compiled while the test runs, in order, as
    ``(assembly, permc_spec)`` pairs (``permc_spec`` is None on dense
    engines and on sparse ones left at the default A+Aᵀ order)."""
    from repro.spice.engine import CompiledCircuit

    log = []
    original = CompiledCircuit.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        log.append((self.assembly, getattr(self.solver, "permc_spec", None)))

    monkeypatch.setattr(CompiledCircuit, "__init__", init)
    return log
