"""Differential fuzzing of the stacked Newton against the scalar one.

A ``hypothesis`` strategy draws lane stacks over ``ce_stage.cir`` and
one seeded cell, on the dense and the sparse engine: each lane sits at
the deck's source levels or sets one independent source to another
level, which may be NaN (:meth:`~repro.spice.engine.CompiledCircuit.
at_levels`).  Every converged lane of
:func:`~repro.spice.dcop.newton_solve_batched` must equal scalar
:func:`~repro.spice.dcop.newton_solve` bit for bit (signed zeros
included), and every lane of :func:`~repro.spice.dcop.solve_dc_batched`
must match scalar :func:`~repro.spice.dcop.solve_dc` — the same bits
when it solves, the same error message when it fails.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.celldb import seed_database
from repro.errors import ConvergenceError
from repro.spice.dcop import (
    Tolerances,
    newton_solve,
    newton_solve_batched,
    solve_dc,
    solve_dc_batched,
)
from repro.spice.engine import resolve_engine
from repro.spice.parser import parse_deck

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"

#: The independent sources a lane may set, per deck.
SOURCES = {"ce_stage": ("VB", "VCC"), "ACC1": ("VB1", "V1", "I1")}


@pytest.fixture(scope="module")
def decks():
    return {"ce_stage": (DECKS / "ce_stage.cir").read_text(),
            "ACC1": seed_database().get("ACC1").schematic}


def _levels(circuit, lane) -> dict:
    """A lane's source levels: none set, or one source at ``factor``
    times its deck level (NaN for a NaN factor)."""
    if lane is None:
        return {}
    source, factor = lane
    return {source: circuit.element(source).source_value(None) * factor}


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


@st.composite
def lane_stacks(draw):
    name = draw(st.sampled_from(sorted(SOURCES)))
    mode = draw(st.sampled_from(("dense", "sparse")))
    factor = st.one_of(st.floats(0.8, 1.2), st.just(float("nan")))
    lanes = draw(st.lists(
        st.one_of(st.none(), st.tuples(
            st.sampled_from(SOURCES[name]), factor)),
        min_size=1, max_size=6,
    ))
    return name, mode, lanes


@settings(max_examples=20, deadline=None)
@given(stack=lane_stacks())
def test_stacked_newton_matches_scalar_lanes(decks, stack):
    name, mode, lanes = stack
    circuit = parse_deck(decks[name]).circuit
    circuit.assign_indices()
    engine = resolve_engine(circuit, mode)
    assert engine.assembly == mode
    size = circuit.num_unknowns
    tolerances = Tolerances()
    stamps = engine.at_levels(engine.stamps, circuit,
                              [_levels(circuit, lane) for lane in lanes])

    x, converged = newton_solve_batched(
        circuit, np.zeros((len(lanes), size)), tolerances, 1e-12,
        engine=engine, lanes=stamps,
    )
    for k in np.flatnonzero(converged):
        scalar = newton_solve(
            circuit, np.zeros(size), tolerances, 1e-12, engine=engine,
            stamps=stamps.take([k]),
        )
        np.testing.assert_array_equal(_bits(x[k]), _bits(scalar))

    x, errors = solve_dc_batched(circuit, stamps, engine=engine)
    for k, error in enumerate(errors):
        if error is None:
            scalar = solve_dc(circuit, engine=engine,
                              stamps=stamps.take([k]))
            np.testing.assert_array_equal(_bits(x[k]), _bits(scalar))
        else:
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dc(circuit, engine=engine, stamps=stamps.take([k]))
            assert str(excinfo.value) == str(error)
