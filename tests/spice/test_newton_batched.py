"""Differential fuzzing of the stacked Newton against the scalar one.

A ``hypothesis`` strategy draws lane stacks over ``ce_stage.cir`` and
one seeded cell, on the dense and the sparse engine: each lane's
``rhs_delta`` is ``None`` or the re-bias of one independent source, at a
level that may be NaN.  Every converged lane of
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

#: The independent sources a lane may re-bias, per deck.
SOURCES = {"ce_stage": ("VB", "VCC"), "ACC1": ("VB1", "V1", "I1")}


@pytest.fixture(scope="module")
def decks():
    return {"ce_stage": (DECKS / "ce_stage.cir").read_text(),
            "ACC1": seed_database().get("ACC1").schematic}


def _delta(circuit, source: str, factor: float) -> np.ndarray:
    """The residual offset re-biasing ``source`` to ``factor`` times its
    deck level (NaN for a NaN factor)."""
    element = circuit.element(source)
    base = element.source_value(None)
    delta = np.zeros(circuit.num_unknowns)
    for row, coeff in element.rhs_rows():
        delta[row] += coeff * (base * factor - base)
    return delta


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
    deltas = [None if lane is None else _delta(circuit, *lane)
              for lane in lanes]

    x, converged = newton_solve_batched(
        circuit, np.zeros((len(deltas), size)), tolerances, 1e-12,
        rhs_deltas=deltas, engine=engine,
    )
    for k in np.flatnonzero(converged):
        scalar = newton_solve(
            circuit, np.zeros(size), tolerances, 1e-12, engine=engine,
            rhs_delta=deltas[k],
        )
        np.testing.assert_array_equal(_bits(x[k]), _bits(scalar))

    x, errors = solve_dc_batched(circuit, deltas, engine=engine)
    for k, error in enumerate(errors):
        if error is None:
            scalar = solve_dc(circuit, engine=engine, rhs_delta=deltas[k])
            np.testing.assert_array_equal(_bits(x[k]), _bits(scalar))
        else:
            with pytest.raises(ConvergenceError) as excinfo:
                solve_dc(circuit, engine=engine, rhs_delta=deltas[k])
            assert str(excinfo.value) == str(error)
