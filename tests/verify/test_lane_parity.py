"""Corners and sweep points as lanes: both paths equal the written deck.

Each path runs every corner (temperature, resistor scale, supply level)
as a lane of the deck's one compiled engine: the blocked path in
stacked Newton blocks, the scalar path (``batch=False``) through the
full ladder under the corner's lane.  Each compiles that one engine and
nothing else.  The oracle compiles the deck written at every corner
into its own engine (the ``variant_oracle`` fixture).  Every corner
outcome must be bit for bit equal across the three, signed zeros
included, on ``ce_stage.cir``, on all seeded cells and on two decks
off the BJT-only path: a deck with a diode, whose corners run stacked
with the diode in the device group, no corner on the scalar ladder,
and a BJT-free deck, whose constant Jacobian differs per R lane.  So
must every point of DC and AC sweeps over the seeded cells' sources and
resistors.
"""

from pathlib import Path

import pytest

from repro.celldb.seed import seed_database
from repro.errors import AnalysisError
from repro.spice.elements import Resistor
from repro.spice.elements.sources import is_dc_source
from repro.spice.parser import parse_deck
from repro.sweep import BlockedACSweep, BlockedDCSweep
from repro.verify import (
    CornerEvaluator,
    corners_from_tolerances,
    dc_voltage,
    default_corners,
    default_measurements,
    qualify_cell,
    qualify_deck,
)

#: A clamp diode on the supply of a one-transistor stage.
DIODE_DECK = """* common-emitter stage with a clamp diode
.MODEL QN NPN(IS=1e-16 BF=100 VAF=50 CJE=20f CJC=15f TF=8p)
.MODEL DCL D(IS=1e-14 CJO=5f)
VCC vcc 0 DC 5
RC vcc out 2k
RB vcc b 200k
Q1 out b 0 QN
D1 out vcc DCL
.END
"""

#: An emitter follower biased by a current source.
FOLLOWER_DECK = """* emitter follower on a current-source bias
.MODEL QN NPN(IS=1e-16 BF=100 VAF=50)
VCC vcc 0 DC 5
VB b 0 DC 2.5
Q1 vcc b e QN
IE e 0 DC 1m
.END
"""

#: A resistive divider: no nonlinear device at all.
DIVIDER_DECK = """* resistive divider
V1 in 0 DC 10
R1 in out 1k
R2 out 0 3k
.END
"""


def _outcomes(report) -> list:
    return [outcome.to_dict() for outcome in report.outcomes]


@pytest.mark.parametrize(
    "cell", [c for c in seed_database().cells() if (c.schematic or "").strip()],
    ids=lambda cell: cell.name)
def test_seeded_cell_corners_match_the_scalar_path(cell, compile_log,
                                                   variant_oracle, hexed):
    blocked = qualify_cell(cell, executor="serial")
    assert len(compile_log) == 1
    scalar = qualify_cell(cell, executor="serial", batch=False)
    assert len(compile_log) == 1 + 1  # the scalar path's one engine
    assert len(blocked) == 27 and blocked.stats["failures"] == 0
    assert hexed(_outcomes(blocked)) == hexed(_outcomes(scalar))
    corners = default_corners(cell.schematic)
    oracle = variant_oracle(CornerEvaluator(
        cell.schematic, corners, default_measurements(cell.schematic)))
    assert hexed(_outcomes(scalar)) == hexed(oracle.outcomes(corners))


def test_ce_stage_corners_match_the_scalar_path(variant_oracle, hexed):
    deck = (Path(__file__).resolve().parents[2] / "examples" / "decks"
            / "ce_stage.cir").read_text()
    corners = default_corners(deck)
    measurements = default_measurements(deck)
    blocked = qualify_deck(deck, corners, measurements, executor="serial")
    scalar = qualify_deck(deck, corners, measurements, executor="serial",
                          batch=False)
    assert len(blocked) == 27 and blocked.stats["failures"] == 0
    assert hexed(_outcomes(blocked)) == hexed(_outcomes(scalar))
    oracle = variant_oracle(CornerEvaluator(deck, corners, measurements))
    assert hexed(_outcomes(scalar)) == hexed(oracle.outcomes(corners))


@pytest.mark.parametrize(
    "cell", [c for c in seed_database().cells() if (c.schematic or "").strip()],
    ids=lambda cell: cell.name)
def test_seeded_cell_sweeps_are_the_written_decks(cell, variant_oracle,
                                                  hexed):
    """DC and AC sweeps of each cell: its supply at its corner levels,
    then every DC source at 0.9 times its level and every resistor at
    1.5 times its value.  Every point of both paths is the deck written
    at it."""
    [axis] = default_corners(cell.schematic).source_axes()
    points = [{axis.target: level} for _, level in axis.levels]
    last = {}
    for element in parse_deck(cell.schematic).circuit:
        if is_dc_source(element):
            last[element.name] = 0.9 * element.source_value(None)
        elif isinstance(element, Resistor):
            last[element.name] = 1.5 * element.resistance
    points.append(last)
    for fn in (BlockedDCSweep(cell.schematic),
               BlockedACSweep(cell.schematic, frequencies=[1e6, 1e9])):
        oracle = variant_oracle(fn)
        try:
            want = hexed([oracle(point) for point in points])
        except AnalysisError:  # no AC stimulus: both paths say so too
            assert all(isinstance(error, AnalysisError)
                       for _, error in fn.evaluate_batch(points))
            continue
        assert hexed([value for value, _ in fn.evaluate_batch(points)]) \
            == want
        assert hexed([fn(point) for point in points]) == want


@pytest.mark.parametrize("deck, supply, level", (
    (DIODE_DECK, "VCC", 5.0),
    (DIVIDER_DECK, "V1", 10.0),
))
def test_decks_off_the_stacked_path_match(deck, supply, level, compile_log,
                                          variant_oracle, hexed,
                                          monkeypatch):
    import repro.spice.dcop as dcop

    corners = corners_from_tolerances({supply: (level, 0.1)},
                                      passive_tols={"R": 0.1})
    measurements = (dc_voltage("v_out", "out"),)
    ladder, solve_dc = [], dcop.solve_dc
    monkeypatch.setattr(dcop, "solve_dc", lambda *args, **kwargs: (
        ladder.append(args), solve_dc(*args, **kwargs))[1])
    blocked = qualify_deck(deck, corners, measurements, executor="serial")
    monkeypatch.setattr(dcop, "solve_dc", solve_dc)
    assert ladder == []  # every corner converged on the stacked path
    assert len(compile_log) == 1
    scalar = qualify_deck(deck, corners, measurements, executor="serial",
                          batch=False)
    assert len(compile_log) == 1 + 1
    assert len(blocked) == 27 and blocked.stats["failures"] == 0
    assert hexed(_outcomes(blocked)) == hexed(_outcomes(scalar))
    oracle = variant_oracle(CornerEvaluator(deck, corners, measurements))
    assert hexed(_outcomes(scalar)) == hexed(oracle.outcomes(corners))


def test_stress_reports_each_corners_current_source_level(variant_oracle,
                                                          hexed):
    """A corner's current-source level is the one its stress table
    reports, on both paths, as in the deck written at that corner."""
    corners = corners_from_tolerances({"IE": (1e-3, 0.2)},
                                      temperatures_c=(27.0,))
    fn = CornerEvaluator(FOLLOWER_DECK, corners, (dc_voltage("v_e", "e"),))
    points = [dict(corner.values) for corner in corners]
    oracle = variant_oracle(fn)
    want = [oracle(point) for point in points]
    assert sorted(w["quantities"]["IE"]["current_a"] for w in want) \
        == pytest.approx([0.8e-3, 1e-3, 1.2e-3])
    assert hexed([value for value, _ in fn.evaluate_batch(points)]) \
        == hexed(want)
    assert hexed([fn(point) for point in points]) == hexed(want)


def test_default_qualification_sets_up_once_per_temperature(monkeypatch):
    """A default qualification parses its deck once, re-models the deck
    once per temperature and builds one BJT parameter block per
    temperature: the passive-scale variants of a temperature share its
    devices, and so its block."""
    import repro.spice.engine as engine_module
    import repro.spice.parser as parser_module
    import repro.sweep.batched as batched_module

    calls = {"parse_deck": [], "circuit_at_temperature": [],
             "_bjt_columns": []}
    for module in (parser_module, batched_module, engine_module):
        for name in calls.keys() & vars(module).keys():
            def spy(*args, _name=name, _original=getattr(module, name)):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(module, name, spy)

    report = qualify_cell(seed_database().get("PHASE90-IF"),
                          executor="serial")
    assert len(report) == 27 and report.stats["failures"] == 0
    assert len(calls["parse_deck"]) == 1
    temperatures = [args[1] for args in calls["circuit_at_temperature"]]
    assert len(temperatures) == len(set(temperatures)) == 3
    # The compile's own block, then one lane block per temperature.
    assert len(calls["_bjt_columns"]) == 1 + 3
