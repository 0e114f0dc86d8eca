"""Corner variants as lanes: both paths equal a per-variant compile.

Each path runs every corner variant (temperature, resistor scale) as a
lane of the deck's one compiled engine: the blocked path in stacked
Newton blocks, the scalar path (``batch=False``) through the full
ladder under the variant's lane stamps.  Each compiles that one engine
and nothing else.  The oracle compiles every variant into its own
engine (the ``variant_oracle`` fixture).  Every corner outcome must be
equal across the three, on all seeded cells and on the two decks whose
blocked solves leave the usual path: a deck with a diode, whose points
take the scalar ladder one by one, and a BJT-free deck, whose constant
Jacobian differs per R lane.
"""

import pytest

from repro.celldb.seed import seed_database
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
                                                   variant_oracle):
    blocked = qualify_cell(cell, executor="serial")
    assert len(compile_log) == 1
    scalar = qualify_cell(cell, executor="serial", batch=False)
    assert len(compile_log) == 1 + 1  # the scalar path's one engine
    assert len(blocked) == 27 and blocked.stats["failures"] == 0
    assert _outcomes(blocked) == _outcomes(scalar)
    corners = default_corners(cell.schematic)
    oracle = variant_oracle(CornerEvaluator(
        cell.schematic, corners, default_measurements(cell.schematic)))
    assert _outcomes(scalar) == oracle.outcomes(corners)


@pytest.mark.parametrize("deck, supply, level", (
    (DIODE_DECK, "VCC", 5.0),
    (DIVIDER_DECK, "V1", 10.0),
))
def test_decks_off_the_stacked_path_match(deck, supply, level, compile_log,
                                          variant_oracle):
    corners = corners_from_tolerances({supply: (level, 0.1)},
                                      passive_tols={"R": 0.1})
    measurements = (dc_voltage("v_out", "out"),)
    blocked = qualify_deck(deck, corners, measurements, executor="serial")
    assert len(compile_log) == 1
    scalar = qualify_deck(deck, corners, measurements, executor="serial",
                          batch=False)
    assert len(compile_log) == 1 + 1
    assert len(blocked) == 27 and blocked.stats["failures"] == 0
    assert _outcomes(blocked) == _outcomes(scalar)
    oracle = variant_oracle(CornerEvaluator(deck, corners, measurements))
    assert _outcomes(scalar) == oracle.outcomes(corners)


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
