"""Qualification harness: corner fan-out, reports, specs, caching."""

import math
import pickle

import pytest

from repro.optimize.spec import BoundKind, Spec, SpecSet
from repro.sweep import ResultCache
from repro.verify import (
    CornerEvaluator,
    Measurement,
    QualificationReport,
    StressRule,
    VerificationError,
    ac_bandwidth,
    ac_gain,
    corners_from_tolerances,
    dc_differential,
    dc_voltage,
    default_corners,
    default_measurements,
    qualify_cell,
    qualify_deck,
)

DECK = """* qualification fixture: single-balanced mixer core
.MODEL QGEN NPN(IS=4e-17 BF=90 VAF=45 IKF=3m RB=200 RE=3 RC=90
+ CJE=35f CJC=30f TF=10p)
V1 vcc 0 DC 5
RC1 vcc outp 500
RC2 vcc outn 500
Q1 outp lop com QGEN
Q2 outn lon com QGEN
Q3 com rf 0 QGEN
VLO lop 0 DC 2.5
VLOB lon 0 DC 2.5
VRF rf 0 DC 0.85 AC 1
.AC DEC 5 1MEG 10G
.END
"""

MEASUREMENTS = (
    dc_voltage("v_outp", "outp"),
    dc_differential("v_diff", "outp", "outn"),
    ac_gain("gain_db", "outp"),
    ac_bandwidth("bw_hz", "outp"),
)


def _corners():
    return corners_from_tolerances({"V1": (5.0, 0.1)},
                                   passive_tols={"R": 0.1})


@pytest.fixture(scope="module")
def report():
    return qualify_deck(DECK, _corners(), MEASUREMENTS, name="mixer",
                        executor="serial")


class TestMeasurement:
    def test_kinds_map_to_analyses(self):
        assert dc_voltage("v", "outp").analysis == "dc"
        assert ac_gain("g", "outp").analysis == "ac"
        assert ac_bandwidth("b", "outp").analysis == "ac"

    @pytest.mark.parametrize("bad", (
        dict(name="", kind="dc_voltage", node="outp"),
        dict(name="x", kind="bogus", node="outp"),
        dict(name="x", kind="dc_voltage", node=""),
        dict(name="x", kind="dc_differential", node="outp"),
    ))
    def test_rejects_malformed(self, bad):
        with pytest.raises(VerificationError):
            Measurement(**bad)

    def test_round_trip(self):
        m = Measurement("g", "ac_gain_db", "outp", frequency=1e8)
        assert Measurement.from_dict(m.to_dict()) == m


class TestQualifyDeck:
    def test_one_outcome_per_corner_in_order(self, report):
        corners = _corners()
        assert len(report) == 27
        assert [o.corner for o in report.outcomes] == \
            [c.name for c in corners]
        assert all(o.solved for o in report.outcomes)

    def test_measurements_and_quantities_recorded(self, report):
        outcome = report.outcomes[0]
        assert set(outcome.measurements) == {"v_outp", "v_diff",
                                             "gain_db", "bw_hz"}
        assert set(outcome.quantities) >= {"Q1", "Q2", "Q3", "RC1", "V1"}
        assert outcome.quantities["Q3"]["ic_a"] > 0.0

    def test_envelope_and_nominal(self, report):
        env = report.envelope()
        assert env["v_outp"]["min"] < env["v_outp"]["max"]
        # Low resistors + high supply give the highest DC output level.
        assert env["v_outp"]["max_corner"] == "temp=-20C/R=lo/V1=max"
        nominal = report.nominal_measurements()
        assert report.stats["nominal_corner"] == "temp=27C/R=nom/V1=nom"
        assert env["v_outp"]["min"] <= nominal["v_outp"] \
            <= env["v_outp"]["max"]

    def test_default_rules_pass(self, report):
        assert report.passed()
        assert report.violations() == []
        assert report.stats["failures"] == 0
        assert report.stats["points"] == 27

    def test_tightened_stress_rule_fails_with_named_device(self):
        rules = (StressRule("tight", "bjt", "ic_a", limit=2e-3),)
        flagged = qualify_deck(DECK, _corners(), MEASUREMENTS,
                               rules=rules, executor="serial")
        assert not flagged.passed()
        assert flagged.error_violation_count() > 0
        corner, violation = flagged.violations()[0]
        assert violation.device == "Q3"  # the tail device carries 2x Ic
        assert corner in {c.name for c in _corners()}
        assert "Q3" in flagged.table()

    def test_warn_severity_does_not_fail(self):
        rules = (StressRule("warn-ic", "bjt", "ic_a", limit=2e-3,
                            severity="warn"),)
        flagged = qualify_deck(DECK, _corners(), MEASUREMENTS,
                               rules=rules, executor="serial")
        assert flagged.passed()
        assert len(flagged.violations()) > 0
        assert flagged.error_violation_count() == 0

    def test_spec_headroom_judges_worst_corner(self, report):
        env = report.envelope()
        specs = SpecSet("mixer", [
            Spec("gain_db", env["gain_db"]["min"] - 1.0,
                 kind=BoundKind.LOWER),
            Spec("v_outp", env["v_outp"]["max"] - 0.1,
                 kind=BoundKind.UPPER),
        ])
        rows = {h.spec: h for h in report.headroom(specs)}
        assert rows["gain_db"].satisfied
        assert rows["gain_db"].corner == env["gain_db"]["min_corner"]
        assert not rows["v_outp"].satisfied
        assert rows["v_outp"].measured == env["v_outp"]["max"]
        assert not report.passed(specs)

    def test_spec_without_data_never_passes(self, report):
        specs = SpecSet("mixer", [Spec("unmeasured", 1.0,
                                       kind=BoundKind.LOWER)])
        (row,) = report.headroom(specs)
        assert math.isnan(row.measured)
        assert not row.satisfied
        assert not report.passed(specs)

    def test_json_round_trip(self, report):
        rebuilt = QualificationReport.from_json(report.to_json())
        assert rebuilt.envelope() == report.envelope()
        assert rebuilt.passed() == report.passed()
        assert [o.to_dict() for o in rebuilt.outcomes] == \
            [o.to_dict() for o in report.outcomes]

    def test_measurement_error_becomes_failed_corners(self):
        bad = (dc_voltage("v_missing", "no_such_node"),)
        report = qualify_deck(DECK, _corners(), bad, executor="serial",
                              on_error="skip")
        assert len(report.failed_corners()) == 27
        assert not report.passed()
        failure = report.outcomes[0].failure
        assert "no_such_node" in failure["error"]
        assert "FAILED" in report.table()


class TestCornerEvaluator:
    def test_needs_deck_text_and_corner_set(self):
        with pytest.raises(VerificationError, match="deck text"):
            CornerEvaluator(object(), _corners(), MEASUREMENTS)
        with pytest.raises(VerificationError, match="CornerSet"):
            CornerEvaluator(DECK, [1, 2], MEASUREMENTS)
        with pytest.raises(VerificationError, match="measurement"):
            CornerEvaluator(DECK, _corners(), ())

    def test_prime_compiles_one_deck_per_group(self):
        evaluator = CornerEvaluator(DECK, _corners(), MEASUREMENTS)
        assert evaluator.prime() == 9  # 3 temps x 3 R scales
        compiled = evaluator.compilations()
        # One engine serves every variant as lanes, for its DC and AC
        # measurements alike.
        assert compiled == 1
        # Evaluating after prime never recompiles: the service's
        # recompile guard watches exactly this invariant.
        qualify_deck(DECK, _corners(), MEASUREMENTS,
                     executor="serial", evaluator=evaluator)
        assert evaluator.compilations() == compiled

    def test_cache_tag_distinguishes_configs(self):
        base = CornerEvaluator(DECK, _corners(), MEASUREMENTS)
        other_deck = CornerEvaluator(DECK + "\n* note", _corners(),
                                     MEASUREMENTS)
        other_meas = CornerEvaluator(DECK, _corners(),
                                     (dc_voltage("v", "outn"),))
        other_rules = CornerEvaluator(
            DECK, _corners(), MEASUREMENTS,
            rules=(StressRule("x", "bjt", "ic_a", limit=1.0),))
        tags = {base.__cache_tag__, other_deck.__cache_tag__,
                other_meas.__cache_tag__, other_rules.__cache_tag__}
        assert len(tags) == 4

    def test_pickle_round_trip(self):
        evaluator = CornerEvaluator(DECK, _corners(), MEASUREMENTS)
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone.__cache_tag__ == evaluator.__cache_tag__
        point = _corners().nominal().values
        assert clone(dict(point)) == evaluator(dict(point))

    def test_result_cache_spans_runs(self):
        cache = ResultCache()
        first = qualify_deck(DECK, _corners(), MEASUREMENTS,
                             executor="serial", cache=cache)
        second = qualify_deck(DECK, _corners(), MEASUREMENTS,
                              executor="serial", cache=cache)
        assert second.stats["cache_hits"] == 27
        assert second.stats["evaluated"] == 0
        assert second.envelope() == first.envelope()

    def test_missing_axis_value_is_an_error(self):
        evaluator = CornerEvaluator(DECK, _corners(), MEASUREMENTS)
        with pytest.raises(VerificationError, match="axis"):
            evaluator({"V1": 5.0})

    def test_evaluator_for_other_corners_is_rejected(self):
        evaluator = CornerEvaluator(DECK, _corners(), MEASUREMENTS)
        wider = corners_from_tolerances(
            {"V1": (5.0, 0.1), "VRF": (0.85, 0.05)},
            passive_tols={"R": 0.1})
        assert len(wider) == 81
        # Run on this evaluator, the VRF levels would never reach the
        # deck: every corner would be solved at the deck's VRF.
        with pytest.raises(VerificationError, match="evaluator"):
            qualify_deck(DECK, wider, MEASUREMENTS, executor="serial",
                         evaluator=evaluator)
        with pytest.raises(VerificationError, match="evaluator"):
            qualify_deck(DECK, _corners(), MEASUREMENTS[:1],
                         executor="serial", evaluator=evaluator)

    def test_one_compile_and_one_bias_solve_per_corner(self, compile_log,
                                                       monkeypatch):
        """A default 27-corner qualification with AC measurements parses
        the deck at most three times (corner defaults, measurement
        defaults, evaluator), compiles one engine whose lanes carry the
        nine temperature x R-scale variants, and solves every corner's
        bias in one stacked Newton run, once for its DC and AC
        measurements alike."""
        from repro.celldb.seed import seed_database
        from repro.spice import dcop, parser

        cells = {c.name: c for c in seed_database().cells()}
        parses, lanes = [], []
        parse_deck = parser.parse_deck
        newton_solve_batched = dcop.newton_solve_batched

        def counted_parse(text, *args, **kwargs):
            parses.append(text)
            return parse_deck(text, *args, **kwargs)

        def counted_newton(circuit, x0, *args, **kwargs):
            lanes.append(len(x0))
            return newton_solve_batched(circuit, x0, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_deck", counted_parse)
        monkeypatch.setattr(dcop, "newton_solve_batched", counted_newton)
        report = qualify_cell(cells["PHASE90-IF"], executor="serial")
        assert len(report) == 27 and report.stats["failures"] == 0
        assert any(name.startswith("gain_db_")
                   for name in report.outcomes[0].measurements)
        assert len(compile_log) == 1
        assert len(parses) <= 3
        assert lanes == [27]


class TestDefaults:
    def test_default_corners_pick_the_supply(self):
        corners = default_corners(DECK)
        assert len(corners) == 27
        supply = corners.axis("V1")
        assert supply.target == "V1"
        assert supply.value_of("nom") == 5.0

    def test_default_measurements_cover_outputs_and_ac(self):
        names = {m.name for m in default_measurements(DECK)}
        assert {"v_outp", "v_outn", "gain_db_outp",
                "bw_hz_outp"} <= names

    def test_qualify_cell_uses_the_schematic(self):
        from repro.celldb.seed import seed_database

        cells = {c.name: c for c in seed_database().cells()}
        report = qualify_cell(cells["PHASE90-IF"], executor="serial")
        assert report.name == "PHASE90-IF"
        assert len(report) == 27
        assert report.passed()

    def test_qualify_cell_without_schematic_is_an_error(self):
        from repro.celldb.seed import seed_database

        cells = {c.name: c for c in seed_database().cells()}
        with pytest.raises(VerificationError, match="schematic"):
            qualify_cell(cells["IF-BPF-1300"])
