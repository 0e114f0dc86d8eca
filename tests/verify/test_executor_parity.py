"""Bit-identity of qualification across every sweep executor.

Mirrors ``tests/sweep/test_batched_dc.py``: the serial *scalar* path
(``batch=False``) is the reference; serial/process/auto blocked
runs must reproduce its corner outcomes, stress verdicts, and failure
records exactly.
"""

import pytest

from repro.verify import (
    StressRule,
    ac_bandwidth,
    ac_gain,
    corners_from_tolerances,
    dc_differential,
    dc_voltage,
    qualify_deck,
)

DECK = """* parity fixture: single-balanced mixer core
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

# A rule tight enough to fire at some corners keeps stress verdicts in
# the comparison, not just measurements.
RULES = (
    StressRule("ic", "bjt", "ic_a", limit=20e-3),
    StressRule("edge", "resistor", "power_w", limit=35e-6),
)

BAD_MEASUREMENTS = (dc_voltage("v_missing", "no_such_node"),)

EXECUTOR_MATRIX = (
    {"executor": "serial"},
    {"executor": "process", "jobs": 2},
    {"executor": "auto"},
)


def _corners():
    return corners_from_tolerances({"V1": (5.0, 0.1)},
                                   passive_tols={"R": 0.1})


def _outcome_records(report):
    return [outcome.to_dict() for outcome in report.outcomes]


@pytest.fixture(scope="module")
def scalar_reference():
    return qualify_deck(DECK, _corners(), MEASUREMENTS, rules=RULES,
                        executor="serial", batch=False)


@pytest.fixture(scope="module")
def scalar_failure_reference():
    return qualify_deck(DECK, _corners(), BAD_MEASUREMENTS,
                        executor="serial", batch=False,
                        on_error="skip")


class TestCleanParity:
    def test_scalar_reference_is_clean(self, scalar_reference):
        assert scalar_reference.stats["failures"] == 0
        assert len(scalar_reference.violations()) > 0

    @pytest.mark.parametrize(
        "config", EXECUTOR_MATRIX,
        ids=lambda c: c["executor"])
    def test_blocked_outcomes_match_scalar(self, config,
                                           scalar_reference):
        report = qualify_deck(DECK, _corners(), MEASUREMENTS,
                              rules=RULES, batch="auto", **config)
        assert _outcome_records(report) == \
            _outcome_records(scalar_reference)
        assert report.envelope() == scalar_reference.envelope()
        assert [(c, v.to_dict()) for c, v in report.violations()] == \
            [(c, v.to_dict())
             for c, v in scalar_reference.violations()]
        assert report.passed() == scalar_reference.passed()


class TestFailureParity:
    def test_scalar_reference_fails_every_corner(
            self, scalar_failure_reference):
        assert len(scalar_failure_reference.failed_corners()) == 27

    @pytest.mark.parametrize(
        "config", EXECUTOR_MATRIX,
        ids=lambda c: c["executor"])
    def test_blocked_failure_records_match_scalar(
            self, config, scalar_failure_reference):
        report = qualify_deck(DECK, _corners(), BAD_MEASUREMENTS,
                              batch="auto", on_error="skip", **config)
        assert _outcome_records(report) == \
            _outcome_records(scalar_failure_reference)

    def test_retry_policy_attempts_match(self):
        # Netlist errors are not retryable (only ConvergenceError is),
        # so both paths must record exactly one attempt per corner.
        scalar = qualify_deck(DECK, _corners(), BAD_MEASUREMENTS,
                              executor="serial", batch=False,
                              on_error="retry", retries=1)
        blocked = qualify_deck(DECK, _corners(), BAD_MEASUREMENTS,
                               executor="auto", batch="auto",
                               on_error="retry", retries=1)
        assert _outcome_records(blocked) == _outcome_records(scalar)
        assert {o.failure["attempts"] for o in blocked.outcomes} == {1}
        assert blocked.stats["retries"] == scalar.stats["retries"] == 0
