"""Every output check passes on the seed's outputs and fails on a
perturbed reference."""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import common
import layers
import run

BENCH = Path(__file__).resolve().parent.parent
REFERENCE = BENCH / "reference"


def _load(name):
    return json.loads((REFERENCE / name).read_text())


# -- Table 1 and Fig. 9 -------------------------------------------------------


def test_table1_check_passes_on_the_seed_values():
    reference = _load("table1.json")["frequency_hz"]
    problems, worst = checks.check_table1(dict(reference), reference)
    assert problems == [] and worst == 0.0


def test_table1_check_fails_on_a_wrong_winner():
    reference = _load("table1.json")["frequency_hz"]
    swapped = dict(reference)
    swapped["N1.2-12D"], swapped["N1.2-6D"] = (reference["N1.2-6D"],
                                               reference["N1.2-12D"])
    problems, _ = checks.check_table1(swapped, reference)
    assert any("fastest shape is N1.2-6D" in p for p in problems)
    # A perturbed reference flags the measured frequencies too.
    perturbed = dict(reference, **{"N1.2-6S": reference["N1.2-6S"] * 1.05})
    problems, worst = checks.check_table1(reference, perturbed)
    assert problems and worst > checks.TABLE1_RTOL


def test_fig9_order_check():
    shapes = ["N1.2-6D", "N1.2-12D", "N1.2-24D"]
    assert checks.check_peak_order(dict(zip(shapes, (1e-3, 2e-3, 3e-3))),
                                   shapes) == []
    assert checks.check_peak_order(dict(zip(shapes, (1e-3, 3e-3, 2e-3))),
                                   shapes)


# -- waveform -----------------------------------------------------------------


def test_waveform_check_fails_on_a_shifted_reference():
    reference = _load("ring101_waveform.json")
    grid = reference["grid"]
    states = {n: np.asarray(v) for n, v in reference["nodes"].items()}
    assert checks.check_waveform(grid, states, reference) == ([], 0.0)
    shifted = copy.deepcopy(reference)
    shifted["nodes"]["s50p"] = [v + 0.3 for v in shifted["nodes"]["s50p"]]
    problems, worst = checks.check_waveform(grid, states, shifted)
    assert problems and worst == pytest.approx(0.3)


# -- corner verdicts ----------------------------------------------------------


def test_verdict_check_fails_on_a_flipped_corner():
    reference = _load("mc_corners.json")
    name = "UPMIX-1300"
    want = reference["verdicts"][name]
    assert checks.check_verdicts(name, copy.deepcopy(want), want)[0] == []
    flipped = copy.deepcopy(want)
    flipped[5]["errors"] = flipped[5]["errors"] + ["Q9:vce_max"]
    assert checks.check_verdicts(name, flipped, want)[0]
    unsolved = copy.deepcopy(want)
    unsolved[0]["solved"] = False
    assert checks.check_verdicts(name, unsolved, want)[0]
    drifted = copy.deepcopy(want)
    key = sorted(drifted[3]["measurements"])[0]
    drifted[3]["measurements"][key] *= 1.001
    assert checks.check_verdicts(name, drifted, want)[0]


# -- service payloads ---------------------------------------------------------


def test_payload_check_fails_on_altered_payloads():
    dc = {"nodes": {"v(out)": 2.5, "v(vcc)": 5.0}}
    assert checks.compare_payload("dc", dc, dc)[0] == []
    altered = {"nodes": {"v(out)": 2.501, "v(vcc)": 5.0}}
    assert checks.compare_payload("dc", altered, dc)[0]

    sweep = {"values": [[1.0, 2.0], [3.0, 4.0]]}
    assert checks.compare_payload("ac_sweep", sweep, sweep)[0] == []
    assert checks.compare_payload(
        "ac_sweep", {"values": [[1.0, 2.0], [3.0, 4.1]]}, sweep)[0]
    assert checks.compare_payload(
        "dc_sweep", {"values": [1.0, None]}, {"values": [1.0, 2.0]})[0]

    tran = {"times_s": [0.0, 1.0, 2.0], "voltages": [0.0, 1.0, 0.5]}
    assert checks.compare_payload("transient", tran, tran)[0] == []
    assert checks.compare_payload(
        "transient", dict(tran, voltages=[0.0, 1.0, 0.6]), tran)[0]

    report = {"passed": True, "outcomes": [{
        "corner": "nom", "failure": None, "violations": [],
        "measurements": {"v_out": 2.5}}]}
    assert checks.compare_payload("verify", report, report)[0] == []
    assert checks.compare_payload(
        "verify", dict(report, passed=False), report)[0]


def test_service_check_compares_repeated_payloads(monkeypatch):
    from workloads import service_mix

    want = {"nodes": {"v(out)": 2.5}}
    monkeypatch.setattr(service_mix, "direct_payload",
                        lambda kind, deck, params: want)
    fresh = service_mix.Request(0.0, "dc", "t0", "d",
                                outcome={"payload": want})
    stale = service_mix.Request(0.1, "dc", "t0", "d", fresh=False,
                                outcome={"payload": {"nodes": {
                                    "v(out)": 2.6}}})
    workload = service_mix.Workload.__new__(service_mix.Workload)
    workload.run = common.Run("service_mix", 1, 1.0, one_pass=False)
    workload.schedule = types.SimpleNamespace(
        decks={"d": None}, phases=[("low", 6.0, [fresh, stale])])
    workload.check(None)
    assert workload.run.attempted == 2 and workload.run.failed == 1
    assert workload.run.mismatches[0].startswith("repeated dc payload")


# -- the benchmark's own declarations ---------------------------------------


def test_benchmark_json_lists_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ring101",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
