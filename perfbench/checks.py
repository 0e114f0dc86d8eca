"""Output checks: each returns the list of problems it found.

Pure functions over plain data, so the tests can feed them a perturbed
reference (a wrong Table 1 winner, a flipped corner verdict, an altered
service payload) and see them fail.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance of values the seed computed and froze.  The same
#: code reproduces them to the last bit; the slack admits a change that
#: legitimately reorders floating-point work.
FROZEN_RTOL = 1e-6
#: Table 1 frequencies against the seed's values (EXPERIMENTS.md).
TABLE1_RTOL = 0.02
TABLE1_WINNER = "N1.2-12D"  #: the paper's conclusion
#: Node voltages of the 101-stage ring against the frozen waveform over
#: its first 0.3 ns; the ring is autonomous, so later waveforms diverge.
WAVEFORM_ATOL_V = 0.2


def relative_deviation(got, want) -> float:
    """Largest ``|got - want| / max(|want|, 1e-12)`` over matching arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if got.size == 0:
        return 0.0
    both_nan = np.isnan(got) & np.isnan(want)
    scale = np.maximum(np.abs(want), 1e-12)
    dev = np.where(both_nan, 0.0, np.abs(got - want) / scale)
    dev = np.where(np.isnan(dev), math.inf, dev)
    return float(np.max(dev))


def check_values(label: str, got, want) -> tuple[list, float]:
    """Values the seed froze, reproduced within :data:`FROZEN_RTOL`."""
    dev = relative_deviation(got, want)
    problems = [] if dev <= FROZEN_RTOL else [
        f"{label}: relative deviation {dev:.3g} exceeds {FROZEN_RTOL:g}"]
    return problems, (dev if math.isfinite(dev) else 1.0)


# -- Table 1 and Fig. 9 -------------------------------------------------------


def check_table1(frequencies: dict, reference: dict) -> tuple[list, float]:
    """Each shape's ring frequency near the seed's; the paper's winner."""
    problems = []
    worst = 0.0
    for shape, want in reference.items():
        got = frequencies.get(shape)
        if got is None:
            problems.append(f"{shape}: no frequency measured")
            continue
        dev = abs(got - want) / want
        worst = max(worst, dev)
        if dev > TABLE1_RTOL:
            problems.append(f"{shape}: {got / 1e9:.4f} GHz vs seed "
                            f"{want / 1e9:.4f} GHz ({dev:.1%})")
    if frequencies:
        winner = max(frequencies, key=frequencies.get)
        if winner != TABLE1_WINNER:
            problems.append(f"fastest shape is {winner}, the paper's "
                            f"Table 1 conclusion is {TABLE1_WINNER}")
    return problems, worst


def check_peak_order(peak_currents: dict, shapes) -> list:
    """Fig. 9: the fT-peak current grows strictly with emitter length."""
    values = [peak_currents[s] for s in shapes]
    if all(a < b for a, b in zip(values, values[1:])):
        return []
    return ["Fig. 9 peak currents not ordered with emitter size: "
            + ", ".join(f"{s}={v * 1e3:.2f} mA" for s, v in
                        zip(shapes, values))]


# -- waveforms ----------------------------------------------------------------


def check_waveform(times, states: dict, reference: dict) -> tuple[list, float]:
    """Node voltages against a frozen waveform on its time grid.

    ``states`` maps node name to the simulated voltage at ``times``;
    ``reference`` holds ``grid`` and ``nodes`` (name -> voltages).
    Returns the worst deviation in volts as the second element.
    """
    grid = np.asarray(reference["grid"], dtype=float)
    worst = 0.0
    for node, want in reference["nodes"].items():
        got = np.interp(grid, times, states[node])
        worst = max(worst, float(np.max(np.abs(got - np.asarray(want)))))
    problems = [] if worst <= WAVEFORM_ATOL_V else [
        f"waveform deviates {worst:.3f} V from the frozen seed waveform "
        f"(limit {WAVEFORM_ATOL_V} V)"]
    return problems, worst


# -- corner verdicts ----------------------------------------------------------


def verdicts(report: dict) -> list:
    """One verdict per corner of a ``QualificationReport.to_dict()``."""
    out = []
    for outcome in report["outcomes"]:
        out.append({
            "corner": outcome["corner"],
            "solved": outcome["failure"] is None,
            "errors": sorted(
                f"{v['device']}:{v['rule']}" for v in outcome["violations"]
                if v["severity"] == "error"),
            "measurements": outcome["measurements"],
        })
    return out


def check_verdicts(label: str, got: list, want: list) -> tuple[list, float]:
    """Every corner's verdict identical, its measurements within
    :data:`FROZEN_RTOL`."""
    problems = []
    worst = 0.0
    if [v["corner"] for v in got] != [v["corner"] for v in want]:
        return [f"{label}: corner list differs"], 1.0
    for g, w in zip(got, want):
        if (g["solved"], g["errors"]) != (w["solved"], w["errors"]):
            problems.append(
                f"{label} {g['corner']}: verdict solved={g['solved']} "
                f"errors={g['errors']}, seed solved={w['solved']} "
                f"errors={w['errors']}")
            worst = max(worst, 1.0)
            continue
        if w["measurements"] is None:
            continue
        names = sorted(w["measurements"])
        found, dev = check_values(
            f"{label} {g['corner']}",
            [_number(g["measurements"].get(n)) for n in names],
            [_number(w["measurements"][n]) for n in names])
        problems += found
        worst = max(worst, dev)
    return problems, worst


def _number(value) -> float:
    return math.nan if value is None else float(value)


# -- service payloads ---------------------------------------------------------


def compare_payload(kind: str, got: dict, want: dict) -> tuple[list, float]:
    """A service job's payload against the directly computed one."""
    if kind == "dc":
        names = sorted(want["nodes"])
        if sorted(got.get("nodes", {})) != names:
            return ["node set differs"], 1.0
        return check_values("node voltages",
                            [got["nodes"][n] for n in names],
                            [want["nodes"][n] for n in names])
    if kind == "ac":
        return check_values("magnitude_db", got.get("magnitude_db", []),
                            want["magnitude_db"])
    if kind in ("dc_sweep", "ac_sweep"):
        return check_values(
            "sweep values",
            [_number_list(v) for v in got.get("values", [])],
            [_number_list(v) for v in want["values"]])
    if kind == "verify":
        if got.get("passed") != want["passed"]:
            return [f"passed={got.get('passed')}, direct qualification "
                    f"passed={want['passed']}"], 1.0
        return check_verdicts("verify", verdicts(got), verdicts(want))
    if kind == "transient":
        # Both runs integrate the same autonomous ring from the same DC
        # point; compare voltages on a common grid over the window.
        t_end = min(got["times_s"][-1], want["times_s"][-1])
        grid = np.linspace(0.0, t_end, 50)
        a = np.interp(grid, got["times_s"], got["voltages"])
        b = np.interp(grid, want["times_s"], want["voltages"])
        dev = float(np.max(np.abs(a - b)))
        problems = [] if dev <= 1e-3 else [
            f"transient voltage deviates {dev:.3g} V"]
        return problems, dev
    raise ValueError(f"unknown payload kind {kind!r}")


def _number_list(value):
    if value is None:
        return math.nan
    if isinstance(value, list):
        return [_number(v) for v in value]
    return _number(value)
