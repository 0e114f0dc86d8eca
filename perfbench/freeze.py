"""Regenerate the frozen reference outputs under ``reference/``.

Run from the repository root on the commit whose outputs the benchmark
should hold later commits to::

    python3 perfbench/freeze.py            # outputs: waveform, MC, verdicts
    python3 perfbench/freeze.py --choices  # also the recorded choices

``table1.json`` is not generated: it holds the Table 1 frequencies
EXPERIMENTS.md reports.  ``--choices`` runs every workload on a few
seeds and keeps the union of the dense/sparse and executor choices they
made, so a later run that chooses differently is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference"
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]


def _dump(name: str, data) -> None:
    (OUT / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def freeze_ring101() -> None:
    import numpy as np

    from workloads import ring101

    from repro.geometry import ModelParameterGenerator, default_reference

    generator = ModelParameterGenerator(reference=default_reference())
    models = {s: generator.generate(s) for s in (ring101.PAIR,
                                                 ring101.FOLLOWER)}
    result = ring101.simulate(ring101.build(models))
    grid = np.linspace(0.0, 0.3e-9, 31)
    nodes = [f"s{k}{side}" for k in range(ring101.STAGES) for side in "pn"]
    _dump("ring101_waveform.json", {
        "grid": grid.tolist(),
        "nodes": {n: [round(float(v), 6) for v in
                      np.interp(grid, result.times, result.voltage(n))]
                  for n in nodes},
    })


def freeze_mc_corners() -> None:
    import numpy as np

    from checks import verdicts
    from workloads import mc_corners

    from repro.celldb import seed_database

    deck = (Path.cwd() / "examples" / "decks" / "ce_stage.cir").read_text()
    dc_fn, ac_fn = mc_corners.evaluators(deck)
    cells = [c for c in seed_database().cells()
             if (c.schematic or "").strip()]
    reports = {c.name: mc_corners.qualify(c, executor="serial")
               for c in cells}
    _dump("mc_corners.json", {
        "dc_anchor_values": [dc_fn({"VB": v}) for v in mc_corners.DC_ANCHORS],
        "ac_anchor_gain_db": [np.asarray(ac_fn({"VB": v})).tolist()
                              for v in mc_corners.DC_ANCHORS],
        "irr_anchor_db": list(mc_corners.irr(
            mc_corners.IRR_ANCHOR_POINTS, mc_corners.IRR_ANCHOR_SEED,
            executor="serial")),
        "passed": {name: r["passed"] for name, r in reports.items()},
        "verdicts": {name: verdicts(r) for name, r in reports.items()},
    })


def freeze_choices() -> None:
    """The union of the choices of two short runs of every workload."""
    from common import cores
    from run import WORKLOADS

    union: dict[str, list] = {}
    for workload in WORKLOADS:
        seen: set = set()
        for seed in (1, 2):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", "8"],
                check=True, capture_output=True, text=True).stdout
            details = json.loads(out.strip().splitlines()[-2])
            seen.update(details["choices"])
        union[workload] = sorted(seen)
    _dump("choices.json", {"cores": cores(), "workloads": union})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--choices", action="store_true")
    args = parser.parse_args()
    freeze_ring101()
    freeze_mc_corners()
    if args.choices:
        freeze_choices()


if __name__ == "__main__":
    main()
