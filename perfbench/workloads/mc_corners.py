"""mc_corners: a yield and qualification campaign through ``run_sweep``.

One campaign runs blocked Monte-Carlo DC and AC on ``ce_stage.cir``, the
Section 2 image-rejection Monte Carlo, and a fresh default-corner
qualification of every seeded cell that has a schematic, all with
``executor="auto"`` and one worker per core.  Compiles stay inside the
timed region, as ``repro verify`` pays them.  No transient runs.

The Monte-Carlo inputs come from the seed, except a few fixed anchor
points whose outputs the seed froze; sampled points are re-evaluated
through the scalar path, and every corner verdict is compared with the
frozen seed verdicts.
"""

from __future__ import annotations

import json
import time
from functools import partial
from pathlib import Path

import numpy as np

from checks import check_values, check_verdicts, verdicts
from common import cores, median, stop_children
from speed import kernel_seconds, scale

DC_POINTS = 1000
AC_POINTS = 400
IRR_POINTS = 2000
DC_ANCHORS = (0.6, 0.7, 0.8, 0.85)  #: VB levels with frozen outputs
IRR_ANCHOR_SEED, IRR_ANCHOR_POINTS = 1996, 64
SCALAR_SAMPLES = 4  #: blocked points re-evaluated scalar, per sweep
PROBE_CELLS = 4
CHECK_SECONDS = 0.2  #: the output checks after each campaign
MISMATCH = (1.5, 0.02)  #: phase sigma (deg), gain sigma
REFERENCE = (Path(__file__).resolve().parent.parent / "reference"
             / "mc_corners.json")


def _noop(params):
    return 0.0


def evaluators(deck: str):
    from repro.sweep import (BlockedACSweep, BlockedDCSweep, ac_gain_db,
                             node_voltage)

    return (BlockedDCSweep(deck, measure=node_voltage("c")),
            BlockedACSweep(deck, measure=ac_gain_db("c")))


def irr(points: int, seed: int, **dispatch):
    from repro.geometry import MismatchSpec, monte_carlo_image_rejection

    return monte_carlo_image_rejection(points, MismatchSpec(*MISMATCH),
                                       seed=seed, **dispatch).values


def qualify(cell, **dispatch) -> dict:
    from repro.verify import qualify_cell

    return qualify_cell(cell, **dispatch).to_dict()


class Workload:

    def __init__(self, run, root: Path):
        self.run = run
        self.deck = (root / "examples" / "decks" / "ce_stage.cir").read_text()
        self.reference = json.loads(REFERENCE.read_text())

    def setup(self):
        from repro.celldb import seed_database
        from repro.sweep import run_sweep

        cells = [cell for cell in seed_database().cells()
                 if (cell.schematic or "").strip()]
        # Spin the persistent pool up, as any parallel sweep first does.
        run_sweep(_noop, [{"i": i} for i in range(2 * cores())],
                  executor="process", jobs=cores(), chunk_size=1)
        return cells

    def teardown(self, cells) -> None:
        stop_children()

    def _campaign(self, cells, index: int, latencies: list):
        from repro.sweep import run_sweep

        rng = np.random.default_rng([self.run.seed, 2, index])
        dispatch = {"executor": "auto", "jobs": cores()}
        dc_fn, ac_fn = evaluators(self.deck)
        dc_in = list(DC_ANCHORS) + list(
            rng.uniform(0.60, 0.85, DC_POINTS - len(DC_ANCHORS)))
        ac_in = list(DC_ANCHORS) + list(
            rng.uniform(0.60, 0.85, AC_POINTS - len(DC_ANCHORS)))
        irr_seed = int(rng.integers(2**31))
        stages = [
            partial(run_sweep, dc_fn, [{"VB": float(v)} for v in dc_in],
                    **dispatch),
            partial(run_sweep, ac_fn, [{"VB": float(v)} for v in ac_in],
                    **dispatch),
            partial(irr, IRR_POINTS, irr_seed, **dispatch),
        ] + [partial(qualify, cell, **dispatch) for cell in cells]
        # The pool is idle between stages, so kernel samples there see
        # the machine, not the campaign; each stage is scaled by the
        # samples at its two ends.
        samples = self.run.kernel_samples
        samples.append(kernel_seconds())
        results, walls, reference = [], [], 0.0
        for stage in stages:
            t0 = time.perf_counter()
            results.append(stage())
            walls.append(time.perf_counter() - t0)
            samples.append(kernel_seconds())
            reference += scale(walls[-1], samples[-2:])
        dc, ac, irr_values = results[:3]
        reports = {cell.name: r for cell, r in zip(cells, results[3:])}
        latencies.extend(walls[3:])
        points = (len(dc.values) + len(ac.values) + len(irr_values)
                  + sum(r["corners"] for r in reports.values()))
        outputs = {"dc_in": dc_in, "dc": dc.values, "ac_in": ac_in,
                   "ac": ac.values, "irr_seed": irr_seed,
                   "irr": irr_values, "reports": reports}
        return points, sum(walls), reference, outputs

    def measure(self, cells) -> dict:
        run = self.run
        rates, scaled, walls, latencies = [], [], [], []
        while not walls or run.fits(median(walls) + CHECK_SECONDS):
            count, wall, reference, outputs = self._campaign(
                cells, len(walls), latencies)
            rates.append(count / wall)
            scaled.append(count / reference)
            walls.append(wall)
            self._check(outputs, len(walls) - 1)
        run.details["campaign_points_per_s"] = [round(r, 1) for r in rates]
        run.details["wall_throughput"] = median(rates)
        run.latency(latencies)
        return {"throughput": median(scaled)}

    # -- output checks -------------------------------------------------------

    def _record(self, problems, deviation) -> None:
        self.run.attempt()
        self.run.deviation(deviation)
        for problem in problems:
            self.run.fail(problem)

    def _check(self, outputs: dict, index: int) -> None:
        ref = self.reference
        anchors = len(DC_ANCHORS)
        self._record(*check_values("MC DC anchors", outputs["dc"][:anchors],
                                   ref["dc_anchor_values"]))
        self._record(*check_values(
            "MC AC anchors", [np.asarray(v) for v in outputs["ac"][:anchors]],
            ref["ac_anchor_gain_db"]))
        # Seeded points: the blocked values against scalar evaluation.
        rng = np.random.default_rng([self.run.seed, 3, index])
        dc_fn, ac_fn = evaluators(self.deck)
        for label, fn, inputs, values in (
                ("MC DC", dc_fn, outputs["dc_in"], outputs["dc"]),
                ("MC AC", ac_fn, outputs["ac_in"], outputs["ac"])):
            picks = rng.choice(len(inputs), SCALAR_SAMPLES, replace=False)
            self._record(*check_values(
                f"{label} blocked vs scalar",
                [np.asarray(values[i]) for i in picks],
                [np.asarray(fn({"VB": float(inputs[i])})) for i in picks]))
        prefix = IRR_ANCHOR_POINTS // 4
        self._record(*check_values(
            "IRR Monte Carlo prefix", outputs["irr"][:prefix],
            irr(prefix, outputs["irr_seed"], executor="serial")))
        for name, report in outputs["reports"].items():
            want = ref["verdicts"].get(name)
            if want is None:
                self._record([f"{name}: no frozen verdicts"], 1.0)
                continue
            found, dev = check_verdicts(name, verdicts(report), want)
            if report["passed"] != ref["passed"][name]:
                found.append(f"{name}: passed={report['passed']}, seed "
                             f"passed={ref['passed'][name]}")
            self._record(found, dev)

    def probe(self, cells) -> float:
        """Seconds for serial qualifications of the first few cells."""
        t0 = time.perf_counter()
        for cell in cells[:PROBE_CELLS]:
            qualify(cell, executor="serial")
        return time.perf_counter() - t0


    def check(self, cells) -> None:
        """The frozen image-rejection anchor, once per run."""
        self._record(*check_values(
            "IRR anchor", irr(IRR_ANCHOR_POINTS, IRR_ANCHOR_SEED,
                              executor="serial"),
            self.reference["irr_anchor_db"]))
