"""table1_ring: the paper's Table 1, six 5-stage ring transients.

Generates the six pair-shape models plus the N1.2-6D follower, runs the
Fig. 11 ring (87 unknowns) to 10 ns for each and reads off the
free-running frequency; the Fig. 9 fT-peak ordering is checked on
models from the same generator.  Shapes are run in a seeded order,
cycling until the measured window is spent; every shape runs at least
once.  Nothing here touches dispatch, caches or the service.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from checks import check_peak_order, check_table1
from common import mean, median
from speed import SpeedSampler

STOP_TIME = 10e-9
PROBE_STOP_TIME = 2e-9
FOLLOWER = "N1.2-6D"
REFERENCE = (Path(__file__).resolve().parent.parent / "reference"
             / "table1.json")


class Workload:

    def __init__(self, run, root: Path):
        self.run = run
        self.reference = json.loads(REFERENCE.read_text())

    def setup(self):
        from repro.geometry import (FIG9_SHAPES, TABLE1_SHAPES,
                                    ModelParameterGenerator,
                                    default_reference)

        generator = ModelParameterGenerator(reference=default_reference())
        return {
            "follower": generator.generate(FOLLOWER),
            "models": {s: generator.generate(s) for s in TABLE1_SHAPES},
            "fig9": {s: generator.generate(s) for s in FIG9_SHAPES},
        }

    def teardown(self, state) -> None:
        pass

    def measure(self, state) -> dict:
        from repro.devices import peak_ft
        from repro.rfsystems import RingOscillatorSpec, run_ring_oscillator

        run = self.run
        spec = RingOscillatorSpec()
        rng = np.random.default_rng([run.seed, 1])
        order = [list(state["models"])[i]
                 for i in rng.permutation(len(state["models"]))]
        times: dict[str, list] = {s: [] for s in order}
        scaled: dict[str, list] = {s: [] for s in order}
        walls: list[float] = []
        frequencies: dict[str, float] = {}
        done = 0
        with SpeedSampler(not run.one_pass) as sampler:
            while done < len(order) or run.fits(median(walls)):
                shape = order[done % len(order)]
                result, wall, reference = sampler.time(
                    lambda: run_ring_oscillator(
                        state["models"][shape],
                        follower_model=state["follower"], spec=spec,
                        stop_time=STOP_TIME))
                walls.append(wall)
                times[shape].append(wall)
                scaled[shape].append(reference)
                run.attempt()
                if not result.oscillating:
                    run.fail(f"{shape}: ring did not oscillate")
                frequencies.setdefault(shape, result.frequency)
                done += 1
                if done == len(order):
                    self._check_pass(state, frequencies, peak_ft)
        run.details["transients"] = {s: [round(t, 4) for t in ts]
                                     for s, ts in times.items()}
        run.details["frequencies_ghz"] = {
            s: round(f / 1e9, 4) for s, f in frequencies.items()}
        run.kernel_samples += sampler.samples
        run.details["wall_throughput"] = self._rate(times)
        run.latency(walls)
        return {"throughput": self._rate(scaled)}

    @staticmethod
    def _rate(times: dict) -> float:
        """Simulated ns per second over one mean transient per shape."""
        per_shape = [mean(ts) for ts in times.values()]
        return STOP_TIME * 1e9 * len(per_shape) / sum(per_shape)

    def _check_pass(self, state, frequencies, peak_ft) -> None:
        """Table 1 against the seed, then the Fig. 9 ordering."""
        run = self.run
        problems, worst = check_table1(frequencies,
                                       self.reference["frequency_hz"])
        run.deviation(worst)
        shapes = list(state["fig9"])
        peaks = {s: peak_ft(m, 1e-4, 2e-2, points=61).ic
                 for s, m in state["fig9"].items()}
        problems += check_peak_order(peaks, shapes)
        run.attempt()
        for problem in problems:
            run.fail(problem)

    def probe(self, state) -> float:
        """Seconds for one short best-shape ring transient."""
        from repro.rfsystems import run_ring_oscillator

        t0 = time.perf_counter()
        run_ring_oscillator(state["models"]["N1.2-12D"],
                            follower_model=state["follower"],
                            stop_time=PROBE_STOP_TIME)
        return time.perf_counter() - t0
