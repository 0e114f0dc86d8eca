"""ring101: the Table 1 ring scaled to 101 stages (1719 unknowns).

The only circuit above the solver cost model's dense floor, so it alone
exercises sparse assembly and SuperLU; at 8.7x sparse the dense/sparse
choice cannot flip.  Each operation builds the ring afresh and runs one
3 ns transient; the first 0.3 ns is checked against a frozen waveform
(the ring is autonomous, so later waveforms diverge).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from checks import check_waveform
from common import mean, median, trim_heap
from speed import SpeedSampler

STAGES = 101
STOP_TIME = 3e-9
PROBE_STOP_TIME = 0.5e-9
MAX_STEP = 10e-12
FOLLOWER = "N1.2-6D"
PAIR = "N1.2-12D"
REFERENCE = (Path(__file__).resolve().parent.parent / "reference"
             / "ring101_waveform.json")


def build(models):
    from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator

    return build_ring_oscillator(models[PAIR], follower_model=models[FOLLOWER],
                                 spec=RingOscillatorSpec(stages=STAGES))


def simulate(circuit, stop_time=STOP_TIME):
    from repro.spice import Simulator

    return Simulator(circuit).transient(stop_time=stop_time,
                                        max_step=MAX_STEP, initial_step=1e-12)


class Workload:

    def __init__(self, run, root: Path):
        self.run = run
        self.reference = json.loads(REFERENCE.read_text())

    def setup(self):
        from repro.geometry import ModelParameterGenerator, default_reference

        generator = ModelParameterGenerator(reference=default_reference())
        return {s: generator.generate(s) for s in (PAIR, FOLLOWER)}

    def teardown(self, state) -> None:
        pass

    def measure(self, models) -> dict:
        run = self.run
        times, scaled = [], []
        with SpeedSampler(not run.one_pass) as sampler:
            while not times or run.fits(median(times)):
                result, wall, reference = sampler.time(
                    lambda: simulate(build(models)))
                times.append(wall)
                scaled.append(reference)
                self._check(result)
                # One ring alive at a time, on a trimmed heap, keeps peak
                # memory independent of how many transients fit in the
                # window (circuit and engine refer to each other, so
                # only the cycle collector frees them).
                del result
                gc.collect()
                trim_heap()
        run.details["transients"] = [round(t, 4) for t in times]
        run.details["transients_ref_s"] = [round(t, 4) for t in scaled]
        run.kernel_samples += sampler.samples
        run.details["wall_throughput"] = STOP_TIME * 1e9 / mean(times)
        run.latency(times)
        return {"throughput": STOP_TIME * 1e9 / mean(scaled)}

    def _check(self, result) -> None:
        run = self.run
        run.attempt()
        states = {node: result.voltage(node)
                  for node in self.reference["nodes"]}
        problems, worst = check_waveform(result.times, states,
                                         self.reference)
        run.deviation(worst)
        for problem in problems:
            run.fail(problem)

    def probe(self, models) -> float:
        """Seconds for one short 101-stage transient on a fresh ring."""
        t0 = time.perf_counter()
        simulate(build(models), stop_time=PROBE_STOP_TIME)
        return time.perf_counter() - t0
