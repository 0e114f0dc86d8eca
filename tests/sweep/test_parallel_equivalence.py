"""Bit-identity of serial and process sweep execution.

The orchestration contract says results are a function of the sweep
definition alone — chunking, per-point seeding and warm chains never
depend on the executor.  These tests pin that contract on the real
rewired hot paths: Monte-Carlo model generation, Monte-Carlo image
rejection, the Fig. 5 grid, and the warm-started fT sweep.
"""

import numpy as np
import pytest

from repro.devices import GummelPoonParameters
from repro.devices.ft import ft_curve
from repro.geometry import (
    MismatchSpec,
    monte_carlo_image_rejection,
    monte_carlo_models,
)
from repro.rfsystems import fig5_sweep
from repro.sweep import MonteCarloSampler, run_sweep

EXECUTORS = ("serial", "process")


def _draw_pair(params, rng):
    return (float(rng.standard_normal()), float(rng.uniform()))


class TestOrchestratorEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_seeded_sweep_identical_across_executors(self, executor):
        sampler = MonteCarloSampler(24, seed=11)
        reference = run_sweep(_draw_pair, sampler, executor="serial",
                              chunk_size=4)
        run = run_sweep(_draw_pair, MonteCarloSampler(24, seed=11),
                        executor=executor, jobs=2, chunk_size=4)
        assert run.values == reference.values


class TestMonteCarloModelsEquivalence:
    @pytest.mark.parametrize("executor", ("process",))
    def test_bit_identical_populations(self, executor):
        serial = monte_carlo_models("N1.2-6D", 12, seed=5)
        parallel = monte_carlo_models("N1.2-6D", 12, seed=5,
                                      executor=executor, jobs=2)
        for name in ("IS", "BF", "RB", "CJE", "TF"):
            np.testing.assert_array_equal(
                serial.parameter_values(name),
                parallel.parameter_values(name),
            )

    def test_jobs_argument_alone_matches_serial(self):
        serial = monte_carlo_models("N1.2-6D", 8, seed=3)
        jobs = monte_carlo_models("N1.2-6D", 8, seed=3, jobs=2)
        np.testing.assert_array_equal(serial.parameter_values("IS"),
                                      jobs.parameter_values("IS"))

    def test_explicit_seed_reproducible(self):
        a = monte_carlo_models("N1.2-6D", 6, seed=17)
        b = monte_carlo_models("N1.2-6D", 6, seed=17)
        np.testing.assert_array_equal(a.parameter_values("BF"),
                                      b.parameter_values("BF"))
        c = monte_carlo_models("N1.2-6D", 6, seed=18)
        assert not np.array_equal(a.parameter_values("BF"),
                                  c.parameter_values("BF"))


class TestMonteCarloImageRejectionEquivalence:
    @pytest.mark.parametrize("executor", ("process",))
    def test_bit_identical_yield_report(self, executor):
        mismatch = MismatchSpec(1.5, 0.02)
        serial = monte_carlo_image_rejection(40, mismatch, seed=2)
        parallel = monte_carlo_image_rejection(40, mismatch, seed=2,
                                               executor=executor, jobs=2)
        assert parallel.values == serial.values
        assert parallel.passed == serial.passed

    def test_sample_prefix_stable_under_population_growth(self):
        mismatch = MismatchSpec(1.5, 0.02)
        short = monte_carlo_image_rejection(10, mismatch, seed=4)
        long = monte_carlo_image_rejection(30, mismatch, seed=4)
        assert long.values[:10] == short.values


class TestFig5Equivalence:
    PHASES = (0.5, 1.0, 2.0)
    GAINS = (0.01, 0.05)

    @pytest.mark.parametrize("executor", ("process",))
    def test_simulated_grid_identical(self, executor):
        serial = fig5_sweep(self.PHASES, self.GAINS)
        parallel = fig5_sweep(self.PHASES, self.GAINS,
                              executor=executor, jobs=2)
        assert parallel == serial

    def test_grid_layout(self):
        family = fig5_sweep(self.PHASES, self.GAINS)
        assert set(family) == set(self.GAINS)
        for gain, curve in family.items():
            assert [phase for phase, _ in curve] == list(self.PHASES)


class TestFTCurveEquivalence:
    @pytest.fixture(scope="class")
    def device(self):
        return GummelPoonParameters(
            name="QEQ", IS=2e-17, BF=120.0, IKF=6e-3,
            RB=90.0, RE=2.0, RC=40.0,
            CJE=40e-15, CJC=25e-15, TF=8e-12,
        )

    @pytest.mark.parametrize("executor", ("process",))
    def test_warm_started_sweep_identical(self, device, executor):
        ics = np.geomspace(1e-5, 1e-2, 12)
        serial = ft_curve(device, ics, chunk_size=4)
        parallel = ft_curve(device, ics, chunk_size=4,
                            executor=executor, jobs=2)
        assert [p.ft for p in parallel] == [p.ft for p in serial]
        assert [p.vbe for p in parallel] == [p.vbe for p in serial]

    def test_chunked_warm_start_matches_cold_bias_solves(self, device):
        from repro.devices.ft import ft_at_ic

        ics = np.geomspace(1e-5, 1e-2, 8)
        warm = ft_curve(device, ics, chunk_size=3)
        cold = [ft_at_ic(device, float(ic)) for ic in ics]
        for w, c in zip(warm, cold):
            # Warm and cold Newton land within solver tolerance of each
            # other (bit-identity is only guaranteed across executors).
            assert w.ft == pytest.approx(c.ft, rel=1e-9)
            assert w.vbe == pytest.approx(c.vbe, rel=1e-9)
