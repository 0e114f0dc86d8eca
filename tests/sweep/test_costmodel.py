"""Dispatch cost model: small sweeps stay serial, big ones go parallel.

The model's one job is to keep ``--jobs auto`` from ever *losing* to
serial: pool spin-up and per-chunk IPC must be charged against the
predicted parallel win, near-ties must resolve to serial, and a plan
must depend on its own sweep's inputs alone.
"""

import pytest

from repro.sweep import DispatchPlan, run_sweep, shutdown_pools
from repro.sweep.costmodel import (
    SPINUP_SECONDS,
    chunk_size_for,
    plan,
    predict,
)


def _noop(params):
    return 0.0


class TestPlanning:
    def test_tiny_cheap_sweep_stays_serial(self):
        chosen = plan(8, 20e-6, workers=4)
        assert chosen.backend == "serial"
        assert chosen.jobs == 1

    def test_large_expensive_sweep_goes_process(self):
        chosen = plan(500, 1.5e-3, workers=4)
        assert chosen.backend == "process"
        assert chosen.jobs == 4
        assert chosen.predictions["process"] < chosen.predictions["serial"]

    def test_single_worker_never_parallel(self):
        chosen = plan(10_000, 1e-2, workers=1)
        assert chosen.backend == "serial"

    def test_single_point_never_parallel(self):
        chosen = plan(1, 10.0, workers=8)
        assert chosen.backend == "serial"

    def test_warm_pool_tilts_toward_process(self):
        # A workload sized so spin-up is the deciding term.
        count, per_point = 40, 2e-3
        cold = plan(count, per_point, workers=4, pool_warm=False)
        warm = plan(count, per_point, workers=4, pool_warm=True)
        assert (warm.predictions["process"]
                < cold.predictions["process"])
        assert cold.predictions["process"] - warm.predictions["process"] \
            == pytest.approx(SPINUP_SECONDS)

    def test_near_tie_resolves_to_serial(self):
        # Find a size where parallel wins by less than the threshold.
        chosen = plan(30, 120e-6, workers=2)
        ratio = (chosen.predictions["serial"]
                 / chosen.predictions["process"])
        if ratio < 1.2:
            assert chosen.backend == "serial"

    def test_payload_cost_charged_per_point(self):
        small = predict("process", 100, 1e-3, 100.0, 1000.0, 4, 10, True)
        large = predict("process", 100, 1e-3, 1e6, 1000.0, 4, 10, True)
        assert large > small

    def test_chunk_size_targets_waves_per_worker(self):
        assert chunk_size_for(160, 4) == 10
        assert chunk_size_for(3, 4) == 1

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            predict("gpu", 10, 1e-3, 1.0, 1.0, 2, 1, False)

    def test_plan_summary_is_informative(self):
        text = plan(500, 1.5e-3, workers=4).summary()
        assert "process" in text
        assert "serial=" in text


class TestIsolation:
    def test_plan_ignores_earlier_dispatches(self):
        """A sweep's plan depends only on its own probe: a process
        dispatch of fast no-op chunks (the pool warm-up a campaign runs
        first) must not move a later plan, predictions included."""
        inputs = dict(point_bytes=300.0, fn_bytes=2048.0, workers=2,
                      pool_warm=False)
        before = plan(64, 4e-4, **inputs)
        shutdown_pools()
        try:
            run_sweep(_noop, [{"i": i} for i in range(8)],
                      executor="process", jobs=2, chunk_size=1)
        finally:
            shutdown_pools()
        after = plan(64, 4e-4, **inputs)
        assert isinstance(after, DispatchPlan)
        assert after == before
