"""The reference-speed sampler: it samples, scales and cleans up."""

from __future__ import annotations

import signal
import time

import pytest

import speed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_scale_is_wall_time_at_the_reference_kernel_speed():
    ref = speed.REFERENCE_KERNEL_S
    assert speed.scale(3.0, [ref, ref]) == pytest.approx(3.0)
    # The kernel ran twice as slow as on the reference machine, so the
    # machine was slow: the operation costs half as many reference seconds.
    assert speed.scale(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)


def test_sampler_samples_inside_an_operation_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        result, wall, reference = sampler.time(lambda: _busy(0.5) or 7)
        assert signal.getitimer(signal.ITIMER_REAL)[1] == speed.INTERVAL_S
    assert result == 7
    # One sample at the start, then about one per interval.
    assert len(sampler.samples) >= 2
    # The operation spins until 0.5 s after it started; the samples
    # taken inside it are taken out of its time.
    inside = speed.CALLS * sum(sampler.samples[1:])
    assert wall == pytest.approx(0.5 - inside, abs=0.02)
    assert reference == pytest.approx(speed.scale(wall, sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_inactive_sampler_reports_wall_time_and_takes_no_samples():
    with speed.SpeedSampler(active=False) as sampler:
        _, wall, reference = sampler.time(lambda: _busy(0.05))
    assert reference == wall
    assert sampler.samples == []
