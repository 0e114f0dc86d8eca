"""Shared plumbing of the workloads: run context, clocks, memory."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import statistics
import time


def cores() -> int:
    """Cores this process may run on (the worker count every pool uses)."""
    return len(os.sched_getaffinity(0))


def process_age() -> float:
    """Seconds since this process started, from ``/proc`` (0.0 if absent)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except OSError:
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - started)


def _peak_rss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children (MB)."""
    total = _peak_rss_kb("self")
    for child in multiprocessing.active_children():
        total += _peak_rss_kb(child.pid)
    return total / 1024.0


def trim_heap() -> None:
    """Hand the C heap's free memory back to the system (glibc only).

    Without it the allocator keeps what one operation freed, fragmented,
    and the next operation's peak lands 0-15 MB higher depending on how
    the pieces fall; with it every operation peaks from the same floor.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Shut the sweep layer's worker pools down and wait for each worker
    (20 s in all, then the stragglers are terminated)."""
    from repro.sweep import shutdown_pools

    shutdown_pools()
    deadline = time.monotonic() + 20.0
    for child in multiprocessing.active_children():
        child.join(max(0.1, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


class Run:
    """One benchmark run: its inputs, its clock and its verdicts."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 one_pass: bool):
        self.seed = seed
        self.seconds = seconds
        #: A traced run does one pass of fixed work, so its per-layer
        #: counts compare across commits however fast each one is.
        self.one_pass = one_pass
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.max_rel_dev = 0.0
        #: Reference-kernel samples taken in the measured window.
        self.kernel_samples: list[float] = []
        self.details: dict = {"workload": workload, "seed": seed,
                              "cores": cores()}
        self._deadline = None

    # -- outcome bookkeeping -------------------------------------------------

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        """Count one failed operation or output mismatch."""
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def deviation(self, value: float) -> None:
        self.max_rel_dev = max(self.max_rel_dev, float(value))

    def latency(self, samples) -> None:
        """Record an operation-latency median and tail in the details."""
        value, pct = tail(samples)
        self.details["latency"] = {
            "samples": len(samples), "p50_s": median(samples),
            "tail_s": value, "tail_pct": round(pct, 1)}

    # -- the measured window -------------------------------------------------

    def start_clock(self) -> None:
        self._deadline = time.perf_counter() + self.seconds

    def fits(self, predicted: float) -> bool:
        """True while one more operation of ``predicted`` seconds fits;
        never in a one-pass run."""
        return (not self.one_pass
                and time.perf_counter() + predicted <= self._deadline)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``.  With ten or fewer samples no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return float(ordered[-1]), 100.0
    index = n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n
