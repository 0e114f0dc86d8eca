"""Dispatch cost model: when does parallel actually win?

Process pools are not free — spawning workers costs tens of
milliseconds and every chunk pays a pickle + pipe round-trip.
Historically ``--jobs N`` paid those taxes unconditionally, which made
small sweeps *slower* in parallel.  :func:`plan` makes the trade
explicit: it predicts wall-clock for the serial and process backends
from a measured per-point cost and picks the cheaper, with a safety
margin so a near-tie resolves to serial (the predictable choice).

:func:`repro.sweep.run_sweep` consults the model when given the ``auto``
executor (``--jobs auto``): it times the first chunk in-process — those
points must be evaluated anyway — then plans the remaining dispatch.
A blocked sweep of at most :data:`BLOCKED_SERIAL_POINTS` points skips
the probe and runs serially as one lane block.
The model's terms are module constants, so a plan depends on its own
sweep's probe, payload sizes, worker count and pool warmth alone, never
on the sweeps that ran before it.

The model only re-routes *where* and in *what grouping* points are
evaluated — never the arithmetic — so every plan yields bit-identical
results to the serial backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["DispatchPlan", "chunk_size_for", "plan", "predict"]

#: One-time process-pool creation + worker warm-up cost (seconds).
SPINUP_SECONDS = 0.08
#: Per-chunk overhead on a *warm* process pool (submit, pickle
#: bookkeeping, result round-trip).
CHUNK_SECONDS = 2e-3
#: Per-byte cost of shipping payloads through the pipe.
BYTE_SECONDS = 1e-8
#: Required predicted speedup before leaving serial (near-ties stay
#: serial: it is the predictable, zero-overhead choice).
MIN_SPEEDUP = 1.2
#: Target chunks per worker — enough slack for load balancing without
#: drowning in per-chunk overhead.
CHUNKS_PER_WORKER = 4
#: Under ``auto``, a blocked sweep (``evaluate_batch``) of at most this
#: many points runs serially as one lane block, unprobed.  A probe chunk
#: would split the block, paying the stacked solver's fixed cost twice,
#: and price the rest per point from a smaller block that costs more
#: per lane.  Set from the dispatch bench
#: (``bench_dispatch_cost_model_table``): on 2 cores serial leads or
#: stays within :data:`MIN_SPEEDUP` of process x2 up to 1000 points.
BLOCKED_SERIAL_POINTS = 1000


@dataclass(frozen=True)
class DispatchPlan:
    """The cost model's decision for one sweep dispatch."""

    #: Chosen backend: ``"serial"`` or ``"process"``.
    backend: str
    #: Worker count for the chosen backend (1 for serial).
    jobs: int
    #: Chunk size the remaining points should be grouped into.
    chunk_size: int
    #: One-line human explanation of the choice.
    reason: str
    #: Predicted wall seconds per candidate backend.
    predictions: dict = field(default_factory=dict)

    def summary(self) -> str:
        predicted = ", ".join(
            f"{name}={seconds * 1e3:.1f}ms"
            for name, seconds in sorted(self.predictions.items())
        )
        return (f"{self.backend} x{self.jobs} (chunk={self.chunk_size}): "
                f"{self.reason} [{predicted}]")


def predict(backend: str, count: int, point_seconds: float,
            point_bytes: float, fn_bytes: float, workers: int,
            chunk_size: int, pool_warm: bool) -> float:
    """Predicted wall seconds to evaluate ``count`` points."""
    compute = count * point_seconds
    if backend == "serial" or workers <= 1:
        return compute
    if backend == "process":
        wall = 0.0 if pool_warm else SPINUP_SECONDS
        wall += workers * fn_bytes * BYTE_SECONDS
        wall += math.ceil(count / max(1, chunk_size)) * CHUNK_SECONDS
        wall += count * point_bytes * BYTE_SECONDS
        wall += compute / workers
        return wall
    raise ValueError(f"unknown backend {backend!r}")


def plan(count: int, point_seconds: float, *, point_bytes: float = 512.0,
         fn_bytes: float = 4096.0, workers: int = 2,
         pool_warm: bool = False) -> DispatchPlan:
    """Pick the cheaper backend + chunking for ``count`` points."""
    workers = max(1, int(workers))
    chunk_size = chunk_size_for(count, workers)
    predictions = {
        name: predict(name, count, point_seconds, point_bytes, fn_bytes,
                      workers, chunk_size, pool_warm)
        for name in ("serial", "process")
    }
    serial, process = predictions["serial"], predictions["process"]
    if workers <= 1 or count <= 1:
        return DispatchPlan("serial", 1, max(1, count),
                            "single worker or point", predictions)
    if process * MIN_SPEEDUP >= serial:
        reason = (f"predicted process speedup "
                  f"{serial / max(process, 1e-12):.2f}x "
                  f"< {MIN_SPEEDUP:.2f}x threshold")
        return DispatchPlan("serial", 1, max(1, count), reason, predictions)
    reason = (f"predicted {serial / process:.2f}x over serial"
              + ("" if pool_warm else " despite pool spin-up"))
    return DispatchPlan("process", workers, chunk_size, reason, predictions)


def chunk_size_for(count: int, workers: int) -> int:
    """Chunks sized for :data:`CHUNKS_PER_WORKER` waves per worker."""
    return max(1, math.ceil(count / (max(1, workers) * CHUNKS_PER_WORKER)))
