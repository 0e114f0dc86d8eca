"""service_mix: an open-loop Poisson job stream against the job server.

One generator (the main thread) submits a seeded schedule to an
in-process :class:`~repro.service.SimulationService` with the ``repro
serve`` defaults: 2 worker threads, queue limit 64, in-process sweeps.
Each job is timed from its *due* time to its result, so a stalled
generator or a queue that backs up shows in every later job; a refused
(503) job counts as missing the latency limit.

The stream runs at two fixed rates well below the knee; then saturating
bursts measure the rate at which the service drains a backlog, the
highest rate it can sustain without the backlog growing.  The mix is
exact in every block of 20 arrivals and only its order, the decks and
the parameters come from the seed.  Repeats are drawn from a fixed
window of recent requests of their own kind, so the working set and the
cache hit ratio stay steady however long the run, and every run has the
same count of fresh jobs of each kind.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from common import median, tail
from speed import kernel_seconds, scale

WORKERS = 2
QUEUE_LIMIT = 64
LOW_RATE = 6.0  #: jobs/s
HIGH_RATE = 12.0  #: jobs/s
#: Shares of the measured window given to the two fixed rates.
LOW_SHARE, HIGH_SHARE = 0.3, 0.3
#: Saturating bursts of whole blocks; 54 queued jobs stay below the limit.
#: Their decks differ, so the rate is taken over all of them together.
BURSTS, BURST_BLOCKS = 11, 3
#: Kind counts in every block of 20 arrivals, shuffled per block: the
#: shares are exact in every run, only their order comes from the seed.
BLOCK = (("dc", 7), ("ac", 4), ("dc_sweep", 3), ("ac_sweep", 2),
         ("verify", 1), ("transient", 1), ("create", 2))
BLOCK_JOBS = sum(n for _, n in BLOCK)
#: Share of each kind's run requests that repeat a recent request of
#: the same kind, spread evenly over the blocks, so every run has the
#: same count of fresh (computed) jobs of each kind in each block.
REPEAT_SHARE = Fraction(3, 10)
WINDOW = 4  #: recent run requests of its kind a repeat is drawn from
TENANTS = ("t0", "t1", "t2", "t3")
RING = "ring_oscillator"
PROBE_JOBS = 10
AC_GRID = {"start": 1e6, "stop": 1e11, "points_per_decade": 10}  # 51 freqs


@dataclass
class Deck:
    text: str
    output: str
    source: str | None  #: the input source carrying the AC stimulus
    level: float  #: its DC level


@dataclass
class Request:
    due: float  #: seconds from the phase start
    kind: str
    tenant: str
    deck: str
    params: dict = field(default_factory=dict)
    fresh: bool = True
    outcome: dict = field(default_factory=dict)


def _describe(text: str) -> Deck:
    """Output node and stimulus source, read off the netlist text."""
    tokens = set(text.split())
    output = next(n for n in ("out", "outp", "c", "s0p") if n in tokens)
    source, level = None, 0.0
    for line in text.splitlines():
        parts = line.split()
        upper = [p.upper() for p in parts]
        if parts and upper[0].startswith("V") and "AC" in upper:
            at = upper.index("DC") + 1 if "DC" in upper else 3
            source, level = parts[0], float(parts[at])
            break
    return Deck(text, output, source, level)


def base_decks(root: Path) -> dict[str, Deck]:
    """The seeded cells with a schematic plus the two example decks."""
    from repro.celldb import seed_database

    decks = {cell.name: _describe(cell.schematic)
             for cell in seed_database().cells()
             if (cell.schematic or "").strip()}
    for name in ("ce_stage", RING):
        text = (root / "examples" / "decks" / f"{name}.cir").read_text()
        decks[name] = _describe(text)
    return decks


def variant(deck: Deck, factor: float) -> Deck:
    """The deck with its first resistor (else current source) scaled."""
    from repro.units import parse_value

    lines = deck.text.splitlines()
    for prefix in "RI":
        for i, line in enumerate(lines):
            parts = line.split()
            if parts and parts[0][0].upper() == prefix:
                at = 4 if len(parts) > 4 and parts[3].upper() == "DC" else 3
                parts[at] = repr(parse_value(parts[at]) * factor)
                lines[i] = " ".join(parts)
                return Deck("\n".join(lines) + "\n", deck.output,
                            deck.source, deck.level)
    raise ValueError("deck has no resistor or current source to vary")


class Schedule:
    """The seeded job stream: phases of Poisson arrivals plus decks."""

    def __init__(self, seed: int, seconds: float, decks: dict[str, Deck]):
        self.rng = np.random.default_rng([seed, 11])
        self.decks = dict(decks)
        self.ac_decks = [k for k, d in decks.items()
                         if d.source is not None and k != RING]
        # One variant of every base deck exists before the stream starts.
        self.setup_variants = {}
        for key in list(self.ac_decks):
            name = f"{key}~0"
            self.setup_variants[name] = variant(
                decks[key], self._factor())
        self.decks.update(self.setup_variants)
        self._unused_dc = {(k, t) for k in self.decks if k != RING
                           for t in TENANTS}
        self._windows: dict[str, deque] = {}
        self._slots: deque = deque()
        self._cycles: dict[str, deque] = {}
        self._blocks = 0
        self._created = 0
        self.phases = [(name, rate, self._arrivals(rate, share * seconds))
                       for name, rate, share in (("low", LOW_RATE, LOW_SHARE),
                                                 ("high", HIGH_RATE,
                                                  HIGH_SHARE))]
        for burst in range(BURSTS):
            self.phases.append((f"burst{burst}", None, [
                self._request(0.0) for _ in range(BURST_BLOCKS * BLOCK_JOBS)]))

    def _factor(self) -> float:
        return round(float(self.rng.uniform(0.9, 1.1)), 6)

    def _arrivals(self, rate: float, duration: float) -> list[Request]:
        """Poisson arrivals conditioned on their count: whole blocks of
        about ``rate * duration`` arrivals, spread uniformly over the
        time they take at ``rate``."""
        count = BLOCK_JOBS * max(1, round(rate * duration / BLOCK_JOBS))
        times = np.sort(self.rng.uniform(0.0, count / rate, count))
        return [self._request(float(t)) for t in times]

    def _slot(self) -> tuple[str, bool]:
        """Next (kind, repeat) from the shuffled block stream."""
        if not self._slots:
            self._blocks += 1
            slots = []
            for kind, n in BLOCK:
                repeats = 0 if kind == "create" else (
                    math.floor(REPEAT_SHARE * n * self._blocks)
                    - math.floor(REPEAT_SHARE * n * (self._blocks - 1)))
                slots += [(kind, i < repeats) for i in range(n)]
            self._slots.extend(slots[i] for i in
                               self.rng.permutation(len(slots)))
        return self._slots.popleft()

    def _deck(self, kind: str) -> str:
        """Each kind walks its own shuffled cycle of the decks."""
        cycle = self._cycles.setdefault(kind, deque())
        if not cycle:
            cycle.extend(self.ac_decks[i]
                         for i in self.rng.permutation(len(self.ac_decks)))
        return cycle.popleft()

    def _request(self, due: float) -> Request:
        rng = self.rng
        kind, repeat = self._slot()
        if kind == "create":
            base = self._deck(kind)
            self._created += 1
            name = f"{base}~new{self._created}"
            self.decks[name] = variant(self.decks[base], self._factor())
            self._unused_dc.update((name, t) for t in TENANTS)
            return Request(due, "create", str(rng.choice(TENANTS)), name)
        window = self._windows.setdefault(kind, deque(maxlen=WINDOW))
        if repeat and window:
            old = window[int(rng.integers(len(window)))]
            return Request(due, kind, old.tenant, old.deck,
                           dict(old.params), fresh=False)
        tenant = str(rng.choice(TENANTS))
        pick = self._deck(kind)
        deck = self.decks[pick]
        params: dict = {}
        if kind == "dc":
            pool = sorted(self._unused_dc)
            pick, tenant = pool[int(rng.integers(len(pool)))]
            self._unused_dc.discard((pick, tenant))
        elif kind == "ac":
            params = {"start": float(10 ** rng.uniform(5.5, 6.5)),
                      "stop": float(10 ** rng.uniform(9.5, 10.5)),
                      "points_per_decade": 10, "output": deck.output}
        elif kind in ("dc_sweep", "ac_sweep"):
            count = 100 if kind == "dc_sweep" else 50
            levels = deck.level * rng.uniform(0.95, 1.05, size=count)
            params = {"source": deck.source, "output": deck.output,
                      "values": [round(float(v), 9) for v in levels]}
            if kind == "ac_sweep":
                params.update(analysis="ac", **AC_GRID)
        elif kind == "verify":
            params = {"supply_tol": round(float(rng.uniform(0.05, 0.15)), 4)}
        elif kind == "transient":
            pick = RING
            params = {"stop_time": round(float(rng.uniform(0.2e-9, 0.3e-9)),
                                         15),
                      "max_step": 10e-12, "output": "s0p"}
        request = Request(due, kind, tenant, pick, params)
        window.append(request)
        return request


SUBMIT_KIND = {"dc_sweep": "sweep", "ac_sweep": "sweep"}


class Workload:

    def __init__(self, run, root: Path):
        self.run = run
        self.decks = base_decks(root)
        self._probes = 0

    def setup(self):
        from repro.service import SimulationService

        self.schedule = Schedule(self.run.seed, self.run.seconds, self.decks)
        service = SimulationService(workers=WORKERS, queue_limit=QUEUE_LIMIT)
        self.ids = {}
        for key in list(self.decks) + list(self.schedule.setup_variants):
            payload = service.create_circuit(self.schedule.decks[key].text)
            if payload.get("status") != "ok":
                raise RuntimeError(f"create of {key} failed: {payload}")
            self.ids[key] = payload["circuit_id"]
        return service

    def teardown(self, service) -> None:
        service.close()

    # -- one phase -----------------------------------------------------------

    def _issue(self, service, request: Request, due: float) -> None:
        now = time.perf_counter()
        request.outcome["late"] = now - due
        if request.kind == "create":
            text = self.schedule.decks[request.deck].text
            payload = service.create_circuit(text, tenant=request.tenant)
            done = time.perf_counter()
            request.outcome["latency"] = done - due
            request.outcome["state"] = payload.get("status")
            if payload.get("status") == "ok":
                self.ids[request.deck] = payload["circuit_id"]
            return
        payload = service.submit(
            SUBMIT_KIND.get(request.kind, request.kind),
            self.ids[request.deck], request.params, tenant=request.tenant)
        if payload.get("status") == "rejected":
            request.outcome.update(state="rejected", latency=math.inf)
            return
        request.outcome.update(job=payload.get("job_id"),
                               offset=now - due)

    def _phase(self, service, requests: list[Request]) -> float:
        """Issue one phase on schedule; returns when its jobs are done."""
        start = time.perf_counter()
        for request in requests:
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._issue(service, request, due)
        for request in requests:
            job = request.outcome.get("job")
            if job is None:
                continue
            polled = service.wait(job, timeout=120.0)
            request.outcome["state"] = polled.get("state")
            request.outcome["latency"] = (
                request.outcome["offset"] + polled.get("latency_seconds",
                                                       math.inf))
            if polled.get("state") != "done":
                request.outcome["error"] = polled.get("error")
            else:
                request.outcome["payload"] = polled.get("result")
        return time.perf_counter() - start

    # -- the measured window -------------------------------------------------

    def measure(self, service) -> dict:
        run = self.run
        fixed: list[Request] = []
        per_phase = {}
        burst_jobs, burst_seconds = 0, 0.0
        samples = run.kernel_samples
        for name, rate, requests in self.schedule.phases:
            if rate is None:
                samples.append(kernel_seconds())
            elapsed = self._phase(service, requests)
            if rate is None:
                samples.append(kernel_seconds())
            latencies = [r.outcome["latency"] for r in requests]
            tail_value, tail_pct = tail(latencies)
            per_phase[name] = {
                "rate": rate, "jobs": len(requests), "seconds": elapsed,
                "p50_s": median(latencies), "tail_s": tail_value,
                "tail_pct": round(tail_pct, 1),
            }
            if rate is None:
                burst_jobs += len(requests)
                burst_seconds += elapsed
            else:
                fixed.extend(requests)
            for request in requests:
                run.attempt()
                state = request.outcome.get("state")
                if state not in ("done", "ok"):
                    run.fail(f"{request.kind} job {state}: "
                             f"{request.outcome.get('error')}")
        run.details["phases"] = per_phase
        run.details["wall_throughput"] = burst_jobs / burst_seconds
        late = [r.outcome["late"] for _, rate, reqs in self.schedule.phases
                if rate is not None for r in reqs]
        run.details["gen_late_max_s"] = max(late)
        self.fixed = fixed
        run.latency([r.outcome["latency"] for r in fixed])
        # The service is idle between bursts, where the kernel samples
        # are taken.  Per-burst scaling tracked its two worker threads
        # no better than the run's mean speed does.
        return {"throughput": burst_jobs / scale(burst_seconds, samples)}

    # -- output checks -------------------------------------------------------

    def check(self, service) -> None:
        """Recompute a seeded sample of payloads through direct calls:
        two fresh and two repeated requests of each kind, so rows the
        tenant caches served are checked as well as computed ones."""
        from checks import compare_payload

        rng = np.random.default_rng([self.run.seed, 12])
        pools: dict[tuple, list] = {}
        for _, _, requests in self.schedule.phases:
            for request in requests:
                if "payload" in request.outcome:
                    pools.setdefault((request.kind, request.fresh),
                                     []).append(request)
        for kind, fresh in sorted(pools):
            pool = pools[kind, fresh]
            for index in rng.permutation(len(pool))[:2]:
                request = pool[int(index)]
                deck = self.schedule.decks[request.deck]
                expected = direct_payload(request.kind, deck, request.params)
                problems, deviation = compare_payload(
                    request.kind, request.outcome["payload"], expected)
                self.run.attempt()
                self.run.deviation(deviation)
                for problem in problems:
                    self.run.fail(f"{'fresh' if fresh else 'repeated'} "
                                  f"{kind} payload on {request.deck}: "
                                  f"{problem}")

    def probe(self, service) -> float:
        """Seconds for a fixed closed-loop batch of fresh sweep jobs."""
        self._probes += 1
        deck = self.decks["ce_stage"]
        t0 = time.perf_counter()
        for i in range(PROBE_JOBS):
            params = {"source": deck.source, "output": deck.output,
                      "values": [deck.level * (0.95 + 0.001 * (i + k))
                                 for k in range(100)]}
            job = service.submit("sweep", self.ids["ce_stage"], params,
                                 tenant=f"probe{self._probes}")
            service.wait(job["job_id"], timeout=120.0)
        return time.perf_counter() - t0

    def layer_extras(self, service, tracer) -> dict:
        """Service counters, and queue waits over the fixed-rate phases
        (the saturating bursts queue by design)."""
        stats = service.stats_payload()["stats"]
        jobs = tracer.samples.get("service.jobs", [])
        fixed = {r.outcome.get("job") for r in self.fixed}
        waits = [job.started_at - job.submitted_at for job in jobs
                 if job.id in fixed and job.started_at is not None]
        return {
            "service.server.exec_busy_s": sum(
                job.finished_at - job.started_at for job in jobs
                if job.finished_at is not None),
            "service.jobs.wait_p50_s": median(waits),
            "service.jobs.wait_tail_s": tail(waits)[0],
            "service.server.cache_hit_ratio": stats["cache"]["hit_rate"],
            "service.server.recompiles": stats["circuits"]["recompiles"],
            "gen.late_max_s": self.run.details["gen_late_max_s"],
        }


def direct_payload(kind: str, deck: Deck, params: dict) -> dict:
    """The payload a job should carry, computed without the service."""
    from repro.spice import Simulator, parse_deck
    from repro.sweep import (BlockedACSweep, BlockedDCSweep, ac_gain_db,
                             node_voltage, run_sweep)

    if kind in ("dc_sweep", "ac_sweep"):
        if kind == "ac_sweep":
            from repro.spice.ac import frequency_grid

            grid = tuple(frequency_grid(
                params["start"], params["stop"],
                params["points_per_decade"], "dec"))
            fn = BlockedACSweep(deck.text, measure=ac_gain_db(deck.output),
                                frequencies=grid)
        else:
            fn = BlockedDCSweep(deck.text, measure=node_voltage(deck.output))
        result = run_sweep(fn, [{params["source"]: v}
                                for v in params["values"]])
        return {"values": [np.asarray(v, dtype=float).tolist()
                           for v in result.values]}
    if kind == "verify":
        from repro.verify import (default_corners, default_measurements,
                                  qualify_deck)

        report = qualify_deck(
            deck.text,
            default_corners(deck.text, supply_tol=params["supply_tol"]),
            default_measurements(deck.text),
            name=parse_deck(deck.text).title)
        return report.to_dict()
    simulator = Simulator(parse_deck(deck.text).circuit)
    if kind == "dc":
        op = simulator.operating_point()
        return {"nodes": {f"v({n.lower()})": float(v)
                          for n, v in op.node_voltages().items()}}
    if kind == "ac":
        ac = simulator.ac(params["start"], params["stop"],
                          points_per_decade=params["points_per_decade"])
        return {"magnitude_db": ac.voltage_db(params["output"]).tolist()}
    if kind == "transient":
        tran = simulator.transient(stop_time=params["stop_time"],
                                   max_step=params["max_step"])
        return {"times_s": tran.times.tolist(),
                "voltages": tran.voltage(params["output"]).tolist()}
    raise ValueError(f"no direct computation for {kind!r}")
