"""Load test for the simulation job server (``repro serve``).

Drives a live :class:`~repro.service.SimulationService` — in-process and
through the stdlib HTTP front end — with concurrent clients issuing the
create_circuit → run → poll loop, and archives throughput, latency
percentiles and cache effectiveness into ``BENCH_service.json``:

* ``requests_per_second`` — completed jobs / wall,
* ``p50_seconds`` / ``p99_seconds`` — submit-to-finish latency,
* ``cache_hit_rate`` — tenant result-cache hits / lookups (repeated
  identical requests must be > 0),
* ``recompiles`` — engine compilations after circuit creation (the
  compile-once contract; must be 0).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

from conftest import record, report

from repro.service import SimulationService
from repro.service.http import ServiceHTTPServer

DECK = (Path(__file__).resolve().parents[1]
        / "examples" / "decks" / "ce_stage.cir").read_text()

CLIENTS = 6
REQUESTS_PER_CLIENT = 10


def _drive_clients(submit_and_wait, clients: int, per_client: int) -> float:
    """Fan `submit_and_wait(tid, i)` over client threads; returns wall s."""
    failures: list = []

    def client(tid: int) -> None:
        try:
            for i in range(per_client):
                submit_and_wait(tid, i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append((tid, exc))

    threads = [threading.Thread(target=client, args=(t,))
               for t in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    assert not failures, failures
    return wall


def test_service_inprocess_load():
    """Concurrent clients against the in-process service API."""
    with SimulationService(workers=4, queue_limit=256) as service:
        created = service.create_circuit(DECK)
        assert created["status"] == "ok"
        cid = created["circuit_id"]

        def submit_and_wait(tid: int, i: int) -> None:
            # A mix of repeated (cacheable) DC points and distinct
            # sweeps, spread over a few tenants like real callers.
            tenant = f"tenant-{tid % 2}"
            if i % 3 == 0:
                payload = service.run_sweep(
                    cid, tenant=tenant, source="VB",
                    values=[0.75, 0.8, 0.85], output="c")
            else:
                payload = service.run_dc(cid, tenant=tenant)
            assert payload["status"] == "ok", payload
            polled = service.wait(payload["job_id"], timeout=120.0)
            assert polled["result" if polled["state"] == "done"
                          else "error"], polled
            assert polled["state"] == "done", polled

        wall = _drive_clients(submit_and_wait, CLIENTS, REQUESTS_PER_CLIENT)
        stats = service.stats_payload()["stats"]

    completed = stats["jobs"]["completed"]
    assert completed == CLIENTS * REQUESTS_PER_CLIENT
    assert stats["jobs"]["failed"] == 0
    # The acceptance bar: repeated identical requests hit the cache, and
    # no job ever recompiled the circuit the create call compiled.
    assert stats["cache"]["hit_rate"] > 0.0
    assert stats["circuits"]["recompiles"] == 0

    payload = {
        "mode": "in-process",
        "clients": CLIENTS,
        "requests": completed,
        "wall_seconds": round(wall, 4),
        "requests_per_second": round(completed / wall, 2),
        "p50_seconds": round(stats["latency"]["p50_seconds"], 6),
        "p99_seconds": round(stats["latency"]["p99_seconds"], 6),
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 4),
        "recompiles": stats["circuits"]["recompiles"],
        "rejected": stats["jobs"]["rejected"],
    }
    record("service", "service_inprocess_load", payload)
    report("service_inprocess_load", json.dumps(payload, indent=2))


def test_service_http_load():
    """The same loop through a live local HTTP server instance."""
    service = SimulationService(workers=4, queue_limit=256)
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    server_thread = threading.Thread(target=server.serve_forever,
                                     daemon=True)
    server_thread.start()
    base = f"http://127.0.0.1:{server.port}"

    def call(method: str, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(base + path, data=data,
                                         method=method)
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    try:
        created = call("POST", "/circuits", {"deck": DECK})
        assert created["status"] == "ok"
        cid = created["circuit_id"]

        def submit_and_wait(tid: int, i: int) -> None:
            submitted = call("POST", "/jobs", {
                "kind": "dc", "circuit_id": cid,
                "tenant": f"tenant-{tid % 2}",
            })
            assert submitted["status"] == "ok", submitted
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                polled = call("GET", f"/jobs/{submitted['job_id']}")
                if polled["state"] in ("done", "failed"):
                    assert polled["state"] == "done", polled
                    return
                time.sleep(0.002)
            raise AssertionError("job did not finish in time")

        wall = _drive_clients(submit_and_wait, CLIENTS, REQUESTS_PER_CLIENT)
        stats = call("GET", "/stats")["stats"]
    finally:
        server.shutdown()
        server.server_close()
        service.close()

    completed = stats["jobs"]["completed"]
    assert completed == CLIENTS * REQUESTS_PER_CLIENT
    assert stats["cache"]["hit_rate"] > 0.0
    assert stats["circuits"]["recompiles"] == 0

    payload = {
        "mode": "http",
        "clients": CLIENTS,
        "requests": completed,
        "wall_seconds": round(wall, 4),
        "requests_per_second": round(completed / wall, 2),
        "p50_seconds": round(stats["latency"]["p50_seconds"], 6),
        "p99_seconds": round(stats["latency"]["p99_seconds"], 6),
        "cache_hit_rate": round(stats["cache"]["hit_rate"], 4),
        "recompiles": stats["circuits"]["recompiles"],
        "rejected": stats["jobs"]["rejected"],
    }
    record("service", "service_http_load", payload)
    report("service_http_load", json.dumps(payload, indent=2))
