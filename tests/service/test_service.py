"""End-to-end tests for :class:`repro.service.SimulationService`.

Synchronous-mode (``workers=0``) tests drive the queue deterministically
with :meth:`step`; threaded tests exercise the real worker loop.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import SimulationService, circuit_id_for
from repro.spice.engine import resolve_engine


@pytest.fixture()
def service():
    svc = SimulationService(workers=0, queue_limit=8)
    yield svc
    svc.close()


def _run(service: SimulationService, submit_payload: dict) -> dict:
    """Step the queue until the submitted job finishes; return its poll."""
    assert submit_payload["status"] == "ok", submit_payload
    while service.step():
        pass
    polled = service.poll(submit_payload["job_id"])
    assert polled["status"] == "ok", polled
    return polled


class TestCreateCircuit:
    def test_create_compiles_once_and_reuses_by_content(self, service,
                                                        ce_deck):
        first = service.create_circuit(ce_deck)
        assert first["status"] == "ok"
        assert first["circuit_id"] == circuit_id_for(ce_deck)
        assert first["reused"] is False
        second = service.create_circuit(ce_deck)
        assert second["circuit_id"] == first["circuit_id"]
        assert second["reused"] is True
        stats = service.stats_payload()["stats"]
        assert stats["circuits"]["created"] == 1
        assert stats["circuits"]["reused"] == 1

    def test_create_rejects_garbage(self, service):
        empty = service.create_circuit("   ")
        assert empty["status"] == "error"
        assert empty["code"] == 400
        not_a_deck = service.create_circuit("R1 a\n.END")
        assert not_a_deck["status"] == "error"
        assert "error_type" in not_a_deck

    def test_lint_failure_carries_issue_records(self, service):
        floating = "title\nV1 a 0 1\nR1 b c 1k\n.OP\n.END"
        payload = service.create_circuit(floating)
        assert payload["status"] == "error"
        assert payload["code"] == 422
        assert payload["error_type"] == "ConnectivityError"
        assert payload["lint_issues"], payload
        assert all({"code", "nodes", "message"} <= set(issue)
                   for issue in payload["lint_issues"])


class TestJobLifecycle:
    def test_dc_job_full_loop(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        submitted = service.run_dc(cid)
        assert submitted["state"] == "queued"
        # Synchronous mode runs nothing until step() pops the job.
        queued = service.poll(submitted["job_id"])
        assert queued["state"] == "queued"
        assert "result" not in queued
        polled = _run(service, submitted)
        assert polled["state"] == "done"
        assert polled["result"]["nodes"]["v(vcc)"] == pytest.approx(5.0)
        assert polled["latency_seconds"] > 0.0

    def test_second_identical_dc_is_a_cache_hit(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        first = _run(service, service.run_dc(cid))
        second = _run(service, service.run_dc(cid))
        assert "cached" not in first["result"]
        assert second["result"]["cached"] is True
        assert second["result"]["nodes"] == first["result"]["nodes"]
        stats = service.stats_payload()["stats"]
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["hit_rate"] > 0.0

    def test_no_recompile_across_repeated_jobs(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        entry = service._entry(cid)
        engine = resolve_engine(entry.deck.circuit, None)
        compiled_at_create = engine.stats.compilations
        _run(service, service.run_dc(cid))
        _run(service, service.run_ac(cid, start=1e6, stop=1e8, output="c"))
        _run(service, service.run_dc(cid, tenant="other"))  # cache miss
        assert engine.stats.compilations == compiled_at_create
        assert service.stats_payload()["stats"]["circuits"]["recompiles"] == 0

    def test_ac_and_transient_payloads(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        ac = _run(service, service.run_ac(
            cid, start=1e6, stop=1e9, points_per_decade=5, output="c"))
        result = ac["result"]
        assert result["frequencies_hz"][0] == pytest.approx(1e6)
        assert len(result["frequencies_hz"]) == len(result["magnitude_db"])
        assert len(result["frequencies_hz"]) == len(result["phase_deg"])

        tran = _run(service, service.run_transient(
            cid, stop_time=1e-9, output="c"))
        result = tran["result"]
        assert result["points"] == len(result["times_s"])
        assert len(result["voltages"]) == result["points"]

    def test_ac_payload_does_not_depend_on_an_earlier_dc_job(self, service,
                                                             ce_deck):
        deck = ce_deck.replace(".OP", ".OPTIONS RELTOL=1e-6 GMIN=1e-9\n.OP",
                               1)
        cid = service.create_circuit(deck)["circuit_id"]
        request = {"start": 1e3, "stop": 1e9, "output": "c"}
        fresh = _run(service, service.run_ac(cid, tenant="a", **request))
        _run(service, service.run_dc(cid, tenant="b"))
        after_dc = _run(service, service.run_ac(cid, tenant="b", **request))
        assert "cached" not in after_dc["result"]
        assert after_dc["result"] == fresh["result"]

    def test_transient_without_stop_time_fails_structured(self, service,
                                                          ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_transient(cid))
        assert polled["state"] == "failed"
        assert polled["error"]["error_type"] == "AnalysisError"
        assert "stop_time" in polled["error"]["error"]

    def test_unknown_circuit_and_kind_are_rejected_at_submit(self, service):
        for verb in (service.run_dc, service.run_ac, service.run_transient,
                     service.run_sweep, service.run_optimize,
                     service.run_verify):
            missing = verb("deadbeef")
            assert missing["status"] == "error", verb.__name__
            assert missing["code"] == 404, verb.__name__
        bogus = service.submit("noise", "deadbeef")
        assert bogus["status"] == "error"
        assert bogus["code"] == 400

    def test_poll_unknown_job(self, service):
        for verb in (service.poll, service.wait, service.cancel_job):
            payload = verb("job-junk")
            assert payload["status"] == "error", verb.__name__
            assert payload["code"] == 404, verb.__name__


class TestSweepAndOptimizeJobs:
    def test_sweep_job_rejects_a_string_chunk_size(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_sweep(
            cid, source="VB", values=[0.75, 0.8], output="c",
            chunk_size="4"))
        assert polled["state"] == "failed"
        assert polled["error"]["code"] == 400
        assert polled["error"]["error_type"] == "AnalysisError"

    def test_sweep_job_reuses_results_via_tenant_cache(self, service,
                                                       ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        request = dict(source="VB", values=[0.75, 0.8, 0.85], output="c")
        first = _run(service, service.run_sweep(cid, **request))
        assert first["state"] == "done"
        stats = first["result"]["sweep_stats"]
        assert stats["points"] == 3
        assert stats["cache_hits"] == 0
        second = _run(service, service.run_sweep(cid, **request))
        assert second["result"]["values"] == first["result"]["values"]
        assert second["result"]["sweep_stats"]["cache_hits"] == 3
        assert second["result"]["sweep_stats"]["evaluated"] == 0

    def test_ac_sweep_job_payload_and_parity(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        request = dict(source="VB", values=[0.75, 0.8], output="c",
                       analysis="ac", frequencies=[1e6, 1e8, 1e10])
        polled = _run(service, service.run_sweep(cid, **request))
        assert polled["state"] == "done"
        result = polled["result"]
        assert result["analysis"] == "ac"
        assert result["frequencies_hz"] == [1e6, 1e8, 1e10]
        assert len(result["values"]) == 2
        assert all(len(v) == 3 for v in result["values"])
        # The job result equals the library-level blocked evaluation.
        from repro.sweep import BlockedACSweep, ac_gain_db

        fn = BlockedACSweep(ce_deck, measure=ac_gain_db("c"),
                            frequencies=[1e6, 1e8, 1e10])
        expected = [[float(m) for m in fn({"VB": v})] for v in (0.75, 0.8)]
        assert result["values"] == expected

    def test_ac_sweep_job_grid_from_start_stop(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_sweep(
            cid, source="VB", values=[0.8], output="c", analysis="ac",
            start=1e6, stop=1e8, points_per_decade=5))
        result = polled["result"]
        assert result["frequencies_hz"][0] == pytest.approx(1e6)
        assert result["frequencies_hz"][-1] == pytest.approx(1e8)
        assert len(result["frequencies_hz"]) == 11

    def test_repeated_ac_sweep_jobs_never_recompile(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        request = dict(source="VB", values=[0.75, 0.8, 0.85], output="c",
                       analysis="ac", frequencies=[1e6, 1e8, 1e10])
        _run(service, service.run_sweep(cid, **request))
        entry = service._entry(cid)
        evaluator = entry.evaluators[("ac", "c", (1e6, 1e8, 1e10))]
        compiled = evaluator.compilations()
        assert compiled == 1  # primed at first use
        _run(service, service.run_sweep(cid, **request))
        _run(service, service.run_sweep(cid, tenant="other", **request))
        assert evaluator.compilations() == compiled
        assert service.stats_payload()["stats"]["circuits"]["recompiles"] == 0
        # Second identical request on the same tenant was pure cache.
        second = _run(service, service.run_sweep(cid, **request))
        assert second["result"]["sweep_stats"]["cache_hits"] == 3
        assert second["result"]["sweep_stats"]["evaluated"] == 0

    def test_sweep_rejects_unknown_analysis(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_sweep(
            cid, source="VB", values=[0.8], output="c", analysis="noise"))
        assert polled["state"] == "failed"
        assert polled["error"]["error_type"] == "AnalysisError"
        assert "'dc' or 'ac'" in polled["error"]["error"]

    def test_sweep_failures_carry_forensics(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_sweep(
            cid, source="NOPE", values=[1.0], output="c"))
        assert polled["state"] == "failed"
        assert polled["error"]["error_type"] == "SweepError"

    def test_request_cannot_size_a_process_pool(self, service, ce_deck,
                                                monkeypatch):
        """A request's ``jobs`` and ``executor`` are checked before any
        pool is touched: ``jobs`` past the usable CPUs and an unknown
        executor name fail the job with code 400, on every job kind
        that dispatches a sweep."""
        def no_pool(*args, **kwargs):
            raise RuntimeError("a job reached the process-pool registry")

        monkeypatch.setattr("repro.sweep.executors._get_pool", no_pool)
        cid = service.create_circuit(ce_deck)["circuit_id"]
        sweep = dict(source="VB", values=[0.75, 0.8, 0.85], output="c")
        optimize = dict(output="c", target=3.0, parameters=[
            {"name": "VB", "lower": 0.7, "upper": 0.9}])
        for submit, request in ((service.run_sweep, sweep),
                                (service.run_verify, {}),
                                (service.run_optimize, optimize)):
            for dispatch in ({"executor": "process", "jobs": 10_000},
                             {"executor": "auto", "jobs": 10_000},
                             {"jobs": 0}, {"jobs": 2.0},
                             {"executor": "thread"}):
                polled = _run(service, submit(cid, **request, **dispatch))
                assert polled["state"] == "failed", (submit, dispatch)
                assert polled["error"]["code"] == 400, (submit, dispatch)

    def test_request_within_the_cpus_still_runs(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        for dispatch in ({"executor": "serial", "jobs": 1},
                         {"executor": "auto", "jobs": "auto"}):
            polled = _run(service, service.run_sweep(
                cid, source="VB", values=[0.75, 0.8], output="c",
                tenant=dispatch["executor"], **dispatch))
            assert polled["state"] == "done", dispatch
            assert polled["result"]["sweep_stats"]["executor"] == "serial"

    def test_only_sweeps_that_reach_the_pool_count_as_dispatches(
            self, ce_deck):
        """A process sweep of one chunk runs in-process and a cached
        repeat runs nothing: neither is a pool dispatch.  Two 8-value
        sweeps ship chunks to the pool; the second rides it warm."""
        svc = SimulationService(workers=0, sweep_jobs=2)
        try:
            cid = svc.create_circuit(ce_deck)["circuit_id"]

            def pools():
                sweep = svc.stats_payload()["stats"]["sweep"]
                return sweep["pool_dispatches"], sweep["pool_reuses"]

            one = dict(source="VB", values=[0.8], output="c")
            for _ in range(2):
                polled = _run(svc, svc.run_sweep(cid, **one))
                assert polled["result"]["sweep_stats"]["executor"] \
                    == "process"
                assert pools() == (0, 0)
            assert polled["result"]["sweep_stats"]["cache_hits"] == 1

            eight = dict(source="VB", output="c",
                         values=[0.72 + 0.02 * i for i in range(8)])
            _run(svc, svc.run_sweep(cid, **eight))
            assert pools()[0] == 1
            _run(svc, svc.run_sweep(cid, tenant="other", **eight))
            dispatches, reuses = pools()
            assert dispatches == 2
            assert reuses >= 1
        finally:
            svc.close()

    def test_optimize_job_hits_the_target(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_optimize(
            cid, output="c", target=3.0,
            parameters=[{"name": "VB", "lower": 0.7, "upper": 0.9}]))
        assert polled["state"] == "done"
        result = polled["result"]
        assert result["converged"] is True
        assert result["best_error"] < 1e-3
        assert 0.7 <= result["best_params"]["VB"] <= 0.9

    def test_optimize_rejects_missing_spec(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        polled = _run(service, service.run_optimize(cid, output="c"))
        assert polled["state"] == "failed"
        assert polled["error"]["error_type"] == "AnalysisError"


class TestTenancy:
    def test_tenants_do_not_share_caches(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        _run(service, service.run_dc(cid, tenant="alice"))
        bob = _run(service, service.run_dc(cid, tenant="bob"))
        # Bob's identical request was computed, not served from Alice's
        # cache: the result rows are tenant-scoped.
        assert "cached" not in bob["result"]
        alice_again = _run(service, service.run_dc(cid, tenant="alice"))
        assert alice_again["result"]["cached"] is True


class TestBackpressureAndCancellation:
    def test_queue_full_rejects_with_structured_503(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        accepted = [service.run_dc(cid) for _ in range(8)]
        assert all(p["status"] == "ok" for p in accepted)
        rejected = service.run_dc(cid)
        assert rejected["status"] == "rejected"
        assert rejected["code"] == 503
        assert rejected["error_type"] == "QueueFullError"
        assert rejected["queue_depth"] == 8
        assert rejected["queue_limit"] == 8
        assert service.poll(accepted[0]["job_id"])["state"] == "queued"
        stats = service.stats_payload()["stats"]["jobs"]
        assert stats["rejected"] == 1
        assert stats["submitted"] == 8

    def test_rejected_job_frees_no_capacity_after_drain(self, service,
                                                        ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        for _ in range(8):
            service.run_dc(cid)
        while service.step():
            pass
        again = service.run_dc(cid)  # capacity is back after the drain
        assert again["status"] == "ok"

    def test_cancel_queued_job_never_runs(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        keep = service.run_dc(cid)
        drop = service.run_dc(cid)
        cancelled = service.cancel_job(drop["job_id"])
        assert cancelled["state"] == "cancelled"
        while service.step():
            pass
        assert service.poll(keep["job_id"])["state"] == "done"
        assert service.poll(drop["job_id"])["state"] == "cancelled"
        stats = service.stats_payload()["stats"]["jobs"]
        assert stats["cancelled"] == 1
        assert stats["completed"] == 1

    def test_cancel_finished_job_is_a_noop(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        done = _run(service, service.run_dc(cid))
        payload = service.cancel_job(done["job_id"])
        assert payload["state"] == "done"
        assert payload["cancelled"] is False

    def test_priority_orders_execution(self, service, ce_deck):
        cid = service.create_circuit(ce_deck)["circuit_id"]
        low = service.run_dc(cid, priority=0)
        high = service.run_sweep(cid, priority=5, source="VB",
                                 values=[0.8], output="c")
        service.step()
        assert service.poll(high["job_id"])["state"] == "done"
        assert service.poll(low["job_id"])["state"] == "queued"


class TestStructuredFailures:
    def test_nonconvergent_deck_failure_carries_report(self, service,
                                                       nonconvergent_deck):
        cid = service.create_circuit(nonconvergent_deck)["circuit_id"]
        polled = _run(service, service.run_dc(cid))
        assert polled["state"] == "failed"
        error = polled["error"]
        assert error["code"] == 422
        assert error["error_type"] == "ConvergenceError"
        report = error["convergence_report"]
        assert report["stage"] == "source_stepping"
        assert report["iterations"] > 0
        assert report["worst_name"] == "V(out)"
        assert report["history"]
        assert "summary" in report


class TestThreadedWorkers:
    def test_wait_blocks_until_done(self, ce_deck):
        with SimulationService(workers=2) as svc:
            cid = svc.create_circuit(ce_deck)["circuit_id"]
            submitted = [svc.run_dc(cid)] + [
                svc.run_sweep(cid, source="VB", values=[0.75 + i * 0.01],
                              output="c")
                for i in range(6)
            ]
            for payload in submitted:
                polled = svc.wait(payload["job_id"], timeout=60.0)
                assert polled["state"] == "done", polled
            stats = svc.stats_payload()["stats"]
            assert stats["jobs"]["completed"] == len(submitted)
            assert stats["circuits"]["recompiles"] == 0

    def test_concurrent_clients_against_one_service(self, ce_deck):
        """Many client threads x several worker threads, one circuit:
        every job completes, no result is lost or corrupted."""
        with SimulationService(workers=4, queue_limit=256) as svc:
            cid = svc.create_circuit(ce_deck)["circuit_id"]
            reference = svc.wait(svc.run_dc(cid)["job_id"], timeout=60.0)
            expected = reference["result"]["nodes"]
            failures: list = []

            def client(tid: int) -> None:
                try:
                    for _ in range(6):
                        payload = svc.run_dc(cid, tenant=f"t{tid % 3}")
                        polled = svc.wait(payload["job_id"], timeout=60.0)
                        assert polled["state"] == "done", polled
                        assert polled["result"]["nodes"] == expected
                except BaseException as exc:  # noqa: BLE001
                    failures.append((tid, exc))

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures
            stats = svc.stats_payload()["stats"]
            assert stats["jobs"]["completed"] == 1 + 8 * 6
            assert stats["jobs"]["failed"] == 0
            assert stats["circuits"]["recompiles"] == 0
            assert stats["cache"]["hit_rate"] > 0.0
            assert stats["latency"]["p99_seconds"] >= \
                stats["latency"]["p50_seconds"]

    def test_close_cancels_queued_jobs(self, ce_deck):
        svc = SimulationService(workers=0)
        cid = svc.create_circuit(ce_deck)["circuit_id"]
        queued = svc.run_dc(cid)
        svc.close()
        assert svc.poll(queued["job_id"])["state"] == "cancelled"
