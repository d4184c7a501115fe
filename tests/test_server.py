"""Tests for the HTTP experiment service (repro.server).

Hermetic by construction: the HTTP tests bind ``127.0.0.1:0`` (a free
ephemeral port) with the stdlib ``ThreadingHTTPServer`` and talk to it
through the bundled ``urllib`` client -- no external processes, no fixed
ports, no third-party HTTP stack.
"""

import json
import socket
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.api import Session
from repro.errors import (
    UnknownConfigurationError,
    UnknownEngineError,
    UnknownWorkloadError,
)
from repro.secure.configs import CONFIGURATIONS
from repro.server import (
    Client,
    ExperimentService,
    JobStore,
    ServiceError,
    make_server,
)
from repro.server.schemas import (
    RequestError,
    configuration_from_payload,
    configuration_payload,
    dump_payload,
    registries_payload,
    validate_request,
)
from repro.sim.experiment import ExperimentConfig, run_comparison

#: Small enough for CI, large enough to exercise the whole pipeline.
EXPERIMENT = {"num_accesses": 240, "num_cores": 1}
FAST = ExperimentConfig(**EXPERIMENT)

COMPARE_SPEC = {
    "kind": "compare",
    "configurations": ["secddr_ctr", "integrity_tree_64"],
    "workloads": ["mcf", "pr"],
    "experiment": EXPERIMENT,
}


def expected_result_bytes(spec=COMPARE_SPEC):
    comparison = run_comparison(
        configurations=list(spec["configurations"]),
        workloads=list(spec["workloads"]),
        baseline=spec.get("baseline", "tdx_baseline"),
        experiment=ExperimentConfig(**spec["experiment"]),
    )
    return dump_payload(comparison.to_payload())


@pytest.fixture
def service(tmp_path):
    svc = ExperimentService(tmp_path / "svc", jobs=1)
    yield svc
    svc.stop(timeout=5)


@pytest.fixture
def client(service):
    service.start()
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield Client("http://127.0.0.1:%d" % server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()


class TestSchemas:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(RequestError, match="kind"):
            validate_request({"kind": "comapre"})

    def test_unknown_configuration_gets_closest_match(self):
        with pytest.raises(UnknownConfigurationError, match="secddr_ctr"):
            validate_request(dict(COMPARE_SPEC, configurations=["secddr_ctrr"]))

    def test_unknown_workload_gets_closest_match(self):
        with pytest.raises(UnknownWorkloadError, match="mcf"):
            validate_request(dict(COMPARE_SPEC, workloads=["mfc"]))

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(UnknownEngineError):
            validate_request(dict(COMPARE_SPEC, engine="bacth"))

    def test_priority_must_be_an_integer(self):
        with pytest.raises(RequestError, match="priority"):
            validate_request(dict(COMPARE_SPEC, priority="high"))

    def test_set_vocabulary_matches_the_cli(self):
        validated = validate_request(dict(COMPARE_SPEC, set={"tree_arity": 32}))
        assert validated["set"] == {"tree_arity": 32}
        with pytest.raises(KeyError, match="tree_arity"):
            validate_request(dict(COMPARE_SPEC, set={"tree_aritty": 32}))

    def test_configuration_payload_round_trips(self):
        spec = CONFIGURATIONS["secddr_ctr"].derive(tree_arity=32, counters_per_line=32)
        assert configuration_from_payload(configuration_payload(spec)) == spec

    def test_configuration_payload_round_trips_custom_timing(self):
        import dataclasses

        timing = dataclasses.replace(CONFIGURATIONS["secddr_ctr"].timing, tCL=30)
        spec = CONFIGURATIONS["secddr_ctr"].derive(timing=timing)
        payload = configuration_payload(spec)
        assert isinstance(payload["timing"], dict)  # not a known preset
        assert configuration_from_payload(payload) == spec

    def test_registries_payload_covers_every_registry(self):
        payload = registries_payload()
        assert set(payload) == {
            "configurations", "workloads", "figures", "engines",
            "attacks", "tamper_actions",
        }
        assert "secddr_ctr" in payload["configurations"]
        assert "mcf" in payload["workloads"]
        assert payload["engines"]["batch"]["vectorized"] is True

    def test_dump_payload_is_canonical(self):
        assert dump_payload({"b": 1, "a": 2}) == b'{\n  "a": 2,\n  "b": 1\n}\n'


class TestJobStore:
    def test_create_load_list_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create({"kind": "compare", "priority": 3})
        loaded = store.load(record.id)
        assert loaded.state == "queued"
        assert loaded.priority == 3
        assert [r.id for r in store.list()] == [record.id]

    def test_ids_stay_in_submission_order_across_restarts(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create({"kind": "compare"})
        reopened = JobStore(tmp_path)
        second = reopened.create({"kind": "compare"})
        assert [r.id for r in reopened.list()] == [first.id, second.id]

    def test_recover_requeues_queued_and_fails_running(self, tmp_path):
        store = JobStore(tmp_path)
        queued = store.create({"kind": "compare"})
        running = store.create({"kind": "compare"})
        running.state = "running"
        store.save(running)

        reopened = JobStore(tmp_path)
        requeued = reopened.recover()
        assert [r.id for r in requeued] == [queued.id]
        failed = reopened.load(running.id)
        assert failed.state == "failed"
        assert failed.error["type"] == "ServerRestart"

    def test_events_append_and_replay_with_offset(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create({"kind": "compare"})
        for index in range(3):
            store.append_event(record.id, {"event": "job", "index": index})
        assert [e["index"] for e in store.read_events(record.id)] == [0, 1, 2]
        assert [e["index"] for e in store.read_events(record.id, offset=2)] == [2]


class TestService:
    def test_compare_job_result_matches_direct_run(self, service):
        service.start()
        record = service.submit(COMPARE_SPEC)
        finished = service.wait(record.id)
        assert finished.state == "done"
        raw = service.store.result_path(record.id).read_bytes()
        assert raw == expected_result_bytes()

    def test_identical_resubmission_is_all_cache_hits(self, service):
        service.start()
        first = service.wait(service.submit(COMPARE_SPEC).id)
        second = service.wait(service.submit(COMPARE_SPEC).id)
        assert first.progress["simulated"] == first.progress["total"]
        assert second.progress["cached"] == second.progress["total"]
        assert "simulated" not in second.progress
        raw_first = service.store.result_path(first.id).read_bytes()
        raw_second = service.store.result_path(second.id).read_bytes()
        assert raw_first == raw_second

    def test_priority_orders_the_queue(self, service):
        # Enqueue before starting the worker so priorities, not arrival
        # times, decide the order.
        low = service.submit(dict(COMPARE_SPEC, priority=0))
        high = service.submit(dict(COMPARE_SPEC, workloads=["gcc"], priority=5))
        service.start(recover=False)
        service.wait(low.id)
        service.wait(high.id)
        assert service.job(high.id).started_at < service.job(low.id).started_at

    def test_failing_job_reports_detail_and_queue_continues(self, service, tmp_path):
        from repro.workloads.registry import REGISTRY

        def raising_builder(num_accesses=0, seed=0):
            raise ValueError("synthetic workload failure")

        # The service runs with jobs=1 (inline execution in the worker
        # thread), so a closure builder is fine -- nothing is pickled.
        REGISTRY.register("boom", raising_builder, cache_token="boom-v1", mpki=50.0)
        try:
            bad = service.submit(dict(COMPARE_SPEC, workloads=["boom", "mcf"]))
            good = service.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
            service.start(recover=False)
            bad_record = service.wait(bad.id)
            good_record = service.wait(good.id)
        finally:
            REGISTRY.unregister("boom")
        assert bad_record.state == "failed"
        assert bad_record.error["type"] == "JobFailedError"
        failures = bad_record.error["failures"]
        assert {f["workload"] for f in failures} == {"boom"}
        assert all(f["error_type"] == "ValueError" for f in failures)
        assert all("synthetic workload failure" in f["error_message"] for f in failures)
        # One failure per configuration (baseline + the two evaluated ones);
        # the healthy pairs of the failed matrix were still simulated and
        # cached, and the queued job behind it completed normally.
        assert bad_record.progress["failed"] == 3
        assert bad_record.progress["simulated"] == bad_record.progress["total"] - 3
        assert good_record.state == "done"

    def test_restart_recovers_the_queue(self, tmp_path):
        workdir = tmp_path / "svc"
        service = ExperimentService(workdir, jobs=1)
        record = service.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
        # Never started: the job is still queued on disk, as after a crash.
        reborn = ExperimentService(workdir, jobs=1).start()
        try:
            finished = reborn.wait(record.id)
            assert finished.state == "done"
        finally:
            reborn.stop(timeout=5)

    def test_sweep_job(self, service):
        service.start()
        record = service.submit({
            "kind": "sweep", "sweep": "packing", "values": [8, 64],
            "workloads": ["mcf"], "experiment": EXPERIMENT,
        })
        finished = service.wait(record.id)
        assert finished.state == "done"
        payload = json.loads(service.store.result_path(record.id).read_bytes())
        assert set(payload["summary"]) == {"8", "64"}
        assert set(payload["summary"]["8"]) == {"secddr", "encrypt_only"}
        assert (service.store.artifacts_dir(record.id) / "sweep.csv").is_file()


class TestHTTP:
    def test_health_and_registries(self, client):
        assert client.health()["status"] == "ok"
        assert client.registries() == json.loads(dump_payload(registries_payload()))

    def test_submit_stream_and_byte_identical_result(self, client):
        job = client.submit(COMPARE_SPEC)
        assert job["state"] == "queued"
        events = list(client.events(job["id"]))
        assert events[0] == {"_event": "state", "_id": 0, "event": "state", "state": "queued"}
        assert events[-1]["state"] == "done"
        statuses = [e["status"] for e in events if e.get("event") == "job"]
        assert statuses.count("done") == 6  # baseline + 2 configs x 2 workloads
        assert client.result_bytes(job["id"]) == expected_result_bytes()

    def test_session_compare_spec_round_trips_over_http(self, client):
        session = (
            Session()
            .configs("secddr_ctr", "integrity_tree_64")
            .workloads("mcf", "pr")
            .with_experiment(**EXPERIMENT)
        )
        job = client.submit(session.compare_spec())
        client.wait(job["id"])
        assert client.result_bytes(job["id"]) == dump_payload(session.compare().to_payload())

    def test_events_resume_from_last_event_id(self, client):
        job = client.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
        full = list(client.events(job["id"]))
        resumed = list(client.events(job["id"], last_event_id=full[1]["_id"]))
        assert resumed == full[2:]

    def test_bad_submission_is_a_400_with_closest_match(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(COMPARE_SPEC, configurations=["secddr_ctrr"]))
        assert excinfo.value.status == 400
        assert "secddr_ctr" in str(excinfo.value)
        assert client.jobs() == []  # nothing was stored

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("000099-beef00")
        assert excinfo.value.status == 404

    def test_result_of_unfinished_job_is_a_409(self, service, tmp_path):
        # Worker never started: the job stays queued.
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            client = Client("http://127.0.0.1:%d" % server.server_address[1])
            job = client.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
            with pytest.raises(ServiceError) as excinfo:
                client.result_bytes(job["id"])
            assert excinfo.value.status == 409
        finally:
            server.shutdown()
            server.server_close()

    def test_artifact_download_and_traversal_guard(self, client):
        job = client.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
        client.wait(job["id"])
        assert client.artifacts(job["id"]) == [
            "dashboard.html", "normalized.csv", "table.txt", "timeline.json",
        ]
        csv = client.artifact(job["id"], "normalized.csv").decode()
        assert csv.splitlines()[0].startswith("workload,")
        with pytest.raises(ServiceError) as excinfo:
            client.artifact(job["id"], "%2e%2e/job.json")
        assert excinfo.value.status == 404

    def test_derived_configuration_over_http(self, client):
        job = client.submit({
            "kind": "compare",
            "configurations": ["secddr_ctr"],
            "workloads": ["gcc"],
            "set": {"counters_per_line": 32},
            "experiment": EXPERIMENT,
        })
        record = client.wait(job["id"])
        assert record["state"] == "done"
        result = client.result(job["id"])
        assert "secddr_ctr+counters_per_line=32" in result["configurations"]


class TestSSEEdgeCases:
    """Replay/follow corner cases: streams must close, never poll forever."""

    def _finished_job(self, client):
        job = client.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
        full = list(client.events(job["id"]))
        assert full[-1]["state"] == "done"
        return job, full

    def test_last_event_id_of_terminal_event_closes_with_no_replay(self, client):
        job, full = self._finished_job(client)
        # Reconnecting with the terminal event's own id leaves nothing to
        # replay; the stream must close instead of following forever.
        assert list(client.events(job["id"], last_event_id=full[-1]["_id"])) == []

    def test_last_event_id_past_end_of_log_closes(self, client):
        job, full = self._finished_job(client)
        beyond = full[-1]["_id"] + 100
        assert list(client.events(job["id"], last_event_id=beyond)) == []

    def test_replay_of_job_that_failed_before_any_event(self, service, client):
        # A job that died before the worker emitted anything: terminal
        # record on disk, no events.jsonl at all.
        record = service.store.create({"kind": "compare"})
        record.state = "failed"
        service.store.save(record)
        assert list(client.events(record.id)) == []

    def test_client_disconnect_mid_follow_keeps_the_server_alive(self, service, client):
        record = service.store.create({"kind": "compare"})  # stays queued: follow mode
        parts = urlsplit(client.base_url)
        sock = socket.create_connection((parts.hostname, parts.port), timeout=10)
        sock.sendall(
            ("GET /jobs/%s/events HTTP/1.1\r\nHost: repro\r\n\r\n" % record.id).encode()
        )
        assert sock.recv(64)  # response headers arrived: the follow loop is live
        sock.close()  # hang up mid-follow
        # Wake the follower so it writes into the dead socket (BrokenPipeError
        # must be swallowed, not take the handler thread down noisily).
        service.store.append_event(record.id, {"event": "state", "state": "running"})
        record.state = "failed"
        service.store.save(record)
        service.store.append_event(record.id, {"event": "state", "state": "failed"})
        time.sleep(0.3)
        # The server survived and still does real work afterwards.
        assert client.health()["status"] == "ok"
        job = client.submit(dict(COMPARE_SPEC, workloads=["gcc"]))
        assert client.wait(job["id"])["state"] == "done"


class TestBenchJobs:
    def test_bench_validation_rejects_unknown_bench(self):
        # Registry errors propagate as-is (the HTTP layer maps them to 400),
        # matching how unknown configurations/workloads are reported.
        from repro.errors import UnknownBenchError

        with pytest.raises(UnknownBenchError, match="engines"):
            validate_request({"kind": "bench", "benches": ["engnes"]})

    def test_bench_validation_requires_boolean_smoke(self):
        with pytest.raises(RequestError, match="smoke"):
            validate_request({"kind": "bench", "benches": ["engines"], "smoke": "yes"})

    def test_bench_job_runs_and_writes_artifacts(self, service):
        service.start()
        record = service.submit({"kind": "bench", "benches": ["engines"], "smoke": True})
        finished = service.wait(record.id, timeout=120)
        assert finished.state == "done"
        payload = json.loads(service.store.result_path(record.id).read_bytes())
        assert payload["kind"] == "bench"
        assert payload["benches"] == ["engines"]
        assert payload["profile"] == "smoke"
        assert payload["metrics"]["engines"]["parity_exact"] == 1.0
        names = payload["artifacts"]
        assert "BENCH_REPORT.md" in names
        assert any(n.startswith("BENCH_") and n.endswith(".json") for n in names)
        artifacts_dir = service.store.artifacts_dir(record.id)
        # Exactly the listed artifacts plus the service's per-job timeline
        # pair — no lock sidecars or temp files.
        assert sorted(p.name for p in artifacts_dir.iterdir()) == sorted(
            names + ["dashboard.html", "timeline.json"]
        )
