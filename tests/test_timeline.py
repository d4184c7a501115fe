"""Tests for :mod:`repro.obs.timeline` and :mod:`repro.obs.dashboard`.

The load-bearing guarantees:

* recording is purely observational -- results and cache keys are
  byte-identical with a timeline recorder installed or not;
* the reference and batch engines emit *identical* window samples and
  integrity events (the timeline inherits the engines' parity contract);
* worker-side timelines ship home through the runner's pool path, so a
  ``jobs=2`` run records the same series a ``jobs=1`` run does;
* the dashboard is one self-contained well-formed HTML file with no
  external references.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.obs import timeline as obs_timeline
from repro.sim.experiment import ExperimentConfig, run_comparison
from repro.sim.runner import SimulationJob

FAST = ExperimentConfig(num_accesses=240, num_cores=1)


@pytest.fixture(autouse=True)
def _reset_timeline():
    """Every test starts and ends with observability fully off."""
    obs.install(obs.Observation())
    yield
    obs.install(obs.Observation())


def _recording(recorder):
    """Record into *recorder* for a ``with`` block."""
    return obs.observing(obs.Observation(timeline=recorder))


def _payload(comparison):
    return json.dumps(comparison.to_payload(), sort_keys=True)


# ---------------------------------------------------------------------------
# Recorder and series mechanics
# ---------------------------------------------------------------------------
class TestTimelineRecorder:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            obs.TimelineRecorder(window=0)

    def test_series_samples_flush_to_chunks(self):
        recorder = obs.TimelineRecorder(window=4, chunk_size=2)
        series = recorder.series(workload="w", configuration="c", engine="e")
        for step in range(1, 6):
            series.sample(step * 4, step * 10, step * 1.5, step, step,
                          step, step, 7, 2, [step, 0])
        assert series.sample_count == 5
        assert series.chunk_count >= 2  # 2-row chunks flushed eagerly
        payload = recorder.to_payload()["series"][0]
        assert payload["samples"]["accesses"] == [4, 8, 12, 16, 20]
        assert payload["samples"]["instructions"] == [10, 20, 30, 40, 50]
        assert payload["bank_depth"] == [[s, 0] for s in range(1, 6)]

    def test_payload_derives_ipc_and_hit_rate(self):
        recorder = obs.TimelineRecorder(window=8)
        series = recorder.series(workload="w", configuration="c", engine="e")
        series.sample(8, 24, 12.0, 5, 3, 4, 3, 0, 0, [])
        samples = recorder.to_payload()["series"][0]["samples"]
        assert samples["ipc"] == [pytest.approx(2.0)]
        assert samples["metadata_hit_rate"] == [pytest.approx(0.75)]

    def test_event_cap_counts_drops_deterministically(self):
        recorder = obs.TimelineRecorder(window=4, max_events=3)
        series = recorder.series(workload="w", configuration="c", engine="e")
        for index in range(10):
            series.event("integrity_miss", index)
        payload = recorder.to_payload()["series"][0]
        assert len(payload["events"]) == 3
        assert payload["events_dropped"] == 7
        assert [e["access_index"] for e in payload["events"]] == [0, 1, 2]

    def test_snapshot_merge_round_trip_is_exact(self):
        import pickle

        worker = obs.TimelineRecorder(window=4)
        series = worker.series(workload="w", configuration="c", engine="e")
        series.sample(4, 10, 5.0, 3, 1, 2, 1, 7, 2, [1, 0])
        series.event("integrity_miss", 2, label="ctr")

        snapshot = pickle.loads(pickle.dumps(worker.snapshot()))
        parent = obs.TimelineRecorder(window=4)
        parent.merge(snapshot)
        assert parent.to_payload() == worker.to_payload()

    def test_module_state_helpers(self):
        """The process-wide observation carries the installed recorder."""
        assert obs.current().timeline is None
        recorder = obs.TimelineRecorder(window=16)
        with _recording(recorder):
            assert obs.current().timeline is recorder
            assert obs.current().active
            assert obs.current().registry is obs.NULL_REGISTRY
        assert obs.current().timeline is None

    def test_recorder_sample_count_sums_series(self):
        recorder = obs.TimelineRecorder(window=4)
        for name in ("a", "b"):
            series = recorder.series(workload=name, configuration="c", engine="e")
            series.sample(4, 1, 1.0, 0, 0, 0, 0, 0, 0, [])
        assert recorder.sample_count == 2
        assert len(recorder) == 2


# ---------------------------------------------------------------------------
# Engine integration: parity and zero effect
# ---------------------------------------------------------------------------
class TestEngineTimelineParity:
    def test_reference_and_batch_emit_identical_windows(self):
        recorder = obs.TimelineRecorder(window=32)
        experiment = ExperimentConfig(num_accesses=600, num_cores=2)
        with _recording(recorder):
            for engine in ("reference", "batch"):
                run_comparison(
                    ["secddr_ctr"], ["mcf"], experiment=experiment, engine=engine,
                )
        payload = recorder.to_payload()
        by_engine = {
            series["engine"]: series
            for series in payload["series"]
            if series["configuration"] == "secddr_ctr"
        }
        assert set(by_engine) == {"reference", "batch"}
        reference, batch = by_engine["reference"], by_engine["batch"]
        assert reference["sample_count"] == batch["sample_count"] > 0
        assert reference["samples"] == batch["samples"]
        assert reference["bank_depth"] == batch["bank_depth"]
        assert reference["events"] == batch["events"]
        assert reference["events_dropped"] == batch["events_dropped"]

    def test_integrity_events_carry_access_indices(self):
        recorder = obs.TimelineRecorder(window=64)
        with _recording(recorder):
            run_comparison(["secddr_ctr"], ["mcf"], experiment=FAST)
        series = next(
            s for s in recorder.to_payload()["series"]
            if s["configuration"] == "secddr_ctr"
        )
        assert series["events"], "secddr_ctr must miss the metadata cache"
        for event in series["events"]:
            assert event["kind"] == "integrity_miss"
            assert event["access_index"] >= 0

    def test_results_and_payload_bytes_identical_on_vs_off(self):
        off = run_comparison(["secddr_ctr", "tdx_baseline"], ["mcf"], experiment=FAST)
        recorder = obs.TimelineRecorder(window=16)
        with _recording(recorder):
            on = run_comparison(["secddr_ctr", "tdx_baseline"], ["mcf"], experiment=FAST)
        assert recorder.sample_count > 0  # it really recorded
        assert _payload(off) == _payload(on)

    def test_cache_keys_unchanged_by_timeline(self):
        job = SimulationJob(
            configuration="secddr_ctr", workload="mcf", experiment=FAST
        )
        key_off = job.cache_key()
        with _recording(obs.TimelineRecorder()):
            key_on = job.cache_key()
        assert key_off == key_on

    def test_pool_path_ships_worker_timelines_home(self, tmp_path):
        from repro.sim.runner import ParallelRunner, ResultCache

        recorder = obs.TimelineRecorder(window=32)
        jobs = [
            SimulationJob(configuration=c, workload="mcf", experiment=FAST)
            for c in ("secddr_ctr", "tdx_baseline")
        ]
        with _recording(recorder):
            ParallelRunner(jobs=2, cache=ResultCache(tmp_path)).run(jobs)
        payload = recorder.to_payload()
        configurations = {series["configuration"] for series in payload["series"]}
        assert configurations == {"secddr_ctr", "tdx_baseline"}
        for series in payload["series"]:
            assert series["sample_count"] > 0


# ---------------------------------------------------------------------------
# Session and CLI surfaces
# ---------------------------------------------------------------------------
class TestSessionTimeline:
    def test_with_observability_timeline_records_and_reads_back(self, tmp_path):
        from repro.api import Session

        session = (
            Session(cache_dir=tmp_path)
            .with_observability(metrics=False, timeline=32)
            .configs("secddr_ctr")
            .workloads("mcf")
            .with_experiment(num_accesses=240, num_cores=1)
        )
        session.compare()
        payload = session.timeline_payload()
        assert payload is not None
        assert payload["window"] == 32
        assert payload["series"] and payload["series"][0]["sample_count"] > 0

    def test_timeline_payload_is_none_when_off(self):
        from repro.api import Session

        assert Session().timeline_payload() is None


class TestCliTimeline:
    def test_compare_writes_timeline_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "timeline.json"
        assert main([
            "compare", "-c", "secddr_ctr", "-w", "mcf",
            "-a", "240", "-n", "1", "--no-cache",
            "--timeline", str(out), "--timeline-window", "32",
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["window"] == 32
        assert payload["series"][0]["sample_count"] > 0
        assert obs.current().timeline is None  # recorder uninstalled on exit

    def test_compare_writes_dashboard_html(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "dash.html"
        assert main([
            "compare", "-c", "secddr_ctr", "-w", "mcf",
            "-a", "240", "-n", "1", "--no-cache", "--timeline", str(out),
        ]) == 0
        html = out.read_text()
        _assert_dashboard_self_contained(html)

    def test_reproduce_emits_dashboard_artifacts(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "artifact"
        assert main([
            "reproduce", "--figures", "fig6", "--smoke", "-w", "mcf",
            "-o", str(out), "--timeline-window", "64",
        ]) == 0
        assert (out / "timeline.json").is_file()
        html = (out / "dashboard.html").read_text()
        _assert_dashboard_self_contained(html)
        assert "## Timeline" in (out / "REPORT.md").read_text()


# ---------------------------------------------------------------------------
# Dashboard rendering
# ---------------------------------------------------------------------------
def _assert_dashboard_self_contained(html):
    """Well-formed XML (after the doctype) with zero external references."""
    assert html.startswith("<!DOCTYPE html>")
    ET.fromstring(html.split("\n", 1)[1])
    for needle in ("http://", "https://", "src=", "<script", "@import"):
        assert needle not in html, "external reference %r in dashboard" % needle


class TestDashboard:
    def _recorded_payload(self):
        recorder = obs.TimelineRecorder(window=8)
        series = recorder.series(workload="mcf", configuration="secddr_ctr",
                                 engine="reference")
        for step in range(1, 9):
            series.sample(step * 8, step * 20, step * 9.5, step * 3, step,
                          step * 2, step, 5, 2, [step, 0, 1, 0])
        series.event("integrity_miss", 12)
        series.event("detection", 40, label="mac")
        return recorder.to_payload()

    def test_render_is_self_contained_and_well_formed(self):
        html = obs.render_dashboard(self._recorded_payload())
        _assert_dashboard_self_contained(html)
        assert "mcf" in html and "secddr_ctr" in html
        assert "<svg" in html and "polyline" in html

    def test_event_markers_and_table(self):
        html = obs.render_dashboard(self._recorded_payload())
        assert "integrity_miss" in html
        assert "detection" in html
        assert "<line" in html  # vertical event markers on the sparklines

    def test_phase_attribution_from_spans(self):
        spans = [
            {"name": "job", "dur": 1.5},
            {"name": "job", "dur": 0.5},
            {"name": "engine", "dur": 1.0},
        ]
        html = obs.render_dashboard(self._recorded_payload(), spans=spans)
        _assert_dashboard_self_contained(html)
        assert "Phase attribution" in html
        assert "<td>job</td><td>2</td><td>2.0000</td>" in html

    def test_empty_payload_renders(self, tmp_path):
        payload = {"schema": 1, "window": 256, "series": []}
        path = obs.write_dashboard(payload, tmp_path / "empty.html")
        _assert_dashboard_self_contained(path.read_text())


# ---------------------------------------------------------------------------
# Server surface
# ---------------------------------------------------------------------------
class TestServerTimeline:
    def test_timeline_endpoint_stream_and_artifacts(self, tmp_path):
        import threading

        from repro.server import Client, make_server
        from repro.server.service import ExperimentService

        service = ExperimentService(tmp_path / "service", jobs=1)
        service.start(recover=False)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = Client("http://%s:%d" % server.server_address[:2])
        try:
            health = client.health()
            assert health["timeline"]["available"] is True
            assert health["timeline"]["window"] == obs.DEFAULT_TIMELINE_WINDOW

            job = client.submit({
                "kind": "compare",
                "configurations": ["secddr_ctr"],
                "workloads": ["mcf"],
                "experiment": {"num_accesses": 600, "num_cores": 1},
            })
            events = list(client.metrics_stream(limit=2, interval=0.05))
            assert len(events) == 2
            assert events[0]["_event"] == "metrics"
            assert "health" in events[0] and "metrics" in events[0]

            client.wait(job["id"])
            payload = client.timeline(job["id"])
            assert payload["series"]
            assert payload["series"][0]["sample_count"] > 0

            artifacts = client.artifacts(job["id"])
            assert "timeline.json" in artifacts
            assert "dashboard.html" in artifacts
            html = client.artifact(job["id"], "dashboard.html").decode("utf-8")
            _assert_dashboard_self_contained(html)
            assert "Phase attribution" in html  # per-job collector spans

            # The persisted artifact and the endpoint serve the same payload.
            persisted = json.loads(client.artifact(job["id"], "timeline.json"))
            assert persisted == payload
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()

    def test_unknown_job_timeline_is_404(self, tmp_path):
        from repro.server.service import ExperimentService

        service = ExperimentService(tmp_path / "service")
        payload = service.timeline_payload("nope")
        assert payload["series"] == []

    def test_service_timeline_can_be_disabled(self, tmp_path):
        from repro.server.service import ExperimentService

        service = ExperimentService(tmp_path / "service", timeline_window=0)
        assert service.health_payload()["timeline"]["available"] is False
