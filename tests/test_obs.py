"""Tests for :mod:`repro.obs`: metrics, tracing, structured logging.

The load-bearing guarantees:

* the default observation records nothing, and installing one never
  changes simulation results or cache keys (observability is purely
  observational);
* cross-process aggregation is *exact* -- worker snapshots merged by the
  parent reproduce the counts a single-process run would have recorded;
* ``GET /metrics`` is valid Prometheus text exposition format 0.0.4;
* exported Chrome traces are valid JSON whose job spans sum within the
  enclosing span's wall time.
"""

import dataclasses
import io
import json
import logging
import pickle
import re
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, _NULL_CHILD
from repro.sim.experiment import ExperimentConfig, run_comparison
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob

FAST = ExperimentConfig(num_accesses=240, num_cores=1)


def _switch_off():
    tracer = obs.install(obs.Observation()).tracer
    if tracer is not None:
        tracer.close()


@pytest.fixture(autouse=True)
def _reset_observability():
    """Every test starts and ends with observability fully off."""
    _switch_off()
    yield
    _switch_off()


def _observe_metrics():
    """Install a live registry for the rest of the test and return it."""
    registry = obs.MetricsRegistry()
    obs.install(obs.Observation(registry=registry))
    return registry


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = obs.MetricsRegistry()
        registry.counter("ops_total", "Ops.", op="hit").inc()
        registry.counter("ops_total", op="hit").inc(2)
        registry.counter("ops_total", op="miss").inc()
        summary = registry.summary()
        assert summary["ops_total{op=hit}"] == 3
        assert summary["ops_total{op=miss}"] == 1

    def test_gauge_is_last_write_wins(self):
        registry = obs.MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert registry.summary()["depth"] == 4

    def test_histogram_buckets_and_sum(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert hist.count == 3
        assert hist.total == pytest.approx(2.55)
        assert registry.summary()["seconds"] == {"count": 3, "sum": 2.55}

    def test_kind_mismatch_is_rejected(self):
        registry = obs.MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_snapshot_merge_is_exact(self):
        worker = obs.MetricsRegistry()
        worker.counter("jobs_total", state="done").inc(3)
        worker.gauge("depth").set(7)
        worker.histogram("seconds", buckets=(1.0,)).observe(0.5)

        parent = obs.MetricsRegistry()
        parent.counter("jobs_total", state="done").inc()
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())

        summary = parent.summary()
        assert summary["jobs_total{state=done}"] == 7  # 1 + 3 + 3
        assert summary["depth"] == 7  # gauges: last write wins
        assert summary["seconds"] == {"count": 2, "sum": 1.0}

    def test_snapshot_is_json_serializable(self):
        registry = obs.MetricsRegistry()
        registry.counter("a_total", op="x").inc()
        registry.histogram("b_seconds").observe(0.2)
        # Label keys are tuples (not JSON), but the payload must pickle and
        # round-trip structurally -- it crosses the multiprocessing boundary.
        import pickle

        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        fresh = obs.MetricsRegistry()
        fresh.merge(snapshot)
        assert fresh.summary() == registry.summary()

    def test_concurrent_increments_are_not_lost(self):
        registry = obs.MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("spins_total", thread="any").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.summary()["spins_total{thread=any}"] == 8000


class TestNullRegistry:
    def test_default_registry_is_off_and_noop(self):
        assert not obs.current().active
        registry = obs.current().registry
        assert registry is obs.NULL_REGISTRY
        child = registry.counter("anything_total", label="x")
        assert child is _NULL_CHILD
        child.inc()
        child.observe(1.0)
        child.set(2.0)
        assert registry.summary() == {}
        assert registry.snapshot() == {}
        assert registry.families() == []

    def test_enable_disable_roundtrip(self):
        """Metrics go on and off by installing and restoring an observation."""
        default = obs.current()
        live = obs.Observation(registry=obs.MetricsRegistry())
        with obs.observing(live) as installed:
            assert installed is live and obs.current() is live
            assert live.active
            obs.current().registry.counter("x_total").inc()
        assert obs.current() is default
        assert obs.current().registry.summary() == {}
        assert live.registry.summary() == {"x_total": 1}
        assert obs.install(live) is default
        assert obs.install(default) is live


# ---------------------------------------------------------------------------
# The observation context
# ---------------------------------------------------------------------------
class TestObservation:
    def test_exactly_three_frozen_fields_default_off(self):
        fields = [field.name for field in dataclasses.fields(obs.Observation)]
        assert fields == ["registry", "tracer", "timeline"]
        default = obs.Observation()
        assert default.registry is obs.NULL_REGISTRY
        assert default.tracer is None and default.timeline is None
        assert not default.active
        with pytest.raises(dataclasses.FrozenInstanceError):
            default.tracer = obs.Tracer()

    @pytest.mark.parametrize("field, signal", [
        ("registry", obs.MetricsRegistry),
        ("tracer", obs.Tracer),
        ("timeline", obs.TimelineRecorder),
    ])
    def test_any_one_signal_makes_it_active(self, field, signal):
        assert obs.Observation(**{field: signal()}).active

    def test_for_worker_builds_only_the_recorded_kinds(self):
        parent = obs.Observation(timeline=obs.TimelineRecorder(window=16))
        worker = parent.for_worker()
        assert worker.registry is obs.NULL_REGISTRY
        assert worker.tracer is None
        assert worker.timeline is not parent.timeline
        assert worker.timeline.window == 16 and len(worker.timeline) == 0

        full = obs.Observation(
            registry=obs.MetricsRegistry(), tracer=obs.Tracer(), timeline=parent.timeline,
        ).for_worker()
        assert isinstance(full.registry, obs.MetricsRegistry)
        assert full.registry.summary() == {}
        assert full.tracer.path is None  # an in-memory collector
        assert obs.Observation().for_worker() == obs.Observation()

    def test_ship_and_merge_round_trip_exactly(self):
        parent = obs.Observation(
            registry=obs.MetricsRegistry(),
            tracer=obs.Tracer(),
            timeline=obs.TimelineRecorder(window=4),
        )
        worker = parent.for_worker()
        with obs.observing(worker):
            obs.current().registry.counter("ops_total").inc(3)
            with obs.span("engine"):
                pass
            series = obs.current().timeline.series("mcf", "secddr_ctr", "batch")
            series.sample(4, 8, 16.0, 4, 0, 2, 1, 3, 1, [0, 1])
        shipped = pickle.loads(pickle.dumps(worker.ship()))
        job_id = parent.tracer.record("job", 2.0, 1.0)
        parent.merge(shipped, base=2.0, parent=job_id)
        assert parent.registry.summary() == {"ops_total": 3}
        assert parent.timeline.to_payload() == worker.timeline.to_payload()
        engine = next(r for r in parent.tracer.drain() if r["name"] == "engine")
        assert engine["parent"] == job_id and engine["ts"] >= 2.0
        assert worker.ship()["spans"] == []  # shipping drained the collector


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
# Label values must be fully escaped: a backslash may only introduce the
# three 0.0.4 escape sequences (\\, \", \n); raw quotes or stray backslashes
# make the whole line malformed.
_LABEL_VALUE = r'(?:\\["\\n]|[^"\\])*'
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"" + _LABEL_VALUE
    + r"\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"" + _LABEL_VALUE + r"\")*\})?"
    r" (\+Inf|-?[0-9.e+-]+)$"
)


def parse_prometheus(text):
    """Tiny exposition-format validator: returns {family: type}.

    Raises AssertionError on any malformed line -- the same checks CI's
    obs-smoke job runs against a live ``GET /metrics`` scrape.  Beyond
    per-line syntax (including fully-escaped label values), every
    histogram family must expose its ``_sum`` and ``_count`` series.
    """
    families = {}
    sample_names = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            assert len(parts) == 4, line
            assert "\n" not in parts[3]  # escaped help never splits lines
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert kind in ("counter", "gauge", "histogram"), line
            families[name] = kind
        else:
            assert _SAMPLE_RE.match(line), "malformed sample line: %r" % line
            sample_names.add(line.split("{")[0].split(" ")[0])
    for name, kind in families.items():
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                assert name + suffix in sample_names, (
                    "histogram %s missing %s series" % (name, suffix)
                )
    return families


class TestPrometheusRender:
    def test_families_types_and_samples(self):
        registry = obs.MetricsRegistry()
        registry.counter("jobs_total", "Jobs.", state="done").inc(2)
        registry.gauge("depth", "Queue depth.").set(3)
        registry.histogram("seconds", "Latency.", buckets=(0.1, 1.0)).observe(0.5)
        families = parse_prometheus(obs.render_prometheus(registry))
        assert families == {
            "jobs_total": "counter", "depth": "gauge", "seconds": "histogram",
        }

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = obs.render_prometheus(registry)
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_label_values_are_escaped(self):
        registry = obs.MetricsRegistry()
        registry.counter("odd_total", label='quo"te\nnl').inc()
        text = obs.render_prometheus(registry)
        assert 'label="quo\\"te\\nnl"' in text

    def test_backslash_label_values_escape_and_parse(self):
        registry = obs.MetricsRegistry()
        registry.counter("path_total", path="C:\\tmp\\x").inc()
        text = obs.render_prometheus(registry)
        assert 'path="C:\\\\tmp\\\\x"' in text
        parse_prometheus(obs.render_prometheus(registry))

    def test_parser_rejects_unescaped_label_values(self):
        # Raw backslash (not introducing an escape) and raw newline inside a
        # label value are both malformed; the CI-shared parser must say so.
        assert not _SAMPLE_RE.match('m_total{l="bad\\esc"} 1')
        assert not _SAMPLE_RE.match('m_total{l="unterminated\\"} 1')
        with pytest.raises(AssertionError, match="malformed"):
            parse_prometheus('# TYPE m_total counter\nm_total{l="a\\b"} 1')
        assert _SAMPLE_RE.match('m_total{l="ok\\\\really\\n\\"quoted\\""} 1')

    def test_help_text_is_escaped_to_one_line(self):
        registry = obs.MetricsRegistry()
        registry.counter("h_total", "multi\nline \\ help").inc()
        text = obs.render_prometheus(registry)
        assert "# HELP h_total multi\\nline \\\\ help" in text
        parse_prometheus(text)

    def test_every_histogram_family_has_sum_and_count(self):
        registry = obs.MetricsRegistry()
        registry.histogram("a_seconds", "A.", kind="x").observe(0.2)
        registry.histogram("b_seconds", "B.").observe(1.5)
        text = obs.render_prometheus(registry)
        families = parse_prometheus(text)
        assert families["a_seconds"] == families["b_seconds"] == "histogram"
        for name in ("a_seconds", "b_seconds"):
            assert "%s_sum" % name in text and "%s_count" % name in text


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_write_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = obs.Tracer(path)
        with tracer.span("outer", kind="test") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # Spans are emitted on exit: inner first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert outer["id"] == outer_id and inner["id"] == inner_id
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"kind": "test"}
        assert 0 <= inner["ts"] and inner["dur"] >= 0
        assert outer["dur"] >= inner["dur"]

    def test_record_retroactive_parents_under_active_span(self):
        tracer = obs.Tracer()
        with tracer.span("matrix") as matrix_id:
            job_id = tracer.record("job", 0.5, 0.25, attrs={"status": "done"})
        records = tracer.drain()
        job = next(r for r in records if r["name"] == "job")
        assert job["id"] == job_id
        assert job["parent"] == matrix_id

    def test_ingest_rebases_and_remaps_worker_records(self):
        worker = obs.Tracer()
        with worker.span("engine", engine="reference"):
            pass
        shipped = worker.drain()

        parent = obs.Tracer()
        job_id = parent.record("job", 1.0, 0.5)
        parent.ingest(shipped, base=1.0, parent=job_id)
        engine = next(r for r in parent.drain() if r["name"] == "engine")
        assert engine["parent"] == job_id
        assert engine["id"] != shipped[0]["id"] or shipped[0]["id"] > 1
        assert engine["ts"] == pytest.approx(1.0 + shipped[0]["ts"])

    def test_ingest_empty_worker_batch_is_a_noop(self):
        parent = obs.Tracer()
        job_id = parent.record("job", 0.0, 0.1)
        parent.ingest([], base=0.0, parent=job_id)
        records = parent.drain()
        assert [r["name"] for r in records] == ["job"]

    def test_ingest_out_of_order_worker_batch(self):
        # Workers emit spans on exit, so a drained batch is not sorted by
        # start time; ingest must rebase and reparent regardless of order.
        worker = obs.Tracer()
        with worker.span("outer"):
            with worker.span("late"):
                pass
            with worker.span("later"):
                pass
        shipped = worker.drain()
        shipped.reverse()  # deliberately out of start-time order
        assert [r["name"] for r in shipped] == ["outer", "later", "late"]

        parent = obs.Tracer()
        job_id = parent.record("job", 2.0, 1.0)
        parent.ingest(shipped, base=2.0, parent=job_id)
        records = {r["name"]: r for r in parent.drain() if r["name"] != "job"}
        assert set(records) == {"outer", "late", "later"}
        assert records["outer"]["parent"] == job_id
        assert records["late"]["parent"] == records["outer"]["id"]
        assert records["later"]["parent"] == records["outer"]["id"]
        for record in records.values():
            assert record["ts"] >= 2.0  # rebased onto the parent timebase
        ids = [r["id"] for r in records.values()]
        assert len(set(ids)) == len(ids) and job_id not in ids

    def test_module_span_is_noop_when_off(self):
        assert obs.current().tracer is None
        with obs.span("anything", key="value") as span_id:
            assert span_id is None

    def test_module_span_routes_to_active_tracer(self):
        tracer = obs.Tracer()
        with obs.observing(obs.Observation(tracer=tracer)), obs.span("top") as span_id:
            assert span_id is not None
            assert tracer.current_span_id() == span_id
        assert [r["name"] for r in tracer.drain()] == ["top"]


class TestChromeExport:
    def test_exports_complete_events_in_microseconds(self, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        tracer = obs.Tracer(jsonl)
        with tracer.span("outer"):
            with tracer.span("inner", step=1):
                pass
        tracer.close()

        out = tmp_path / "chrome.json"
        count = obs.export_chrome_trace(jsonl, out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert count == len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert inner["args"]["step"] == 1

    def test_export_with_zero_spans_writes_valid_empty_trace(self, tmp_path):
        jsonl = tmp_path / "empty.jsonl"
        jsonl.write_text("")
        out = tmp_path / "chrome.json"
        count = obs.export_chrome_trace(jsonl, out)
        assert count == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"] == []


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------
class TestStructuredLogging:
    def test_json_formatter_emits_parseable_records(self):
        stream = io.StringIO()
        logger = obs.configure_logging("info", json_output=True, stream=stream)
        logger.info("hello %s", "world")
        record = json.loads(stream.getvalue())
        assert record["message"] == "hello world"
        assert record["level"] == "info"
        assert record["logger"] == "repro"
        assert isinstance(record["ts"], float)

    def test_plain_mode_is_byte_exact_message_only(self):
        stream = io.StringIO()
        logger = obs.configure_logging("info", json_output=False, stream=stream)
        logger.info("cache: %d hit(s), %d miss(es)", 6, 0)
        assert stream.getvalue() == "cache: 6 hit(s), 0 miss(es)\n"

    def test_level_filtering(self):
        stream = io.StringIO()
        obs.configure_logging("warning", stream=stream)
        child = obs.get_logger("repro.test_child")
        child.info("dropped")
        child.warning("kept")
        assert stream.getvalue() == "kept\n"

    def test_unknown_level_is_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging("loud")

    def test_get_logger_namespaces_under_repro(self):
        assert obs.get_logger("mine").name == "repro.mine"
        assert obs.get_logger("repro.sim.runner").name == "repro.sim.runner"

    def teardown_method(self):
        # configure_logging mutates the shared "repro" logger; restore the
        # library default so later tests see untouched logging.
        obs.configure_logging("warning")
        logging.getLogger("repro").handlers.clear()


# ---------------------------------------------------------------------------
# Runner integration: exact counts, zero-effect determinism
# ---------------------------------------------------------------------------
def _jobs(experiment=FAST):
    return [
        SimulationJob(configuration=c, workload=w, experiment=experiment)
        for c in ("secddr_ctr", "integrity_tree_64")
        for w in ("mcf", "gcc")
    ]


class TestRunnerMetrics:
    def test_cold_then_warm_counts_are_exact(self, tmp_path):
        registry = _observe_metrics()
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=1, cache=cache).run(_jobs())
        summary = registry.summary()
        assert summary["cache_ops_total{op=miss}"] == 4
        assert summary["sim_jobs_total{state=done}"] == 4
        assert summary["cache_writes_total"] == 4
        assert summary["engine_jobs_total{engine=batch}"] == 4
        assert summary["sim_job_seconds{state=done}"]["count"] == 4

        ParallelRunner(jobs=1, cache=cache).run(_jobs())
        summary = registry.summary()
        assert summary["cache_ops_total{op=hit}"] == 4
        assert summary["sim_jobs_total{state=cached}"] == 4
        # hit + miss == total jobs across both passes
        assert (
            summary["cache_ops_total{op=hit}"] + summary["cache_ops_total{op=miss}"]
            == 8
        )

    def test_pool_path_ships_worker_metrics_exactly(self, tmp_path):
        registry = _observe_metrics()
        cache = ResultCache(tmp_path)
        ParallelRunner(jobs=2, cache=cache).run(_jobs())
        summary = registry.summary()
        # The cache is consulted in the parent; the engine runs in workers.
        # Both tallies must agree exactly with the job count.
        assert summary["cache_ops_total{op=miss}"] == 4
        assert summary["engine_jobs_total{engine=batch}"] == 4
        assert summary["sim_jobs_total{state=done}"] == 4
        assert "engine_accesses_per_sec{engine=batch}" in summary

    def test_pool_spans_are_reparented_under_job_spans(self, tmp_path):
        # Metrics, spans and timelines all ride the same worker round trip.
        observation = obs.Observation(
            registry=obs.MetricsRegistry(),
            tracer=obs.Tracer(tmp_path / "trace.jsonl"),
            timeline=obs.TimelineRecorder(window=32),
        )
        with obs.observing(observation):
            ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "cache")).run(_jobs())
        observation.tracer.close()
        summary = observation.registry.summary()
        assert summary["sim_jobs_total{state=done}"] == 4
        assert summary["engine_jobs_total{engine=batch}"] == 4
        assert summary["cache_ops_total{op=miss}"] == 4
        series = observation.timeline.to_payload()["series"]
        assert sorted((s["configuration"], s["workload"]) for s in series) == sorted(
            (job.configuration_name, job.workload_name) for job in _jobs()
        )
        assert all(s["sample_count"] > 0 for s in series)
        records = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["matrix"]) == 1
        assert len(by_name["job"]) == 4
        assert len(by_name["engine"]) == 4
        matrix_id = by_name["matrix"][0]["id"]
        job_ids = {r["id"] for r in by_name["job"]}
        assert all(r["parent"] == matrix_id for r in by_name["job"])
        assert all(r["parent"] in job_ids for r in by_name["engine"])
        assert all(r["ts"] >= 0 for r in records)
        # Job spans sum within the enclosing matrix span's wall time (each
        # worker's measured elapsed can only overlap, never exceed in sum
        # beyond worker-count x matrix duration; with 2 workers use that).
        matrix = by_name["matrix"][0]
        assert sum(r["dur"] for r in by_name["job"]) <= 2 * matrix["dur"] + 1e-6

    def test_failed_jobs_carry_elapsed_and_count_as_failed(self):
        from repro.workloads.registry import REGISTRY

        def _raising_builder(num_accesses=0, seed=0):
            raise ValueError("synthetic obs failure")

        REGISTRY.register(
            "obs-boom", _raising_builder, cache_token="obs-boom-v1", mpki=50.0
        )
        registry = _observe_metrics()
        events = []
        try:
            from repro.sim.runner import JobFailedError

            with pytest.raises(JobFailedError):
                run_comparison(
                    ["secddr_xts"], ["obs-boom"], experiment=FAST,
                    progress=events.append, failures="capture",
                )
        finally:
            REGISTRY.unregister("obs-boom")
        failed = [e for e in events if e.status == "failed"]
        assert failed, "no failed events emitted"
        # The bugfix under test: "failed" events carry elapsed like "done".
        assert all(e.elapsed_seconds > 0 for e in failed)
        summary = registry.summary()
        assert summary["sim_jobs_total{state=failed}"] == len(failed)
        assert summary["sim_job_seconds{state=failed}"]["count"] == len(failed)


class TestObservabilityIsObservational:
    def test_results_identical_with_and_without_instrumentation(self, tmp_path):
        plain = run_comparison(
            ["secddr_ctr"], ["mcf"], experiment=FAST, jobs=2
        )
        tracer = obs.Tracer(tmp_path / "t.jsonl")
        with obs.observing(obs.Observation(registry=obs.MetricsRegistry(), tracer=tracer)):
            instrumented = run_comparison(
                ["secddr_ctr"], ["mcf"], experiment=FAST, jobs=2
            )
        tracer.close()
        assert json.dumps(plain.to_payload(), sort_keys=True) == json.dumps(
            instrumented.to_payload(), sort_keys=True
        )

    @pytest.mark.parametrize("signals", ["metrics+tracing", "timeline"])
    @pytest.mark.parametrize("engine", ["reference", "batch"])
    def test_cold_runner_pass_identical_under_each_observation(self, tmp_path, engine, signals):
        # One fresh-cache runner pass per observation, so both simulate.
        job = SimulationJob(
            configuration="secddr_ctr", workload="mcf",
            experiment=ExperimentConfig(num_accesses=600, num_cores=2), engine=engine,
        )

        def cold_pass(name):
            return ParallelRunner(jobs=1, cache=ResultCache(tmp_path / name)).run([job])[0]

        off = cold_pass("off")
        if signals == "timeline":
            recorder = obs.TimelineRecorder(window=64)
            observation = obs.Observation(timeline=recorder)
        else:
            registry = obs.MetricsRegistry()
            observation = obs.Observation(registry=registry, tracer=obs.Tracer())
        with obs.observing(observation):
            on = cold_pass("on")
        if signals == "timeline":
            assert recorder.sample_count > 0
        else:
            assert registry.summary()["sim_jobs_total{state=done}"] == 1
        assert on == off

    def test_cache_keys_unchanged_by_instrumentation(self):
        job = _jobs()[0]
        key_off = job.cache_key()
        obs.install(obs.Observation(registry=obs.MetricsRegistry(), tracer=obs.Tracer()))
        key_on = job.cache_key()
        assert key_off == key_on


# ---------------------------------------------------------------------------
# Session API
# ---------------------------------------------------------------------------
class TestSessionObservability:
    def test_with_observability_collects_metrics_and_spans(self, tmp_path):
        from repro.api import Session

        trace_path = tmp_path / "session.jsonl"
        session = (
            Session()
            .with_observability(trace_out=trace_path)
            .configs("secddr_ctr")
            .workloads("mcf")
            .with_experiment(num_accesses=240, num_cores=1)
        )
        session.compare()
        summary = session.metrics_summary()
        assert summary["sim_jobs_total{state=done}"] >= 1
        obs.current().tracer.close()
        names = {
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        }
        assert {"matrix", "job", "engine"} <= names


    def test_a_second_call_replaces_the_first(self, tmp_path):
        from repro.api import Session

        session = Session().with_observability(trace_out=tmp_path / "a.jsonl", timeline=16)
        first = obs.current()
        session.with_observability(metrics=True)
        assert obs.current().timeline is None and obs.current().tracer is None
        assert obs.current().registry is not first.registry
        assert first.tracer._handle is None  # the replaced tracer was closed
        session.with_observability(metrics=False)
        assert not obs.current().active


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCliObservability:
    def test_trace_out_restores_the_previous_observation(self, tmp_path):
        from repro.cli import main

        before = obs.current()
        path = tmp_path / "spans.jsonl"
        assert main([
            "compare", "-w", "mcf", "-c", "secddr_ctr", "-a", "200", "-n", "1",
            "--no-cache", "--trace-out", str(path),
        ]) == 0
        assert obs.current() is before
        names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        assert {"compare", "matrix", "job", "engine"} <= names


# ---------------------------------------------------------------------------
# Server surface
# ---------------------------------------------------------------------------
class TestServerObservability:
    def test_metrics_endpoint_and_enriched_health(self, tmp_path):
        import threading as _threading

        from repro.server import Client, make_server
        from repro.server.service import ExperimentService

        _observe_metrics()
        service = ExperimentService(tmp_path / "service", jobs=1)
        service.start(recover=False)
        server = make_server(service, port=0)
        thread = _threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        client = Client("http://%s:%d" % server.server_address[:2])
        try:
            job = client.submit({
                "kind": "compare",
                "configurations": ["secddr_ctr"],
                "workloads": ["mcf"],
                "experiment": {"num_accesses": 240, "num_cores": 1},
            })
            client.wait(job["id"])

            health = client.health()
            assert health["status"] == "ok"
            assert health["uptime_seconds"] > 0
            assert health["queue_depth"] == 0
            assert health["jobs"]["queued"] == 1
            assert health["jobs"]["done"] == 1
            assert health["jobs"]["failed"] == 0
            assert health["current_job"] is None

            families = parse_prometheus(client.metrics())
            assert len(families) >= 8
            for expected in (
                "server_jobs_total", "server_queue_depth", "server_job_seconds",
                "server_requests_total", "sim_jobs_total", "cache_ops_total",
            ):
                assert expected in families, expected
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()


# ---------------------------------------------------------------------------
# Timing discipline (the audit satellite, pinned)
# ---------------------------------------------------------------------------
class TestTimingDiscipline:
    #: Files that legitimately read the wall clock -- timestamps shown to
    #: humans or persisted in job records, never durations.
    WALL_CLOCK_ALLOWED = {
        "server/service.py",
        "server/jobstore.py",
        "obs/log.py",
    }

    def test_durations_use_perf_counter_not_wall_clock(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            relative = path.relative_to(src).as_posix()
            if relative in self.WALL_CLOCK_ALLOWED:
                continue
            if "time.time(" in path.read_text():
                offenders.append(relative)
        assert offenders == [], (
            "time.time() outside the timestamp allowlist (use "
            "time.perf_counter() for durations): %s" % offenders
        )
