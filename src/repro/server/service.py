"""The experiment service: a priority job queue over one shared runner stack.

:class:`ExperimentService` is the HTTP-free core of ``repro serve`` (the
HTTP layer in :mod:`repro.server.app` is a thin router over it, which is
what keeps the service unit-testable without sockets).  Jobs submitted as
JSON specs (:func:`repro.server.schemas.validate_request`) enter a priority
queue; a single worker thread drains it through the same
``run_comparison``/sweep/figures/fuzz entry points the CLI and
:class:`repro.api.Session` use, with **one shared**
:class:`~repro.sim.runner.ResultCache` across every job -- concurrent
clients warm each other's cache, and resubmitting an identical job is an
instant all-hits pass.

Every job's lifecycle and progress is persisted through
:class:`~repro.server.jobstore.JobStore`, so ``GET /jobs/{id}/events`` can
replay the full stream to late subscribers and a restarted server picks up
its queue where it left off.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
import traceback as traceback_module
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.obs.log import get_logger
from repro.server.jobstore import JobRecord, JobStore
from repro.server.schemas import (
    configuration_from_payload,
    dump_payload,
    experiment_from_payload,
    overrides_from_payload,
    validate_request,
)
from repro.overrides import derived_configurations, parse_overrides
from repro.sim.runner import JobEvent, JobFailedError, ResultCache

__all__ = ["ExperimentService"]

logger = get_logger(__name__)


class ExperimentService:
    """Validate, queue, execute, and persist experiment jobs.

    ``jobs`` is the worker-process fan-out *within* one experiment (the
    ``-j`` of the CLI); the queue itself is drained by a single thread, so
    two queued comparisons never compete for cores -- they take turns and
    share the cache instead.
    """

    def __init__(
        self,
        workdir: Union[str, Path],
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        timeline_window: int = obs.DEFAULT_TIMELINE_WINDOW,
    ) -> None:
        self.workdir = Path(workdir)
        self.jobs = max(1, int(jobs))
        self.store = JobStore(self.workdir)
        if cache is None:
            cache = ResultCache(cache_dir if cache_dir is not None else self.workdir / "cache")
        self.cache = cache
        self._queue: List[Tuple[int, int, str]] = []
        self._sequence = itertools.count()
        self._condition = threading.Condition()
        self._stopping = False
        self._worker: Optional[threading.Thread] = None
        # Health/metrics bookkeeping: perf_counter for the uptime duration
        # (wall-clock is reserved for timestamps), cumulative job counts by
        # terminal state, and the id of the job the worker is executing.
        self._started_monotonic = time.perf_counter()
        self._stats: Dict[str, int] = {"queued": 0, "done": 0, "failed": 0}
        self._current_job_id: Optional[str] = None
        # Windowed simulation telemetry: every job runs against a fresh
        # per-job TimelineRecorder (0 disables); the live recorder backs
        # GET /jobs/{id}/timeline while the job runs, the persisted
        # timeline.json artifact afterwards.
        self.timeline_window = max(0, int(timeline_window))
        self._current_timeline: Optional[obs.TimelineRecorder] = None
        self._executors: Dict[str, Callable] = {
            "compare": self._execute_compare,
            "sweep": self._execute_sweep,
            "figures": self._execute_figures,
            "fuzz": self._execute_fuzz,
        }

    # -- lifecycle ------------------------------------------------------
    def start(self, recover: bool = True) -> "ExperimentService":
        """Start the worker thread; optionally re-queue jobs from disk.

        Recovery re-enqueues every ``queued`` record and fails ``running``
        ones (their worker died with the previous process) -- see
        :meth:`repro.server.jobstore.JobStore.recover`.
        """
        if self._worker is not None and self._worker.is_alive():
            return self
        if recover:
            for record in self.store.recover():
                self._enqueue(record)
        self._stopping = False
        self._worker = threading.Thread(
            target=self._drain, name="experiment-service-worker", daemon=True
        )
        self._worker.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop after the in-flight job (queued jobs stay persisted on disk)."""
        with self._condition:
            self._stopping = True
            self._condition.notify_all()
        if self._worker is not None:
            self._worker.join(timeout)

    # -- submission -----------------------------------------------------
    def submit(self, payload: object) -> JobRecord:
        """Validate ``payload``, persist a queued record, and enqueue it.

        Raises :class:`~repro.server.schemas.RequestError` or a
        :class:`~repro.errors.RegistryLookupError` on invalid input -- the
        job is rejected before anything is stored.
        """
        request = validate_request(payload)
        record = self.store.create(request)
        self.store.append_event(record.id, {"event": "state", "state": "queued"})
        self._enqueue(record)
        return record

    def _enqueue(self, record: JobRecord) -> None:
        with self._condition:
            heapq.heappush(
                self._queue, (-record.priority, next(self._sequence), record.id)
            )
            self._stats["queued"] += 1
            depth = len(self._queue)
            self._condition.notify()
        logger.debug("queued job %s (kind=%s, depth=%d)", record.id, record.kind, depth)
        registry = obs.current().registry
        registry.counter(
            "server_jobs_total", "Service jobs by lifecycle state.", state="queued"
        ).inc()
        registry.gauge(
            "server_queue_depth", "Jobs currently waiting in the priority queue."
        ).set(depth)

    # -- introspection ---------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        return self.store.load(job_id)

    def list_jobs(self) -> List[JobRecord]:
        return self.store.list()

    def queue_depth(self) -> int:
        with self._condition:
            return len(self._queue)

    def health_payload(self) -> Dict[str, object]:
        """Liveness detail for ``GET /health``: uptime, queue, job counts."""
        with self._condition:
            depth = len(self._queue)
            stats = dict(self._stats)
            current = self._current_job_id
        return {
            "uptime_seconds": round(time.perf_counter() - self._started_monotonic, 6),
            "queue_depth": depth,
            "current_job": current,
            "jobs": stats,
            "timeline": {
                "available": self.timeline_window > 0,
                "window": self.timeline_window,
            },
        }

    def timeline_payload(self, job_id: str) -> Dict[str, object]:
        """The timeline payload for ``GET /jobs/{id}/timeline``.

        While the job is executing this reads the live per-job recorder
        (so streaming clients see samples as they land); afterwards it
        reads the persisted ``timeline.json`` artifact.  Unknown or not
        yet-started jobs get an empty payload.
        """
        with self._condition:
            if self._current_job_id == job_id and self._current_timeline is not None:
                return self._current_timeline.to_payload()
        path = self.store.artifacts_dir(job_id) / "timeline.json"
        if path.exists():
            return json.loads(path.read_text())
        return {
            "schema": obs.TIMELINE_SCHEMA_VERSION,
            "window": self.timeline_window,
            "series": [],
        }

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Poll until ``job_id`` reaches a terminal state (tests/CLI helper)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.store.load(job_id)
            if record is not None and record.state in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError("job %s still %s after %.1fs" % (
                    job_id, record.state if record else "missing", timeout,
                ))
            time.sleep(0.02)

    # -- worker ----------------------------------------------------------
    def _drain(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._stopping:
                    self._condition.wait()
                if self._stopping:
                    return
                _, _, job_id = heapq.heappop(self._queue)
            self._run_job(job_id)

    def _run_job(self, job_id: str) -> None:
        record = self.store.load(job_id)
        if record is None or record.state != "queued":
            return
        record.state = "running"
        record.started_at = time.time()  # wall-clock: this is a timestamp
        started = time.perf_counter()
        with self._condition:
            self._current_job_id = job_id
            obs.current().registry.gauge(
                "server_queue_depth", "Jobs currently waiting in the priority queue."
            ).set(len(self._queue))
        self.store.save(record)
        self.store.append_event(job_id, {"event": "state", "state": "running"})
        logger.info("job %s running (kind=%s)", job_id, record.kind)
        # The job records its own timeline on top of whatever the process
        # observes.  Without a user-configured tracer, a collector gathers
        # the job/phase spans for the dashboard's phase attribution.
        outer = obs.current()
        observation = outer
        if self.timeline_window > 0:
            observation = replace(
                outer,
                timeline=obs.TimelineRecorder(window=self.timeline_window),
                tracer=obs.Tracer() if outer.tracer is None else outer.tracer,
            )
            with self._condition:
                self._current_timeline = observation.timeline
        with obs.observing(observation), obs.span("job", job_id=job_id, kind=record.kind):
            try:
                executor = self._executors[record.kind]
                with obs.span("phase", phase="execute"):
                    payload = executor(record)
                with obs.span("phase", phase="persist"):
                    self.store.write_result(job_id, dump_payload(payload))
                record = self.store.load(job_id) or record
                record.state = "done"
            except JobFailedError as error:
                record = self.store.load(job_id) or record
                record.state = "failed"
                record.error = {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback_module.format_exc(),
                    "failures": [failure.payload() for failure in error.failures],
                }
            except Exception as error:  # noqa: BLE001 - one job must not kill the queue
                record = self.store.load(job_id) or record
                record.state = "failed"
                record.error = {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback_module.format_exc(),
                }
        elapsed = time.perf_counter() - started
        record.finished_at = time.time()  # wall-clock: this is a timestamp
        if observation is not outer:
            spans = observation.tracer.drain() if outer.tracer is None else None
            self._persist_timeline(job_id, observation.timeline, spans)
            with self._condition:
                self._current_timeline = None
        self.store.save(record)
        with self._condition:
            self._current_job_id = None
            self._stats[record.state] = self._stats.get(record.state, 0) + 1
        registry = obs.current().registry
        registry.counter(
            "server_jobs_total", "Service jobs by lifecycle state.", state=record.state
        ).inc()
        registry.histogram(
            "server_job_seconds", "End-to-end service job wall time.", kind=record.kind
        ).observe(elapsed)
        terminal = {
            "event": "state",
            "state": record.state,
            "elapsed_seconds": round(elapsed, 6),
        }
        if record.error is not None:
            terminal["error"] = record.error
        self.store.append_event(job_id, terminal)
        logger.info("job %s %s in %.3fs", job_id, record.state, elapsed)

    def _persist_timeline(self, job_id, recorder, spans) -> None:
        """Write ``timeline.json`` and ``dashboard.html`` job artifacts.

        Jobs whose executor never simulates anything (all-cache-hits
        passes) still get the artifacts -- an empty dashboard beats a 404
        for clients that download unconditionally.
        """
        from repro.obs.dashboard import render_dashboard

        try:
            artifacts = self.store.artifacts_dir(job_id)
            artifacts.mkdir(parents=True, exist_ok=True)
            payload = recorder.to_payload()
            (artifacts / "timeline.json").write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
            (artifacts / "dashboard.html").write_text(
                render_dashboard(payload, spans=spans, title="job %s timeline" % job_id)
            )
        except OSError:  # pragma: no cover - disk-full etc. must not fail the job
            logger.warning("could not persist timeline artifacts for job %s", job_id)

    # -- progress --------------------------------------------------------
    def _progress_hook(self, record: JobRecord):
        """A :class:`~repro.sim.runner.ProgressHook` that persists every event.

        Events land in the job's ``events.jsonl`` (the SSE replay source)
        and roll up into the record's progress counters, so ``GET
        /jobs/{id}`` shows live totals and the smoke tests can assert
        ``simulated == 0`` on a warm resubmission.
        """
        lock = threading.Lock()

        def hook(event: JobEvent) -> None:
            self.store.append_event(record.id, {
                "event": "job",
                "status": event.status,
                "configuration": event.configuration,
                "workload": event.workload,
                "index": event.index,
                "total": event.total,
                "elapsed_seconds": event.elapsed_seconds,
            })
            with lock:
                progress = record.progress
                progress["total"] = event.total
                if event.status in ("done", "cached", "failed"):
                    progress["completed"] = progress.get("completed", 0) + 1
                    counter = {"done": "simulated", "cached": "cached", "failed": "failed"}
                    key = counter[event.status]
                    progress[key] = progress.get(key, 0) + 1
                self.store.save(record)

        return hook

    # -- executors -------------------------------------------------------
    def _experiment_for(self, request: Dict[str, object]):
        experiment = experiment_from_payload(request.get("experiment"))
        if request.get("seed") is not None:
            experiment = replace(experiment, seed=request["seed"])
        spec_overrides, experiment_overrides = parse_overrides(
            overrides_from_payload(request.get("set"))
        )
        if experiment_overrides:
            experiment = replace(experiment, **experiment_overrides)
        return experiment, spec_overrides

    def _execute_compare(self, record: JobRecord) -> Dict[str, object]:
        from repro.sim.experiment import run_comparison

        request = record.request
        experiment, spec_overrides = self._experiment_for(request)
        configurations = [
            entry if isinstance(entry, str) else configuration_from_payload(entry)
            for entry in request["configurations"]
        ]
        comparison = run_comparison(
            configurations=derived_configurations(configurations, spec_overrides),
            workloads=list(request["workloads"]),
            baseline=request.get("baseline", "tdx_baseline"),
            experiment=experiment,
            jobs=self.jobs,
            cache=self.cache,
            progress=self._progress_hook(record),
            engine=request.get("engine"),
            # The whole matrix finishes (and is cached) even when one pair
            # raises; the JobFailedError carries per-pair detail afterwards.
            failures="capture",
        )
        self._write_compare_artifacts(record, comparison)
        return comparison.to_payload()

    def _write_compare_artifacts(self, record: JobRecord, comparison) -> None:
        artifacts = self.store.artifacts_dir(record.id)
        artifacts.mkdir(parents=True, exist_ok=True)
        (artifacts / "table.txt").write_text(comparison.format_table() + "\n")
        lines = ["workload," + ",".join(comparison.configurations)]
        for workload in comparison.workloads:
            cells = [workload] + [
                "%.6f" % comparison.normalized[config][workload]
                for config in comparison.configurations
            ]
            lines.append(",".join(cells))
        (artifacts / "normalized.csv").write_text("\n".join(lines) + "\n")

    def _execute_sweep(self, record: JobRecord) -> Dict[str, object]:
        from repro.sim.sweep import arity_sweep, counter_packing_sweep

        request = record.request
        experiment, spec_overrides = self._experiment_for(request)
        sweep = arity_sweep if request["sweep"] == "arity" else counter_packing_sweep
        values = list(request["values"])
        workloads = request.get("workloads")
        summary = sweep(
            workloads=list(workloads) if workloads is not None else None,
            **{("arities" if request["sweep"] == "arity" else "packings"): values},
            experiment=experiment,
            baseline=request.get("baseline", "tdx_baseline"),
            jobs=self.jobs,
            cache=self.cache,
            progress=self._progress_hook(record),
            derive_overrides=spec_overrides or None,
            engine=request.get("engine"),
        )
        payload = {
            "kind": "sweep",
            "sweep": request["sweep"],
            "values": values,
            "summary": {str(value): summary[value] for value in values},
        }
        artifacts = self.store.artifacts_dir(record.id)
        artifacts.mkdir(parents=True, exist_ok=True)
        roles = sorted({role for per in summary.values() for role in per})
        lines = [request["sweep"] + "," + ",".join(roles)]
        for value in values:
            lines.append(",".join(
                [str(value)] + ["%.6f" % summary[value].get(role, float("nan")) for role in roles]
            ))
        (artifacts / "sweep.csv").write_text("\n".join(lines) + "\n")
        return payload

    def _execute_figures(self, record: JobRecord) -> Dict[str, object]:
        from repro.figures import reproduce, write_artifacts

        request = record.request
        experiment, _ = self._experiment_for(request)
        figures = request.get("figures")
        workloads = request.get("workloads")
        report = reproduce(
            figures=list(figures) if figures is not None else None,
            experiment=experiment,
            jobs=self.jobs,
            cache=self.cache,
            progress=self._progress_hook(record),
            workload_filter=list(workloads) if workloads is not None else None,
            engine=request.get("engine"),
        )
        artifacts = self.store.artifacts_dir(record.id)
        paths = write_artifacts(report, artifacts)
        return {
            "kind": "figures",
            "figures": [outcome.artifact.key for outcome in report.outcomes],
            "unique_jobs": report.unique_jobs,
            "simulated_jobs": report.simulated_jobs,
            "failed_trends": report.failed_trends,
            "artifacts": sorted(path.name for path in paths),
        }

    def _execute_fuzz(self, record: JobRecord) -> Dict[str, object]:
        from repro.fuzz import FuzzCampaign
        from repro.fuzz.corpus import write_fuzz_artifacts

        request = record.request
        campaign = FuzzCampaign(
            seed=request.get("seed", 1),
            budget=request["budget"],
            configurations=request.get("configurations"),
            jobs=self.jobs,
            cache=self.cache,
            progress=self._progress_hook(record),
            shrink_violations=request.get("shrink", True),
        )
        report = campaign.run()
        artifacts = self.store.artifacts_dir(record.id)
        paths = write_fuzz_artifacts(report, artifacts)
        return {
            "kind": "fuzz",
            "seed": report.seed,
            "budget": report.budget,
            "configurations": report.configurations,
            "violations": len(report.violations()),
            "detection_matrix": report.detection_matrix(),
            "artifacts": sorted(path.name for path in paths),
        }
