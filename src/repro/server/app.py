"""The HTTP layer of the experiment service (stdlib ``http.server`` only).

A thin router over :class:`~repro.server.service.ExperimentService`:

======  ============================  ===========================================
method  path                          behaviour
======  ============================  ===========================================
GET     /health                       liveness, version, uptime, queue + job counts
GET     /metrics                      Prometheus text exposition (repro.obs)
GET     /metrics/stream               live SSE metric summaries (?limit=N to bound)
GET     /registries                   machine-readable registry dump
POST    /jobs                         submit a job spec (201 + record)
GET     /jobs                         every job record, submission order
GET     /jobs/{id}                    one record (state, progress, error)
GET     /jobs/{id}/events             Server-Sent Events progress stream
GET     /jobs/{id}/timeline           windowed telemetry payload (live or persisted)
GET     /jobs/{id}/result             canonical result bytes (409 until done)
GET     /jobs/{id}/artifacts          artifact name list
GET     /jobs/{id}/artifacts/{name}   one artifact file
======  ============================  ===========================================

``ThreadingHTTPServer`` gives every request its own thread, so any number
of clients can follow ``/events`` streams while the single service worker
executes jobs.  Invalid submissions come back as 400 with the registry's
closest-match message; unknown ids are 404; asking for the result of an
unfinished job is 409 (Conflict) so clients can poll the same URL.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Tuple

from repro.errors import RegistryLookupError
from repro import obs
from repro.obs.log import get_logger
from repro.overrides import OverrideError
from repro.server.jobstore import TERMINAL_STATES
from repro.server.schemas import RequestError, dump_payload, registries_payload
from repro.server.service import ExperimentService
from repro.server.sse import format_event

__all__ = ["ExperimentHTTPServer", "make_server"]

logger = get_logger(__name__)

_CONTENT_TYPES = {
    ".json": "application/json",
    ".csv": "text/csv; charset=utf-8",
    ".md": "text/markdown; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
    ".jsonl": "application/x-ndjson",
    ".html": "text/html; charset=utf-8",
}


class ExperimentHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ExperimentService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: ExperimentService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: How often the /events follower re-checks the on-disk stream.
    poll_interval = 0.05

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> ExperimentService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Off by default (stderr stays quiet); visible with --log-level debug.
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_bytes(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: object) -> None:
        self._send_bytes(status, dump_payload(payload))

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- routing --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_get()
        except BrokenPipeError:  # client went away mid-stream
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        obs.current().registry.counter(
            "server_requests_total", "HTTP requests by endpoint and method.",
            endpoint="jobs", method="POST",
        ).inc()
        if self.path.rstrip("/") != "/jobs":
            self._send_error(404, "unknown endpoint %r" % self.path)
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"null")
        except ValueError:
            self._send_error(400, "request body must be JSON")
            return
        try:
            record = self.service.submit(payload)
        except (RequestError, RegistryLookupError, OverrideError, ValueError) as error:
            self._send_error(400, str(error))
            return
        body = record.payload()
        body["location"] = "/jobs/%s" % record.id
        self._send_json(201, body)

    def _route_get(self) -> None:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        # Coarse endpoint label (first path segment) keeps the metric's
        # cardinality bounded: every /jobs/{id}/... shape counts as "jobs".
        obs.current().registry.counter(
            "server_requests_total", "HTTP requests by endpoint and method.",
            endpoint=parts[0] if parts else "root", method="GET",
        ).inc()
        if parts == ["health"]:
            from repro import __version__

            payload = {"status": "ok", "version": __version__}
            payload.update(self.service.health_payload())
            self._send_json(200, payload)
        elif parts == ["metrics"]:
            body = obs.render_prometheus(obs.current().registry).encode("utf-8")
            self._send_bytes(200, body, "text/plain; version=0.0.4; charset=utf-8")
        elif parts == ["metrics", "stream"]:
            self._stream_metrics()
        elif parts == ["registries"]:
            self._send_json(200, registries_payload())
        elif parts == ["jobs"]:
            self._send_json(
                200, {"jobs": [record.payload() for record in self.service.list_jobs()]}
            )
        elif len(parts) >= 2 and parts[0] == "jobs":
            self._route_job(parts[1], parts[2:])
        else:
            self._send_error(404, "unknown endpoint %r" % self.path)

    def _route_job(self, job_id: str, rest) -> None:
        record = self.service.job(job_id)
        if record is None:
            self._send_error(404, "unknown job %r" % job_id)
        elif not rest:
            self._send_json(200, record.payload())
        elif rest == ["events"]:
            self._stream_events(job_id)
        elif rest == ["timeline"]:
            self._send_json(200, self.service.timeline_payload(job_id))
        elif rest == ["result"]:
            self._send_result(record)
        elif rest == ["artifacts"]:
            self._send_artifact_list(job_id)
        elif len(rest) == 2 and rest[0] == "artifacts":
            self._send_artifact(job_id, rest[1])
        else:
            self._send_error(404, "unknown endpoint %r" % self.path)

    # -- endpoint bodies ------------------------------------------------
    def _send_result(self, record) -> None:
        if record.state == "failed":
            self._send_json(409, {"error": "job failed", "detail": record.error})
            return
        if record.state != "done":
            self._send_error(409, "job is %s; retry after it completes" % record.state)
            return
        # Served verbatim: these are the dump_payload() bytes the worker
        # wrote, so the HTTP body is byte-identical to an in-process run.
        self._send_bytes(200, self.service.store.result_path(record.id).read_bytes())

    def _send_artifact_list(self, job_id: str) -> None:
        directory = self.service.store.artifacts_dir(job_id)
        names = sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []
        self._send_json(200, {"artifacts": names})

    def _send_artifact(self, job_id: str, name: str) -> None:
        directory = self.service.store.artifacts_dir(job_id)
        candidate = (directory / name).resolve()
        # Containment check, not string prefixing: rejects traversal names
        # like ``..%2f..%2fjob.json`` after URL decoding.
        if not candidate.is_file() or directory.resolve() not in candidate.parents:
            self._send_error(404, "unknown artifact %r" % name)
            return
        content_type = _CONTENT_TYPES.get(candidate.suffix, "application/octet-stream")
        self._send_bytes(200, candidate.read_bytes(), content_type)

    def _stream_events(self, job_id: str) -> None:
        """Replay ``events.jsonl`` as SSE, then follow until a terminal state.

        The stream is chunk-encoded (no Content-Length is knowable) and
        closes itself once a ``state: done``/``failed`` event goes out, so
        ``curl -N`` and the bundled client both terminate cleanly.
        ``Last-Event-ID`` resumes after the given line index.

        A terminal job with nothing left to replay also closes immediately:
        without that check, a client reconnecting with the terminal event's
        own id (offset past the end of ``events.jsonl``) — or replaying a
        job that failed before emitting any event — would poll forever.
        """
        offset = 0
        last_id = self.headers.get("Last-Event-ID")
        if last_id and last_id.isdigit():
            offset = int(last_id) + 1
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while True:
                events = self.service.store.read_events(job_id, offset)
                for event in events:
                    self._write_chunk(format_event(event, event_id=offset))
                    offset += 1
                    if event.get("event") == "state" and event.get("state") in TERMINAL_STATES:
                        self._write_chunk(b"")
                        return
                if not events:
                    record = self.service.job(job_id)
                    if record is None or record.state in TERMINAL_STATES:
                        # The worker saves the terminal state before appending
                        # the terminal event; one grace poll drains an append
                        # that is still in flight, then the stream closes.
                        time.sleep(self.poll_interval)
                        for event in self.service.store.read_events(job_id, offset):
                            self._write_chunk(format_event(event, event_id=offset))
                            offset += 1
                        self._write_chunk(b"")
                        return
                time.sleep(self.poll_interval)
        except BrokenPipeError:
            pass

    def _stream_metrics(self) -> None:
        """Live SSE summaries of the metrics registry and current timeline.

        Each event's ``data:`` is a JSON object with the registry's flat
        summary, the service's health payload, and -- while a job is
        executing with a timeline recorder -- the recorder's sample count,
        so dashboards can watch a run progress without polling artifacts.
        ``?limit=N`` closes the stream after N events (CI and curl use it
        to bound the request); ``?interval=S`` overrides the default 0.5 s
        emission period (clamped to the events poll interval).
        """
        from urllib.parse import parse_qs, urlsplit

        query = parse_qs(urlsplit(self.path).query)
        limit = None
        if query.get("limit", [""])[0].isdigit():
            limit = int(query["limit"][0])
        try:
            interval = float(query.get("interval", ["0.5"])[0])
        except ValueError:
            interval = 0.5
        interval = max(self.poll_interval, interval)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        event_id = 0
        try:
            while limit is None or event_id < limit:
                data: Dict[str, object] = {
                    "event": "metrics",
                    "metrics": obs.current().registry.summary(),
                    "health": self.service.health_payload(),
                }
                recorder = getattr(self.service, "_current_timeline", None)
                if recorder is not None:
                    data["timeline_samples"] = recorder.sample_count
                self._write_chunk(format_event(data, event_id=event_id))
                event_id += 1
                if limit is not None and event_id >= limit:
                    break
                time.sleep(interval)
            self._write_chunk(b"")
        except BrokenPipeError:
            pass

    def _write_chunk(self, payload: bytes) -> None:
        self.wfile.write(b"%x\r\n%s\r\n" % (len(payload), payload))
        self.wfile.flush()


def make_server(
    service: ExperimentService, host: str = "127.0.0.1", port: int = 0
) -> ExperimentHTTPServer:
    """Bind an :class:`ExperimentHTTPServer`; ``port=0`` picks a free port."""
    return ExperimentHTTPServer((host, port), service)
