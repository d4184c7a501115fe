"""Hierarchical span tracing with JSONL output and Chrome-trace export.

A :class:`Tracer` stamps every span against its own ``perf_counter`` epoch,
so all timestamps in one trace share a single monotonic timebase.  Spans
nest per-thread (a thread-local stack supplies parent ids) and can also be
recorded retroactively with :meth:`Tracer.record` -- the runner uses that to
emit a "job" span at completion time from the measured elapsed seconds.

Worker processes cannot write to the parent's trace file and their
``perf_counter`` epoch is unrelated to the parent's.  They therefore run a
*collector* tracer (no path), stamp spans relative to their own epoch, and
ship :meth:`Tracer.drain` output back with the job result; the parent calls
:meth:`Tracer.ingest` to rebase those records onto its timebase
(``base = job_end - elapsed``) and re-parent them under the job span.

The JSONL format is one object per line::

    {"name": ..., "id": 3, "parent": 1, "ts": 0.0123, "dur": 0.4,
     "pid": 1234, "tid": 5678, "attrs": {...}}

with ``ts``/``dur`` in seconds.  :func:`export_chrome_trace` converts a
JSONL file into the Chrome trace-event format (``"ph": "X"`` complete
events, microsecond units) that https://ui.perfetto.dev renders directly.
"""

import contextlib
import json
import os
import threading
import time
from dataclasses import replace

from repro.obs import observation as _observation

__all__ = [
    "Tracer",
    "set_tracer",
    "span",
    "export_chrome_trace",
]


class Tracer:
    """Span recorder writing JSONL to *path*, or collecting in memory."""

    def __init__(self, path=None):
        self.path = os.fspath(path) if path is not None else None
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._records = []
        self._handle = None
        if self.path is not None:
            parent = os.path.dirname(os.path.abspath(self.path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8")

    # -- timebase -------------------------------------------------------
    def now(self):
        """Seconds since this tracer's epoch (monotonic)."""
        return time.perf_counter() - self.epoch

    def _allocate_id(self):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self):
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording ------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Context manager timing a span; nests under the active span."""
        span_id = self._allocate_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.now()
        try:
            yield span_id
        finally:
            duration = self.now() - start
            stack.pop()
            self._emit(name, span_id, parent, start, duration, attrs)

    def record(self, name, start, duration, parent=None, attrs=None):
        """Emit a span retroactively from already-measured times.

        *start* is in this tracer's timebase (see :meth:`now`).  Returns
        the new span's id so children can be parented under it.
        """
        span_id = self._allocate_id()
        if parent is None:
            parent = self.current_span_id()
        self._emit(name, span_id, parent, start, duration, attrs or {})
        return span_id

    def _emit(self, name, span_id, parent, start, duration, attrs):
        record = {
            "name": name,
            "id": span_id,
            "parent": parent,
            "ts": round(start, 9),
            "dur": round(max(duration, 0.0), 9),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if attrs:
            record["attrs"] = attrs
        if self._handle is not None:
            line = json.dumps(record, sort_keys=True)
            with self._lock:
                self._handle.write(line + "\n")
        else:
            with self._lock:
                self._records.append(record)

    # -- cross-process shipping -----------------------------------------
    def drain(self):
        """Collector mode: return and clear the accumulated records."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def ingest(self, records, base, parent=None):
        """Rebase drained worker records onto this tracer's timebase.

        *base* is the worker's epoch expressed in this tracer's timebase
        (the parent computes ``job_end - elapsed``).  Span ids are remapped
        to fresh parent-side ids and parentless roots are attached to
        *parent*.
        """
        id_map = {}
        for record in records:
            id_map[record["id"]] = self._allocate_id()
        for record in records:
            remapped_parent = record.get("parent")
            if remapped_parent is not None and remapped_parent in id_map:
                remapped_parent = id_map[remapped_parent]
            else:
                remapped_parent = parent
            self._emit(
                record["name"],
                id_map[record["id"]],
                remapped_parent,
                base + record["ts"],
                record["dur"],
                record.get("attrs") or {},
            )

    def close(self):
        if self._handle is not None:
            with self._lock:
                self._handle.close()
                self._handle = None


def set_tracer(tracer):
    """Swap the installed observation's tracer, returning the previous one.

    ``perfbench/worker.py`` installs its in-memory tracer around the timed
    calls through this; library code installs a whole
    :class:`~repro.obs.observation.Observation` instead.
    """
    previous = _observation.current()
    _observation.install(replace(previous, tracer=tracer))
    return previous.tracer


@contextlib.contextmanager
def span(name, **attrs):
    """No-op-when-off span against the installed observation's tracer."""
    tracer = _observation.current().tracer
    if tracer is None:
        yield None
    else:
        with tracer.span(name, **attrs) as span_id:
            yield span_id


def export_chrome_trace(jsonl_path, out_path):
    """Convert a span JSONL file to Chrome trace-event JSON.

    Emits complete events (``"ph": "X"``) with microsecond timestamps;
    the result opens directly in https://ui.perfetto.dev or
    ``chrome://tracing``.  Returns the number of exported events.
    """
    events = []
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            args = dict(record.get("attrs") or {})
            args["span_id"] = record["id"]
            if record.get("parent") is not None:
                args["parent_id"] = record["parent"]
            events.append({
                "name": record["name"],
                "ph": "X",
                "ts": record["ts"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": record.get("pid", 0),
                "tid": record.get("tid", 0),
                "args": args,
            })
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    parent = os.path.dirname(os.path.abspath(os.fspath(out_path)))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(events)
