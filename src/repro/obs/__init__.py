"""Unified observability: metrics, tracing, timelines, structured logging.

One :class:`Observation` (:mod:`repro.obs.observation`) names the signals
a run records -- a metrics registry, a span tracer and a timeline
recorder.  Instrumented code reads the installed one through
:func:`current`; entry points build one and install it with
:func:`install` or :func:`observing`.  The default records nothing, and
everything here is stdlib-only and zero-overhead when off (see
``docs/observability.md`` for the metric catalogue and span model):

* :mod:`repro.obs.metrics` -- a thread-safe registry of labelled counters,
  gauges and histograms.  With metrics off the registry is the no-op
  :data:`~repro.obs.metrics.NULL_REGISTRY`.  :func:`render_prometheus`
  backs ``GET /metrics`` on ``repro serve``.
* :mod:`repro.obs.tracing` -- hierarchical spans
  (reproduce -> figure -> matrix -> job -> engine-chunk) on a single
  ``perf_counter`` timebase, emitted as JSONL via ``--trace-out`` and
  exportable to Chrome trace-event format (Perfetto-viewable) with
  ``repro obs export-trace``.
* :mod:`repro.obs.timeline` -- windowed simulation telemetry: both engines
  emit per-window samples (IPC, metadata-cache hit rate, ROB/MSHR
  occupancy, per-bank queue depth) plus indexed integrity/detection events
  into a columnar :class:`~repro.obs.timeline.TimelineRecorder`; rendered
  as a dependency-free single-file HTML dashboard by
  :mod:`repro.obs.dashboard` (``--timeline``, ``GET /jobs/{id}/timeline``).
* :mod:`repro.obs.log` -- a JSON log formatter plus ``--log-level`` /
  ``--log-json`` wiring that replaces bare prints in the server and runner
  verbose paths without changing their default byte-exact text output.

Pool workers record into :meth:`Observation.for_worker` and ship
:meth:`Observation.ship` home with each result; the parent folds it in
with one :meth:`Observation.merge`, so totals are exact across processes.
"""

from repro.obs.log import JsonFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    render_prometheus,
)
from repro.obs.timeline import (
    DEFAULT_TIMELINE_WINDOW,
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    TimelineSeries,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.observation import Observation, current, install, observing
from repro.obs.tracing import Tracer, export_chrome_trace, span

__all__ = [
    "Observation",
    "current",
    "install",
    "observing",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "render_prometheus",
    "Tracer",
    "span",
    "export_chrome_trace",
    "TIMELINE_SCHEMA_VERSION",
    "DEFAULT_TIMELINE_WINDOW",
    "TimelineRecorder",
    "TimelineSeries",
    "render_dashboard",
    "write_dashboard",
    "JsonFormatter",
    "configure_logging",
    "get_logger",
]
