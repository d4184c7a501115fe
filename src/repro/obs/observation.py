"""One observability context: the signals a run records, installed once.

An :class:`Observation` holds a metrics registry, a span tracer and a
timeline recorder.  Instrumented code reads the installed one through
:func:`current`; each entry point builds one and installs it with
:func:`install` or :func:`observing`.  The default records nothing: its
registry is :data:`~repro.obs.metrics.NULL_REGISTRY` and its tracer and
timeline are ``None``, so a hot loop that reads ``current().timeline``
once per run pays one ``is not None`` test per access.

The installed observation is a module global, not a ``ContextVar``: the
experiment service runs jobs on a worker thread, which must see the
registry ``repro serve`` installed on the main thread.

A pool worker cannot write into the parent's signals (after ``fork`` it
would only update a dead copy).  Each pool job records into
:meth:`Observation.for_worker`, returns :meth:`Observation.ship` with its
result, and the parent folds that in with one :meth:`Observation.merge`:
counters and histogram buckets add, timeline series append, and spans are
rebased under the job span.  Totals are exact.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.obs.timeline import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover - tracing imports this module
    from repro.obs.tracing import Tracer

__all__ = ["Observation", "current", "install", "observing"]


@dataclass(frozen=True)
class Observation:
    """The signals a run records; each field left at its default is off."""

    registry: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY
    tracer: Optional["Tracer"] = None
    timeline: Optional[TimelineRecorder] = None

    @property
    def active(self) -> bool:
        """True when any signal is recorded."""
        return (
            self.registry is not NULL_REGISTRY
            or self.tracer is not None
            or self.timeline is not None
        )

    def for_worker(self) -> "Observation":
        """New, empty signals of the kinds this one records (spans go to an
        in-memory collector; the timeline keeps this one's window)."""
        from repro.obs.tracing import Tracer

        return Observation(
            registry=NULL_REGISTRY if self.registry is NULL_REGISTRY else MetricsRegistry(),
            tracer=None if self.tracer is None else Tracer(),
            timeline=None if self.timeline is None else TimelineRecorder(window=self.timeline.window),
        )

    def ship(self) -> Dict[str, object]:
        """Everything recorded, as one picklable dict for :meth:`merge`."""
        return {
            "metrics": self.registry.snapshot(),
            "spans": [] if self.tracer is None else self.tracer.drain(),
            "timeline": None if self.timeline is None else self.timeline.snapshot(),
        }

    def merge(self, shipped: Dict[str, object], base: Optional[float], parent: Optional[int] = None) -> None:
        """Fold a worker's :meth:`ship` output into these signals, exactly.

        *base* and *parent* rebase the spans (see
        :meth:`~repro.obs.tracing.Tracer.ingest`); unused when tracing is off.
        """
        self.registry.merge(shipped["metrics"])
        if self.timeline is not None and shipped["timeline"]:
            self.timeline.merge(shipped["timeline"])
        if self.tracer is not None and shipped["spans"]:
            self.tracer.ingest(shipped["spans"], base=base, parent=parent)


_CURRENT = Observation()


def current() -> Observation:
    """The installed observation (the default records nothing)."""
    return _CURRENT


def install(observation: Observation) -> Observation:
    """Install *observation* process-wide, returning the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = observation
    return previous


@contextlib.contextmanager
def observing(observation: Observation) -> Iterator[Observation]:
    """Install *observation* for a ``with`` block, then restore the previous."""
    previous = install(observation)
    try:
        yield observation
    finally:
        install(previous)
