"""Windowed simulation telemetry: per-window samples and indexed events.

PR 9's metrics answer *how many / how fast* for a whole run; timelines
answer *when inside the run*.  When the installed observation carries a
:class:`TimelineRecorder` (``obs.current().timeline``; see
:mod:`repro.obs.observation`), both simulation engines emit one sample
every ``window`` processed LLC accesses into a per-(workload,
configuration, engine) :class:`TimelineSeries`:

* cumulative ``accesses`` / ``instructions`` / ``cycles`` (IPC is derived),
* the demand and metadata-cache counters (hit rate is derived),
* instantaneous ROB / MSHR occupancy summed over cores,
* the per-bank write-queue depth vector,

plus bounded **events** -- ``integrity_miss`` for every metadata-cache miss
that had to touch DRAM, and ``detection`` markers recorded by the attack
layer -- each stamped with the demand-access index it fired at.

Design contracts, all pinned by tests:

* **Derived observations only.**  Recording a timeline never changes what
  the engines compute: results, comparison payloads and cache keys are
  byte-identical with timelines on or off.
* **Engine parity.**  The reference and batch engines interleave cores in
  the same global order, so their window samples and events are identical
  value-for-value for the same job.
* **Zero overhead when off.**  An observation without a timeline has
  ``timeline=None``; engines read it once per run into a local and the
  hot loop pays a single ``is not None`` test (gated by
  ``benchmarks/bench_obs_overhead.py``, which CI's obs-smoke job runs).
* **Bounded memory.**  Samples buffer as rows and flush into columnar
  numpy chunks (the trace-store layout) every ``chunk_size`` samples;
  events are capped per series at ``max_events`` with a deterministic
  ``events_dropped`` counter, so both engines drop the same events.
* **Exact cross-process shipping.**  :meth:`TimelineRecorder.snapshot`
  and :meth:`TimelineRecorder.merge` carry a pool worker's series home,
  along with its metrics and spans (see :mod:`repro.obs.observation`).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "TIMELINE_SCHEMA_VERSION",
    "DEFAULT_TIMELINE_WINDOW",
    "TimelineSeries",
    "TimelineRecorder",
]

#: Bump when the payload layout changes.
TIMELINE_SCHEMA_VERSION = 1
#: Sample every N processed LLC accesses unless the caller says otherwise.
DEFAULT_TIMELINE_WINDOW = 256
#: Buffered sample rows per columnar chunk (mirrors the trace store's
#: bounded-memory chunking; small enough that a live reader sees fresh data).
DEFAULT_CHUNK_SIZE = 1024
#: Per-series event cap; identical deterministic drops in both engines.
DEFAULT_MAX_EVENTS = 256

#: Scalar sample columns, in row order (``bank_depth`` rides along as a
#: fixed-width vector column).
SAMPLE_COLUMNS = (
    "accesses",
    "instructions",
    "cycles",
    "demand_reads",
    "demand_writes",
    "metadata_accesses",
    "metadata_hits",
    "rob_occupancy",
    "mshr_occupancy",
)

_COLUMN_DTYPES = {
    "accesses": np.int64,
    "instructions": np.int64,
    "cycles": np.float64,
    "demand_reads": np.int64,
    "demand_writes": np.int64,
    "metadata_accesses": np.int64,
    "metadata_hits": np.int64,
    "rob_occupancy": np.int64,
    "mshr_occupancy": np.int64,
}


class TimelineSeries:
    """One run's windowed samples + indexed events (columnar, bounded)."""

    __slots__ = (
        "workload", "configuration", "engine", "window", "num_banks",
        "chunk_size", "max_events", "events", "events_dropped",
        "_rows", "_bank_rows", "_chunks",
    )

    def __init__(
        self,
        workload: str,
        configuration: str,
        engine: str,
        window: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.workload = workload
        self.configuration = configuration
        self.engine = engine
        self.window = int(window)
        self.chunk_size = int(chunk_size)
        self.max_events = int(max_events)
        self.num_banks = 0
        #: ``(kind, access_index, label)`` tuples, capped at ``max_events``.
        self.events: List[Tuple[str, int, str]] = []
        self.events_dropped = 0
        self._rows: List[Tuple] = []
        self._bank_rows: List[Tuple[int, ...]] = []
        self._chunks: List[Dict[str, np.ndarray]] = []

    # -- hot-path recording ---------------------------------------------
    def sample(
        self,
        accesses: int,
        instructions: int,
        cycles: float,
        demand_reads: int,
        demand_writes: int,
        metadata_accesses: int,
        metadata_hits: int,
        rob_occupancy: int,
        mshr_occupancy: int,
        bank_depth: Sequence[int],
    ) -> None:
        """Append one window sample (cumulative counters + occupancies)."""
        if not self.num_banks:
            self.num_banks = len(bank_depth)
        self._rows.append((
            accesses, instructions, cycles, demand_reads, demand_writes,
            metadata_accesses, metadata_hits, rob_occupancy, mshr_occupancy,
        ))
        self._bank_rows.append(tuple(bank_depth))
        if len(self._rows) >= self.chunk_size:
            self._flush()

    def event(self, kind: str, access_index: int, label: str = "") -> None:
        """Record one indexed event, dropping deterministically past the cap."""
        if len(self.events) >= self.max_events:
            self.events_dropped += 1
            return
        self.events.append((kind, access_index, label))

    # -- columnar storage -----------------------------------------------
    def _flush(self) -> None:
        """Convert the buffered rows into one columnar numpy chunk."""
        if not self._rows:
            return
        chunk: Dict[str, np.ndarray] = {}
        columns = list(zip(*self._rows))
        for index, name in enumerate(SAMPLE_COLUMNS):
            chunk[name] = np.asarray(columns[index], dtype=_COLUMN_DTYPES[name])
        chunk["bank_depth"] = np.asarray(self._bank_rows, dtype=np.int64)
        self._chunks.append(chunk)
        self._rows = []
        self._bank_rows = []

    @property
    def sample_count(self) -> int:
        return sum(len(chunk["accesses"]) for chunk in self._chunks) + len(self._rows)

    @property
    def chunk_count(self) -> int:
        """Flushed columnar chunks (excludes the open row buffer)."""
        return len(self._chunks)

    def _column(self, name: str) -> List:
        values: List = []
        for chunk in self._chunks:
            values.extend(chunk[name].tolist())
        index = SAMPLE_COLUMNS.index(name)
        values.extend(row[index] for row in list(self._rows))
        return values

    def _bank_column(self) -> List[List[int]]:
        values: List[List[int]] = []
        for chunk in self._chunks:
            values.extend(chunk["bank_depth"].tolist())
        values.extend(list(row) for row in list(self._bank_rows))
        return values

    # -- shipping / payloads --------------------------------------------
    def state(self) -> Dict[str, object]:
        """Picklable state for cross-process shipping."""
        self._flush()
        return {
            "workload": self.workload,
            "configuration": self.configuration,
            "engine": self.engine,
            "window": self.window,
            "num_banks": self.num_banks,
            "chunks": list(self._chunks),
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "TimelineSeries":
        series = cls(
            state["workload"], state["configuration"], state["engine"],
            state["window"],
        )
        series.num_banks = int(state.get("num_banks") or 0)
        series._chunks = list(state.get("chunks") or [])
        series.events = [tuple(event) for event in state.get("events") or []]
        series.events_dropped = int(state.get("events_dropped") or 0)
        return series

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready payload: columns, derived series, events."""
        samples = {name: self._column(name) for name in SAMPLE_COLUMNS}
        instructions = samples["instructions"]
        cycles = samples["cycles"]
        samples["ipc"] = [
            (inst / cyc if cyc > 0 else 0.0)
            for inst, cyc in zip(instructions, cycles)
        ]
        samples["metadata_hit_rate"] = [
            (hits / total if total else 0.0)
            for hits, total in zip(
                samples["metadata_hits"], samples["metadata_accesses"]
            )
        ]
        return {
            "workload": self.workload,
            "configuration": self.configuration,
            "engine": self.engine,
            "window": self.window,
            "sample_count": len(instructions),
            "num_banks": self.num_banks,
            "samples": samples,
            "bank_depth": self._bank_column(),
            "events": [
                {"kind": kind, "access_index": index, "label": label}
                for kind, index, label in self.events
            ],
            "events_dropped": self.events_dropped,
        }


class TimelineRecorder:
    """A collection of :class:`TimelineSeries`, one per simulated run."""

    def __init__(
        self,
        window: int = DEFAULT_TIMELINE_WINDOW,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if window < 1:
            raise ValueError("timeline window must be >= 1, got %r" % (window,))
        self.window = int(window)
        self.chunk_size = int(chunk_size)
        self.max_events = int(max_events)
        self._lock = threading.Lock()
        self._series: List[TimelineSeries] = []

    def series(self, workload: str, configuration: str, engine: str) -> TimelineSeries:
        """Open a new series for one run (series are never deduplicated --
        two runs of the same job record two series, in completion order)."""
        series = TimelineSeries(
            workload, configuration, engine, self.window,
            chunk_size=self.chunk_size, max_events=self.max_events,
        )
        with self._lock:
            self._series.append(series)
        return series

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    @property
    def sample_count(self) -> int:
        """Total window samples across every series (live-progress probe)."""
        with self._lock:
            return sum(series.sample_count for series in self._series)

    def all_series(self) -> List[TimelineSeries]:
        with self._lock:
            return list(self._series)

    # -- shipping / payloads --------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Picklable dump for :meth:`merge` (the worker->parent ship path)."""
        with self._lock:
            return {
                "window": self.window,
                "series": [series.state() for series in self._series],
            }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a worker's :meth:`snapshot` into this recorder, exactly."""
        incoming = [
            TimelineSeries.from_state(state)
            for state in snapshot.get("series") or []
        ]
        with self._lock:
            self._series.extend(incoming)

    def to_payload(self) -> Dict[str, object]:
        """The JSON payload behind ``GET /jobs/{id}/timeline`` and
        ``--timeline FILE``; series sorted by (workload, configuration,
        engine) so the output is deterministic."""
        with self._lock:
            ordered = sorted(
                self._series,
                key=lambda s: (s.workload, s.configuration, s.engine),
            )
            return {
                "schema": TIMELINE_SCHEMA_VERSION,
                "window": self.window,
                "series": [series.to_payload() for series in ordered],
            }
