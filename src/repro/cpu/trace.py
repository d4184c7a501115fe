"""Memory-trace format used by the trace-driven core model.

A trace is a sequence of :class:`TraceRecord` entries, each describing one
LLC-level memory access (a demand miss fill or a writeback) together with the
number of instructions the core retires between the previous access and this
one.  This is the natural granularity for studying secure-memory overheads:
everything above the LLC is unchanged across configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Sequence

__all__ = ["TraceRecord", "MemoryTrace"]


@dataclass(frozen=True)
class TraceRecord:
    """One LLC-level memory access in a workload trace.

    Attributes
    ----------
    instruction_gap:
        Instructions retired since the previous record (>= 0).
    is_write:
        True for a writeback (posted), False for a demand read (blocking).
    address:
        Line-aligned physical byte address.
    """

    instruction_gap: int
    is_write: bool
    address: int

    def __post_init__(self) -> None:
        if self.instruction_gap < 0:
            raise ValueError("instruction_gap must be non-negative")
        if self.address < 0:
            raise ValueError("address must be non-negative")


class MemoryTrace:
    """A named, replayable sequence of :class:`TraceRecord` entries."""

    def __init__(self, name: str, records: Sequence[TraceRecord]) -> None:
        self.name = name
        self._records: List[TraceRecord] = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    @cached_property
    def chunk_arrays(self) -> list:
        """The records as ``(gaps, writes, addrs)`` numpy chunks, built once (records never change)."""
        from repro.traces.streaming import iter_memory_trace_chunks  # lazily: it imports this module

        return list(iter_memory_trace_chunks(self))

    # ------------------------------------------------------------------
    @property
    def total_instructions(self) -> int:
        """Total instructions represented by the trace."""
        return sum(r.instruction_gap for r in self._records)

    @property
    def total_accesses(self) -> int:
        return len(self._records)

    @property
    def read_count(self) -> int:
        return sum(1 for r in self._records if not r.is_write)

    @property
    def write_count(self) -> int:
        return sum(1 for r in self._records if r.is_write)

    @property
    def write_fraction(self) -> float:
        if not self._records:
            return 0.0
        return self.write_count / len(self._records)

    @property
    def mpki(self) -> float:
        """LLC misses (reads) per thousand instructions."""
        instructions = self.total_instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * self.read_count / instructions

    @property
    def footprint_bytes(self) -> int:
        """Number of distinct lines touched times the line size (64 B)."""
        return 64 * len({r.address // 64 for r in self._records})

    # ------------------------------------------------------------------
    def offset(self, byte_offset: int) -> "MemoryTrace":
        """A copy of the trace with every address shifted by ``byte_offset``.

        Used to replicate one SimPoint-style trace across the four cores at
        disjoint physical regions, as the paper does ("each SimPoint
        replicated four times").
        """
        shifted = [
            TraceRecord(r.instruction_gap, r.is_write, r.address + byte_offset)
            for r in self._records
        ]
        return MemoryTrace(self.name, shifted)

    def truncated(self, max_records: int) -> "MemoryTrace":
        """A copy limited to the first ``max_records`` accesses."""
        return MemoryTrace(self.name, self._records[:max_records])

    @classmethod
    def merged(cls, name: str, traces: Iterable["MemoryTrace"]) -> "MemoryTrace":
        """Concatenate several traces into one (used to build mixes)."""
        records: List[TraceRecord] = []
        for trace in traces:
            records.extend(trace.records)
        return cls(name, records)
