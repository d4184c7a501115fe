"""Trace-driven core model with ROB-occupancy and MSHR overlap limits.

The model reproduces the first-order behaviour of the paper's 6-wide,
224-entry-ROB out-of-order cores: the core retires instructions at its issue
width until the reorder buffer fills behind an outstanding LLC miss, and it
can overlap a bounded number of misses (the MSHR / memory-level-parallelism
limit).  Writebacks are posted and do not stall retirement; they only consume
memory bandwidth.

The absolute IPC of this model is not meaningful (see
``docs/architecture.md``, "Substitutions"); the ratio between two
secure-memory configurations is, because the configurations only change the
latency and count of memory accesses the core observes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.cpu.trace import MemoryTrace

__all__ = ["CoreConfig", "CoreResult", "Core"]


class _RecordCursor:
    """Sequential ``(gap, is_write, address)`` cursor over an indexed trace.

    The core consumes its trace through a cursor (``peek``/``advance``)
    rather than by index, so chunk-streamed traces can plug in their own
    cursor (see :meth:`repro.traces.streaming.ChunkedTrace.open_cursor`)
    and huge on-disk traces replay in bounded memory.  This is the default
    cursor for plain in-memory :class:`~repro.cpu.trace.MemoryTrace`s.
    """

    __slots__ = ("_trace", "_position", "_current")

    def __init__(self, trace: MemoryTrace) -> None:
        self._trace = trace
        self._position = 0
        self._current: Optional[Tuple[int, bool, int]] = None

    def peek(self) -> Optional[Tuple[int, bool, int]]:
        if self._current is None:
            if self._position >= len(self._trace):
                return None
            record = self._trace[self._position]
            self._current = (record.instruction_gap, record.is_write, record.address)
        return self._current

    def advance(self) -> None:
        self._position += 1
        self._current = None


def _open_cursor(trace):
    """The record cursor for ``trace`` (its own chunked one when it has one)."""
    opener = getattr(trace, "open_cursor", None)
    if callable(opener):
        return opener()
    return _RecordCursor(trace)


@dataclass(frozen=True)
class CoreConfig:
    """Static core parameters (paper Table I)."""

    issue_width: int = 6
    rob_entries: int = 224
    mshr_entries: int = 16
    cpu_freq_mhz: float = 3200.0
    dram_freq_mhz: float = 1600.0
    #: Fixed on-chip latency (L1/L2/LLC lookups, interconnect) added to every
    #: off-chip access, in CPU cycles.
    onchip_latency_cycles: int = 60

    @property
    def cpu_cycles_per_dram_cycle(self) -> float:
        return self.cpu_freq_mhz / self.dram_freq_mhz

    def dram_to_cpu(self, dram_cycle: float) -> float:
        """Convert an absolute DRAM-cycle timestamp to CPU cycles."""
        return dram_cycle * self.cpu_cycles_per_dram_cycle

    def cpu_to_dram(self, cpu_cycle: float) -> float:
        """Convert an absolute CPU-cycle timestamp to DRAM cycles."""
        return cpu_cycle / self.cpu_cycles_per_dram_cycle


@dataclass
class CoreResult:
    """Summary of one core's execution."""

    core_id: int
    instructions: int
    cycles: float
    reads: int
    writes: int
    total_read_latency_cpu_cycles: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def average_read_latency(self) -> float:
        return (
            self.total_read_latency_cpu_cycles / self.reads if self.reads else 0.0
        )


class Core:
    """One trace-driven core.

    The core is stepped one trace record at a time by the system model
    (:class:`repro.cpu.system.System`), which interleaves cores in time order
    so that they contend realistically for the shared memory system.
    """

    def __init__(self, core_id: int, trace: MemoryTrace, config: Optional[CoreConfig] = None) -> None:
        self.core_id = core_id
        self.trace = trace
        self.config = config or CoreConfig()
        self._cpu_cycles_per_dram_cycle = self.config.cpu_cycles_per_dram_cycle
        self._cursor = _open_cursor(trace)
        self._cpu_cycle: float = 0.0
        self._instructions_retired: int = 0
        # Outstanding demand reads: (completion_cpu_cycle, instruction_index).
        self._outstanding: Deque[Tuple[float, int]] = deque()
        self._reads = 0
        self._writes = 0
        self._total_read_latency = 0.0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True when every trace record has been issued."""
        return self._cursor.peek() is None

    @property
    def instructions_retired(self) -> int:
        return self._instructions_retired

    def next_issue_cycle(self) -> Optional[float]:
        """CPU cycle at which the next trace record would issue (None if done).

        This accounts for execution time of the intervening instructions and
        for stalls imposed by the ROB and MSHR limits given currently
        outstanding misses, but does not mutate state -- the system model
        uses it to pick which core to step next.
        """
        record = self._cursor.peek()
        if record is None:
            return None
        instruction_gap, is_write, _ = record
        issue_cycle = self._cpu_cycle + instruction_gap / self.config.issue_width
        inst_index = self._instructions_retired + instruction_gap
        # Reads must respect the structural limits; writes are posted.
        if not is_write:
            issue_cycle = self._structural_stall(issue_cycle, inst_index, mutate=False)
        return issue_cycle

    # ------------------------------------------------------------------
    def _structural_stall(self, issue_cycle: float, inst_index: int, mutate: bool) -> float:
        """Apply ROB-occupancy and MSHR stalls to a tentative issue cycle.

        Only ``mutate`` removes the outstanding reads the stall waited for.
        """
        outstanding = self._outstanding
        count = len(outstanding)
        head = 0
        # ROB: cannot run further than rob_entries instructions past the
        # oldest incomplete miss.
        while head < count and inst_index - outstanding[head][1] > self.config.rob_entries:
            issue_cycle = max(issue_cycle, outstanding[head][0])
            head += 1
        # MSHRs: cannot have more than mshr_entries misses in flight.
        while count - head >= self.config.mshr_entries:
            issue_cycle = max(issue_cycle, outstanding[head][0])
            head += 1
        if mutate:
            for _ in range(head):
                outstanding.popleft()
        return issue_cycle

    def step(self, memory) -> Tuple[int, bool, int]:
        """Issue the next trace record to ``memory`` and update core state.

        ``memory`` is any object exposing the secure-memory interface
        ``read(address, dram_cycle) -> (completion_dram_cycle, extra_cpu_cycles)``
        and ``write(address, dram_cycle) -> None``.  Returns the issued
        record as its ``(instruction_gap, is_write, address)`` tuple -- the
        cursor's native shape, so the hot loop allocates nothing per access.
        """
        record = self._cursor.peek()
        if record is None:
            raise RuntimeError("core %d has no more trace records" % self.core_id)
        self._cursor.advance()
        instruction_gap, is_write, address = record

        inst_index = self._instructions_retired + instruction_gap
        issue_cycle = self._cpu_cycle + instruction_gap / self.config.issue_width

        if is_write:
            # Posted writeback: consumes bandwidth, does not stall the core.
            memory.write(address, issue_cycle / self._cpu_cycles_per_dram_cycle)
            self._writes += 1
        else:
            issue_cycle = self._structural_stall(issue_cycle, inst_index, mutate=True)
            onchip = self.config.onchip_latency_cycles
            completion_dram, extra_cpu = memory.read(
                address, (issue_cycle + onchip) / self._cpu_cycles_per_dram_cycle
            )
            completion_cpu = completion_dram * self._cpu_cycles_per_dram_cycle + onchip + extra_cpu
            self._outstanding.append((completion_cpu, inst_index))
            self._reads += 1
            self._total_read_latency += completion_cpu - issue_cycle

        self._cpu_cycle = issue_cycle
        self._instructions_retired = inst_index
        return record

    def finalize(self) -> CoreResult:
        """Drain outstanding misses and return the core's summary."""
        final_cycle = self._cpu_cycle
        if self._outstanding:
            final_cycle = max(final_cycle, max(c for c, _ in self._outstanding))
        self._outstanding.clear()
        # Guard against an empty trace producing a zero-cycle run.
        final_cycle = max(final_cycle, 1.0)
        return CoreResult(
            core_id=self.core_id,
            instructions=self._instructions_retired,
            cycles=final_cycle,
            reads=self._reads,
            writes=self._writes,
            total_read_latency_cpu_cycles=self._total_read_latency,
        )
