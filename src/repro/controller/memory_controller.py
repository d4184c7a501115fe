"""Memory controller front end.

The controller owns one DDR channel (the paper's configuration is
single-channel) and a 64-entry write queue.  Reads are served at once, ahead
of buffered writes; writes are buffered and drained in batches when the write
queue crosses a high watermark, using FR-FCFS ordering inside the drain batch
-- the standard write-drain policy that makes the eWCRC write-burst overhead
visible mainly to write-intensive workloads (as the paper observes for lbm).

The controller also honours write-to-read forwarding: a read that matches a
queued write is returned from the queue without a DRAM access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.controller.queues import RequestQueue
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.address_mapping import AddressMapping
from repro.dram.channel import Channel
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.timing import DDRTimingParameters, DDR4_3200

__all__ = ["ControllerConfig", "ControllerStats", "MemoryController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Static configuration of the memory controller and its channel."""

    timing: DDRTimingParameters = DDR4_3200
    ranks: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    write_queue_entries: int = 64
    #: Start draining writes when the write queue reaches this occupancy.
    write_drain_high_watermark: int = 48
    #: Stop draining when occupancy falls back to this level.
    write_drain_low_watermark: int = 16
    #: Write-burst occupancy override in DRAM cycles (None = timing default).
    #: SecDDR configurations pass 5 here (BL10 on DDR4).
    write_burst_cycles: Optional[int] = None
    #: Deterministic memory-side latency added to reads / writes (InvisiMem's
    #: on-DIMM MAC verification); zero for SecDDR.
    memory_side_read_latency: int = 0
    memory_side_write_latency: int = 0


@dataclass
class ControllerStats:
    """Aggregate controller statistics."""

    reads_served: int = 0
    writes_served: int = 0
    forwarded_reads: int = 0
    write_drains: int = 0
    total_read_latency: int = 0

    @property
    def average_read_latency(self) -> float:
        if self.reads_served == 0:
            return 0.0
        return self.total_read_latency / self.reads_served


class MemoryController:
    """Single-channel memory controller with read priority and write drain."""

    def __init__(self, config: ControllerConfig | None = None, mapping: AddressMapping | None = None) -> None:
        self.config = config or ControllerConfig()
        self.mapping = mapping or AddressMapping(
            ranks=self.config.ranks,
            bank_groups=self.config.bank_groups,
            banks_per_group=self.config.banks_per_group,
        )
        self.channel = Channel(
            timing=self.config.timing,
            ranks=self.config.ranks,
            bank_groups=self.config.bank_groups,
            banks_per_group=self.config.banks_per_group,
            write_burst_cycles=self.config.write_burst_cycles,
            memory_side_read_latency=self.config.memory_side_read_latency,
            memory_side_write_latency=self.config.memory_side_write_latency,
        )
        self.scheduler = FRFCFSScheduler(self.mapping)
        self.write_queue = RequestQueue(self.config.write_queue_entries, "write-queue")
        self.stats = ControllerStats()
        #: The controller's notion of "now" (DRAM cycles); advances as
        #: requests are served.
        self.current_cycle = 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _serve_on_channel(self, request: MemoryRequest, earliest_cycle: int) -> int:
        """Issue accepted ``request`` on the channel; returns its completion cycle."""
        result = self.channel.access(request.decoded, request.is_read, earliest_cycle)
        request.completion_cycle = result.completion_cycle
        return result.completion_cycle

    def _drain_writes(self, cycle: int, target_occupancy: int) -> int:
        """Drain queued writes down to ``target_occupancy`` using FR-FCFS."""
        if self.write_queue.occupancy <= target_occupancy:
            return cycle
        self.stats.write_drains += 1
        batch_size = self.write_queue.occupancy - target_occupancy
        ordered = self.scheduler.order(self.channel, self.write_queue.peek_all())
        last_completion = cycle
        for request in ordered[:batch_size]:
            self.write_queue.remove(request)
            last_completion = self._serve_on_channel(request, max(cycle, request.arrival_cycle))
            self.stats.writes_served += 1
        return last_completion

    # ------------------------------------------------------------------
    # Public API used by the CPU / secure-memory layers
    # ------------------------------------------------------------------
    def enqueue_write(self, request: MemoryRequest) -> None:
        """Buffer a write; drains the queue first if it is at the watermark.

        Writes are posted: the caller does not wait for completion, matching
        the read-priority policy of the modeled controller.
        """
        if request.request_type is not RequestType.WRITE:
            raise ValueError("enqueue_write expects a write request")
        self.current_cycle = max(self.current_cycle, request.arrival_cycle)
        if self.write_queue.occupancy >= self.config.write_drain_high_watermark:
            self.current_cycle = max(
                self.current_cycle,
                self._drain_writes(self.current_cycle, self.config.write_drain_low_watermark),
            )
        request.decoded = self.mapping.decode(request.address)
        self.write_queue.push(request)

    def service_read(self, request: MemoryRequest) -> int:
        """Serve a read and return its completion cycle (DRAM cycles).

        Checks write-to-read forwarding first; otherwise the read is issued
        on the channel at once, ahead of buffered writes (read priority).
        """
        if request.request_type is not RequestType.READ:
            raise ValueError("service_read expects a read request")
        self.current_cycle = max(self.current_cycle, request.arrival_cycle)

        forwarded = self.write_queue.find_address(request.address)
        if forwarded is not None:
            self.stats.forwarded_reads += 1
            self.stats.reads_served += 1
            request.completion_cycle = self.current_cycle
            return self.current_cycle

        request.decoded = self.mapping.decode(request.address)
        completion = self._serve_on_channel(request, self.current_cycle)
        self.stats.reads_served += 1
        self.stats.total_read_latency += completion - request.arrival_cycle
        return completion

    def flush(self) -> int:
        """Drain all buffered writes (end of simulation); returns last cycle."""
        completion = self._drain_writes(self.current_cycle, 0)
        self.current_cycle = max(self.current_cycle, completion)
        return self.current_cycle
