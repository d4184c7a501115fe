"""Multi-core system model.

Glues together the cores, an optional per-core stream prefetcher, and the
secure-memory system (which itself wraps the memory controller and DRAM).
Cores are stepped in global time order so they contend for the shared memory
system the way the paper's 4-core configuration does (each core runs the same
SimPoint trace, shifted to a disjoint physical region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.prefetcher import StreamPrefetcher
from repro.cpu.core import Core, CoreConfig, CoreResult
from repro.cpu.trace import MemoryTrace

__all__ = ["SystemConfig", "SystemResult", "System"]


@dataclass(frozen=True)
class SystemConfig:
    """System-level configuration (paper Table I)."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    enable_prefetcher: bool = True
    #: Byte offset between the replicated per-core copies of the trace.
    per_core_address_stride: int = 1 << 32


@dataclass
class SystemResult:
    """Aggregate results of one simulation."""

    workload: str
    core_results: List[CoreResult]
    memory_stats: Dict[str, float]

    @property
    def total_ipc(self) -> float:
        """Sum of per-core IPC (the paper reports total IPC)."""
        return sum(result.ipc for result in self.core_results)

    @property
    def total_instructions(self) -> int:
        return sum(result.instructions for result in self.core_results)

    @property
    def total_cycles(self) -> float:
        return max((result.cycles for result in self.core_results), default=0.0)

    @property
    def average_read_latency(self) -> float:
        reads = sum(r.reads for r in self.core_results)
        if reads == 0:
            return 0.0
        total = sum(r.total_read_latency_cpu_cycles for r in self.core_results)
        return total / reads


class _PrefetchFilteringMemory:
    """Wraps the secure-memory system with a per-core stream prefetcher.

    Prefetch-covered reads complete at the prefetch latency (they were
    brought in ahead of time), and the prefetch itself is issued to memory as
    a read so that it still consumes bandwidth.
    """

    def __init__(self, memory, prefetcher: StreamPrefetcher) -> None:
        self._memory = memory
        self._prefetcher = prefetcher

    def read(self, address: int, dram_cycle: float):
        if self._prefetcher.covers(address):
            # Already prefetched: the line is (modelled as) on chip.
            return dram_cycle, 0.0
        for prefetch_address in self._prefetcher.observe_miss(address):
            # Prefetches consume memory bandwidth but nobody waits on them.
            self._memory.read(prefetch_address, dram_cycle)
        return self._memory.read(address, dram_cycle)

    def write(self, address: int, dram_cycle: float) -> None:
        self._memory.write(address, dram_cycle)


class System:
    """A ``num_cores``-core system sharing one secure memory system."""

    def __init__(
        self,
        workload: MemoryTrace,
        memory,
        config: Optional[SystemConfig] = None,
    ) -> None:
        """Create the system.

        Parameters
        ----------
        workload:
            The per-core trace; it is replicated across cores at disjoint
            address offsets, following the paper's methodology.
        memory:
            A secure-memory system exposing ``read(address, dram_cycle) ->
            (completion_dram_cycle, extra_cpu_cycles)`` and
            ``write(address, dram_cycle)`` (see
            :class:`repro.secure.base.SecureMemorySystem`).
        config:
            System parameters; defaults to the paper's 4-core configuration.
        """
        self.config = config or SystemConfig()
        self.workload = workload
        self.memory = memory
        self.cores: List[Core] = []
        for core_id in range(self.config.num_cores):
            trace = workload.offset(core_id * self.config.per_core_address_stride)
            self.cores.append(Core(core_id, trace, self.config.core))
        self._per_core_memory = []
        for _ in self.cores:
            if self.config.enable_prefetcher:
                self._per_core_memory.append(
                    _PrefetchFilteringMemory(memory, StreamPrefetcher())
                )
            else:
                self._per_core_memory.append(memory)

    # ------------------------------------------------------------------
    def run(self, timeline_series=None, timeline_window: int = 0) -> SystemResult:
        """Run every core to completion, interleaved in global time order.

        When ``timeline_series`` is set (a
        :class:`repro.obs.timeline.TimelineSeries`), one window sample is
        recorded after every ``timeline_window``-th processed access; the
        off path pays one ``is not None`` test per step.
        """
        # A core's next issue cycle (None once it is done) depends only on
        # its own cursor, cycle, retired count and outstanding reads, and
        # only its own step writes them, so a step recomputes only the
        # stepped core's entry.
        next_cycles = [core.next_issue_cycle() for core in self.cores]
        steps = 0
        while True:
            # Pick the core whose next request issues earliest; the lowest
            # index wins a tie.
            best_core = None
            best_cycle = None
            for index, cycle in enumerate(next_cycles):
                if cycle is not None and (best_cycle is None or cycle < best_cycle):
                    best_core, best_cycle = index, cycle
            if best_core is None:
                break
            core = self.cores[best_core]
            core.step(self._per_core_memory[best_core])
            if timeline_series is not None:
                steps += 1
                if steps % timeline_window == 0:
                    self._sample_timeline(timeline_series, steps)
            next_cycles[best_core] = core.next_issue_cycle()

        core_results = [core.finalize() for core in self.cores]
        memory_stats = self._collect_memory_stats()
        return SystemResult(
            workload=self.workload.name,
            core_results=core_results,
            memory_stats=memory_stats,
        )

    # ------------------------------------------------------------------
    def _sample_timeline(self, series, accesses: int) -> None:
        """Record one timeline window sample from the live model state.

        Every value is read the same way the batch engine's sampler reads
        its flat state, so reference and batch samples agree exactly:
        cumulative instructions, the max per-core cycle, instantaneous
        ROB/MSHR occupancy, demand/metadata counters and the per-bank
        write-queue depth vector.
        """
        instructions = 0
        cycles = 0.0
        mshr = 0
        rob = 0
        for core in self.cores:
            instructions += core._instructions_retired
            if core._cpu_cycle > cycles:
                cycles = core._cpu_cycle
            outstanding = core._outstanding
            mshr += len(outstanding)
            if outstanding:
                rob += core._instructions_retired - outstanding[0][1]
        stats = getattr(self.memory, "stats", None)
        controller = getattr(self.memory, "controller", None)
        if controller is not None:
            mapping = controller.mapping
            num_bg = mapping.bank_groups
            num_bpg = mapping.banks_per_group
            depths = [0] * (mapping.ranks * num_bg * num_bpg)
            for request in controller.write_queue.peek_all():
                decoded = request.decoded
                flat = (decoded.rank * num_bg + decoded.bank_group) * num_bpg
                depths[flat + decoded.bank] += 1
        else:
            depths = []
        series.sample(
            accesses,
            instructions,
            cycles,
            stats.demand_reads if stats is not None else 0,
            stats.demand_writes if stats is not None else 0,
            stats.metadata_accesses if stats is not None else 0,
            stats.metadata_hits if stats is not None else 0,
            rob,
            mshr,
            depths,
        )

    # ------------------------------------------------------------------
    def _collect_memory_stats(self) -> Dict[str, float]:
        """Pull whatever statistics the memory system exposes."""
        stats: Dict[str, float] = {}
        collector = getattr(self.memory, "collect_stats", None)
        if callable(collector):
            stats.update(collector())
        return stats
