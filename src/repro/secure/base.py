"""Common machinery for all secure-memory timing models.

Every configuration in the paper's evaluation -- the TDX-like baseline, the
integrity trees, SecDDR, InvisiMem and the encrypt-only upper bounds -- is a
:class:`SecureMemorySystem`: a wrapper around the memory controller that
expands each demand access into (possibly zero) security-metadata accesses,
filters them through the shared metadata cache, and reports the extra
processor-side cryptographic latency on the critical path.

The CPU model only sees the final ``(completion_cycle, extra_cpu_cycles)``
pair, which is exactly the interface difference between the evaluated
systems.

What a mechanism costs is stated once, as a frozen :class:`MetadataPath`
(:func:`repro.secure.configs.metadata_path` gives each built-in mechanism's):
the reference model executes it access by access, and the batch engine
(:mod:`repro.sim.engines`) reads the same description, so the two engines
cannot disagree about a mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cache.metadata_cache import MetadataCache
from repro.controller.memory_controller import MemoryController
from repro.dram.commands import MemoryRequest, RequestType

if TYPE_CHECKING:  # pragma: no cover - integrity_tree imports this module
    from repro.secure.integrity_tree import IntegrityTree

__all__ = ["MetadataLayout", "MetadataPath", "AccessBreakdown", "SecureMemorySystem"]

LINE_BYTES = 64


@dataclass(frozen=True)
class MetadataLayout:
    """Where security metadata lives in the physical address space.

    Demand data occupies the low part of the address space (each core's
    replicated trace sits in its own 4 GB window).  Metadata regions are
    placed far above so they never collide with data lines; the DRAM address
    mapping spreads them over banks just like data.
    """

    line_bytes: int = LINE_BYTES
    counter_region_base: int = 1 << 40
    tree_region_base: int = 1 << 41
    mac_region_base: int = 1 << 42


@dataclass(frozen=True)
class MetadataPath:
    """What one demand access costs under a mechanism.

    A read touches the metadata line covering its data line (when ``base``
    is not None) and, after a miss there, walks ``tree`` from that leaf
    until the first cached node.  A write dirties the same lines.  The read
    then pays ``extra_hit`` or ``extra_miss`` CPU cycles on its critical
    path, by the outcome of its metadata line; with no metadata every read
    pays ``extra_hit``.
    """

    extra_hit: float = 0.0
    extra_miss: float = 0.0
    #: Address of the leaf metadata region; None means no metadata traffic.
    base: Optional[int] = None
    #: Data lines covered by one metadata line.
    lines_per_entry: int = 1
    tree: Optional["IntegrityTree"] = None


@dataclass
class AccessBreakdown:
    """Accounting for one demand access (useful for tests and debugging)."""

    data_completion: float
    metadata_completion: float
    extra_cpu_cycles: float
    metadata_lines_touched: int = 0
    metadata_misses: int = 0

    @property
    def completion(self) -> float:
        return max(self.data_completion, self.metadata_completion)


@dataclass
class SecureMemoryStats:
    """Aggregate statistics every secure-memory system reports."""

    demand_reads: int = 0
    demand_writes: int = 0
    metadata_reads: int = 0
    metadata_writebacks: int = 0
    metadata_accesses: int = 0
    metadata_hits: int = 0

    @property
    def metadata_miss_rate(self) -> float:
        if self.metadata_accesses == 0:
            return 0.0
        return 1.0 - self.metadata_hits / self.metadata_accesses


class SecureMemorySystem:
    """One secure memory: a controller, a metadata cache and a metadata path.

    Every mechanism is this class with its own :class:`MetadataPath` (the
    default, no metadata and no latency, is an unprotected memory).  The
    generic :meth:`_expand_read` and :meth:`_expand_write` execute the path
    through :meth:`_metadata_access`, so all configurations share the same
    metadata-cache and writeback behaviour.  A subclass that overrides any
    method besides ``__init__`` runs on the reference engine only.
    """

    def __init__(
        self,
        controller: MemoryController,
        metadata_cache: Optional[MetadataCache] = None,
        layout: Optional[MetadataLayout] = None,
        path: Optional[MetadataPath] = None,
    ) -> None:
        self.controller = controller
        self.metadata_cache = metadata_cache or MetadataCache()
        self.layout = layout or MetadataLayout()
        self.path = path or MetadataPath()
        self.stats = SecureMemoryStats()
        self._total_instructions_hint = 0
        #: Live :class:`repro.obs.timeline.TimelineSeries` while a timeline
        #: recorder is installed; ``None`` (the default) costs one attribute
        #: read per metadata miss.  Set by the reference engine.
        self._timeline_series = None

    # ------------------------------------------------------------------
    # Demand-access entry points (the CPU-facing interface)
    # ------------------------------------------------------------------
    def read(self, address: int, dram_cycle: float) -> Tuple[float, float]:
        """Serve a demand read; returns (completion DRAM cycle, extra CPU cycles)."""
        self.stats.demand_reads += 1
        breakdown = self.access_breakdown(address, dram_cycle, is_write=False)
        return breakdown.completion, breakdown.extra_cpu_cycles

    def write(self, address: int, dram_cycle: float) -> None:
        """Accept a posted demand write (LLC writeback)."""
        self.stats.demand_writes += 1
        cycle = int(dram_cycle)
        self._expand_write(address, cycle)
        self.controller.enqueue_write(
            MemoryRequest(
                address=address,
                request_type=RequestType.WRITE,
                arrival_cycle=cycle,
            )
        )

    def access_breakdown(self, address: int, dram_cycle: float, is_write: bool = False) -> AccessBreakdown:
        """Full accounting of a read (used by tests and the read path)."""
        cycle = int(dram_cycle)
        metadata_completion, extra_cpu, touched, missed = self._expand_read(address, cycle)
        data_completion = self.controller.service_read(
            MemoryRequest(
                address=address,
                request_type=RequestType.READ,
                arrival_cycle=cycle,
            )
        )
        return AccessBreakdown(
            data_completion=data_completion,
            metadata_completion=metadata_completion,
            extra_cpu_cycles=extra_cpu,
            metadata_lines_touched=touched,
            metadata_misses=missed,
        )

    # ------------------------------------------------------------------
    # Executing the metadata path
    # ------------------------------------------------------------------
    def _expand_read(self, address: int, cycle: int) -> Tuple[float, float, int, int]:
        """Metadata work for a demand read.

        Returns ``(metadata_completion_cycle, extra_cpu_cycles,
        metadata_lines_touched, metadata_misses)``.
        """
        path = self.path
        if path.base is None:
            return cycle, path.extra_hit, 0, 0
        hit, completion, touched, missed = self._walk(address, cycle, dirty=False)
        return completion, path.extra_hit if hit else path.extra_miss, touched, missed

    def _expand_write(self, address: int, cycle: int) -> None:
        """Metadata work for a demand write: dirty the read's metadata lines."""
        if self.path.base is not None:
            self._walk(address, cycle, dirty=True)

    def _walk(self, address: int, cycle: int, dirty: bool) -> Tuple[bool, float, int, int]:
        """Access the leaf metadata line and, on a miss, the tree path.

        Returns ``(leaf_hit, completion, touched, missed)``.  Traversal stops
        at the first cached tree node (it is considered verified); when the
        leaf line itself hits, no tree node is accessed at all.  All fetches
        are issued in parallel, so the completion is the max over them.
        """
        path = self.path
        line_bytes = self.layout.line_bytes
        leaf = address // line_bytes // path.lines_per_entry
        hit, completion = self._metadata_access(path.base + leaf * line_bytes, cycle, dirty)
        completion = max(cycle, completion)
        touched, missed = 1, 0 if hit else 1
        if not hit and path.tree is not None:
            leaf = min(leaf, path.tree.geometry.leaf_lines - 1)
            for node_address in path.tree.path_for_leaf(leaf):
                node_hit, node_completion = self._metadata_access(node_address, cycle, dirty)
                completion = max(completion, node_completion)
                touched += 1
                if node_hit:
                    break
                missed += 1
        return hit, completion, touched, missed

    def _metadata_access(self, metadata_address: int, cycle: int, dirty: bool) -> Tuple[bool, float]:
        """Access one metadata line through the metadata cache.

        On a metadata-cache miss the line is fetched from DRAM (the returned
        completion reflects it); a dirty victim evicted by the fill becomes a
        posted DRAM write.  Returns ``(hit, completion_cycle)``.
        """
        self.stats.metadata_accesses += 1
        result = self.metadata_cache.access(metadata_address, is_write=dirty)
        completion: float = cycle
        if result.hit:
            self.stats.metadata_hits += 1
        else:
            self.stats.metadata_reads += 1
            series = self._timeline_series
            if series is not None:
                # The demand-access index this integrity fetch fired at;
                # demand counters are bumped before expansion in both
                # engines, so the indices agree bit-for-bit.
                series.event(
                    "integrity_miss",
                    self.stats.demand_reads + self.stats.demand_writes,
                )
            completion = self.controller.service_read(
                MemoryRequest(
                    address=metadata_address,
                    request_type=RequestType.READ,
                    arrival_cycle=cycle,
                )
            )
        if result.writeback_address is not None:
            self.stats.metadata_writebacks += 1
            self.controller.enqueue_write(
                MemoryRequest(
                    address=result.writeback_address,
                    request_type=RequestType.WRITE,
                    arrival_cycle=cycle,
                )
            )
        return result.hit, completion

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def note_instructions(self, instructions: int) -> None:
        """Record the instruction count (for per-kilo-instruction metrics)."""
        self._total_instructions_hint = instructions

    def collect_stats(self) -> Dict[str, float]:
        """Flat statistics dictionary merged into the system result."""
        controller = self.controller.stats
        cache = self.metadata_cache.stats
        stats: Dict[str, float] = {
            "config": 0.0,  # placeholder so keys stay numeric-friendly
            "demand_reads": float(self.stats.demand_reads),
            "demand_writes": float(self.stats.demand_writes),
            "metadata_reads": float(self.stats.metadata_reads),
            "metadata_writebacks": float(self.stats.metadata_writebacks),
            "metadata_accesses": float(self.stats.metadata_accesses),
            "metadata_hits": float(self.stats.metadata_hits),
            "metadata_miss_rate": self.stats.metadata_miss_rate,
            "metadata_cache_hit_rate": cache.hit_rate,
            "controller_reads": float(controller.reads_served),
            "controller_writes": float(controller.writes_served),
            "controller_avg_read_latency": controller.average_read_latency,
            "forwarded_reads": float(controller.forwarded_reads),
        }
        if self._total_instructions_hint:
            per_kilo = 1000.0 / self._total_instructions_hint
            misses = self.stats.metadata_accesses - self.stats.metadata_hits
            stats["metadata_mpki"] = misses * per_kilo
        return stats

    def finish(self) -> None:
        """Flush buffered state at the end of a simulation."""
        for address in self.metadata_cache.flush():
            self.controller.enqueue_write(
                MemoryRequest(
                    address=address,
                    request_type=RequestType.WRITE,
                    arrival_cycle=self.controller.current_cycle,
                )
            )
        self.controller.flush()
