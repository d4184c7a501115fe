"""Simulation engines: interchangeable executors for one (workload, config) run.

The reference engine advances the cycle-level object model one access at a
time (:mod:`repro.cpu.core` -> :mod:`repro.secure.base` -> :mod:`repro.dram`).
The batch engine consumes whole trace chunks as numpy arrays -- vectorized
DRAM address decode (:meth:`repro.dram.address_mapping.AddressMapping.decode_arrays`),
metadata-cache coordinates as array probes
(:meth:`repro.cache.metadata_cache.MetadataCache.index_and_tag_arrays`) and
each core's prefetch plan precomputed per chunk -- then replays only what
depends on timing, without allocating a single per-access object.

Both engines are registered in :data:`ENGINES` and selected by the
``engine=`` parameter threaded through :func:`repro.sim.experiment.run_simulation`,
:class:`repro.sim.runner.ParallelRunner`, :class:`repro.api.Session`, the
figure pipeline and the CLI ``--engine`` flag.  ``batch`` is the default;
``reference`` is the parity oracle.

Parity contract: every registered engine produces bit-identical
:class:`~repro.sim.results.SimulationResult` values (IPC, cycles, every
stats key) to the reference model; the test suite enforces this across
every mechanism and seeded random traces, and the result cache exploits it
by keying results without the engine.  Both engines read each mechanism's
one description, :class:`repro.secure.base.MetadataPath`.
"""

from __future__ import annotations

import weakref
from dataclasses import fields
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.errors import UnknownEngineError
from repro import obs

__all__ = [
    "Engine",
    "EngineRegistry",
    "EngineLike",
    "ENGINES",
    "DEFAULT_ENGINE",
    "engine_names",
    "resolve_engine",
    "register_engine",
    "ReferenceEngine",
    "BatchEngine",
    "BatchEngineUnsupported",
]

#: Engine used everywhere an ``engine=`` parameter is omitted.
DEFAULT_ENGINE = "batch"


class BatchEngineUnsupported(ValueError):
    """The batch engine cannot model this configuration exactly.

    Raised when a mechanism's system class overrides any
    :class:`~repro.secure.base.SecureMemorySystem` method instead of only
    setting ``self.path``, or its factory passes in its own controller or
    metadata-cache class; rerun with ``engine="reference"``.
    """


class Engine:
    """Base class for simulation engines.

    Subclasses set the class attributes and implement :meth:`simulate`,
    receiving an already-resolved trace object, a
    :class:`~repro.secure.configs.SystemConfiguration` spec and an
    :class:`~repro.sim.experiment.ExperimentConfig`, and returning a
    :class:`~repro.sim.results.SimulationResult`.  An engine may also
    define ``replay_key(spec, experiment)`` (see
    :meth:`BatchEngine.replay_key`); the runner then runs each distinct key
    of one workload once per pass.
    """

    #: Registry key and CLI ``--engine`` value.
    name: str = "abstract"
    #: Whether the engine consumes traces as whole numpy chunks.
    vectorized: bool = False
    description: str = ""

    def simulate(self, trace, spec, experiment):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return "<%s %r>" % (type(self).__name__, self.name)


#: Anything the execution layer accepts as "an engine".
EngineLike = Union[str, Engine]


class EngineRegistry:
    """Named engines, with closest-match errors for unknown names."""

    def __init__(self) -> None:
        self._engines: Dict[str, Engine] = {}

    def register(self, engine: Engine, replace: bool = False) -> Engine:
        """Register ``engine`` under ``engine.name``; returns it for chaining."""
        if not isinstance(engine, Engine):
            raise TypeError("expected an Engine instance, got %r" % (engine,))
        if engine.name in self._engines and not replace:
            raise ValueError(
                "engine %r is already registered (pass replace=True to override)"
                % engine.name
            )
        self._engines[engine.name] = engine
        return engine

    def names(self) -> List[str]:
        """Registered engine names, in registration order."""
        return list(self._engines)

    def get(self, name: str) -> Engine:
        """The engine registered under ``name`` (closest-match error if unknown)."""
        try:
            return self._engines[name]
        except KeyError:
            raise UnknownEngineError(name, self.names()) from None

    def resolve(self, engine: Optional[EngineLike]) -> Engine:
        """Accept an engine name, an Engine instance, or None (the default)."""
        if engine is None:
            return self.get(DEFAULT_ENGINE)
        if isinstance(engine, Engine):
            return engine
        return self.get(engine)

    def __contains__(self, name: object) -> bool:
        return name in self._engines

    def __iter__(self) -> Iterator[Engine]:
        return iter(self._engines.values())

    def __len__(self) -> int:
        return len(self._engines)


#: The default registry, holding the built-in "reference" and "batch" engines.
ENGINES = EngineRegistry()


def engine_names() -> List[str]:
    """Names of all registered engines."""
    return ENGINES.names()


def resolve_engine(engine: Optional[EngineLike] = None) -> Engine:
    """Resolve an engine name/instance/None against the default registry."""
    return ENGINES.resolve(engine)


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register a custom engine in the default registry.

    The engine must reproduce the reference model's results byte for byte:
    result-cache keys do not name the engine, so its entries serve every
    other engine's runs.
    """
    return ENGINES.register(engine, replace=replace)


# ---------------------------------------------------------------------------
# Reference engine: the per-access object model
# ---------------------------------------------------------------------------
class ReferenceEngine(Engine):
    """Per-access object model (cores -> secure memory -> DRAM objects)."""

    name = "reference"
    vectorized = False
    description = "Cycle-level object model; one Python object dance per access"

    def simulate(self, trace, spec, experiment):
        from repro.cpu.core import CoreConfig
        from repro.cpu.system import System, SystemConfig
        from repro.secure.configs import build_configuration
        from repro.sim.results import SimulationResult

        memory = build_configuration(
            spec, metadata_cache_bytes=experiment.metadata_cache_bytes
        )
        core_config = CoreConfig(
            issue_width=experiment.issue_width,
            rob_entries=experiment.rob_entries,
            mshr_entries=experiment.mshr_entries,
            cpu_freq_mhz=experiment.cpu_freq_mhz,
            dram_freq_mhz=spec.timing.freq_mhz,
        )
        system = System(
            trace,
            memory,
            SystemConfig(
                num_cores=experiment.num_cores,
                core=core_config,
                enable_prefetcher=experiment.enable_prefetcher,
            ),
        )
        timeline = obs.current().timeline
        series = None
        window = 0
        if timeline is not None:
            series = timeline.series(
                workload=trace.name, configuration=spec.name, engine=self.name
            )
            window = timeline.window
            memory._timeline_series = series
        result = system.run(timeline_series=series, timeline_window=window)
        memory.note_instructions(result.total_instructions)
        memory.finish()
        stats = memory.collect_stats()
        return SimulationResult(
            workload=trace.name,
            configuration=spec.name,
            total_ipc=result.total_ipc,
            total_instructions=result.total_instructions,
            total_cycles=result.total_cycles,
            average_read_latency_cycles=result.average_read_latency,
            memory_stats=stats,
        )


# ---------------------------------------------------------------------------
# Batch engine: chunk-array precompute + run-ahead replay
# ---------------------------------------------------------------------------
class BatchEngine(Engine):
    """Vectorized chunk-at-a-time engine with exact reference parity.

    Per chunk, everything that does not depend on timing is precomputed:
    issue deltas (``gap / issue_width``), DRAM locations as (flat bank, row)
    for data and metadata addresses, metadata-cache set/tag pairs and
    integrity-tree leaf indices, as numpy columns; and each core's prefetch
    plan -- which reads an earlier prefetch covers and which prefetch targets
    each other read issues first -- which is
    :class:`~repro.cache.prefetcher.StreamPrefetcher` run over the core's
    read addresses alone.  The chunk's prefetch targets are decoded in one
    vectorized call; a target derives its metadata line's set and tag as it
    is read, and that line's DRAM location and tree leaf only on a miss.
    An in-memory trace keeps its chunk columns
    (``MemoryTrace.chunk_arrays``) and each core offset's plans across runs;
    a streamed trace plans chunk by chunk and keeps nothing.

    The replay then runs one core at a time: the core that issues next, in
    :meth:`repro.cpu.system.System.run`'s order, keeps stepping while its
    next issue cycle stays below every other core's (or ties and the core
    comes first).  Each core is a generator whose frame holds its state, so
    switching cores saves and restores nothing; its next issue cycle is
    computed once per step.  The metadata cache is a list of ``num_sets``
    insertion-ordered dicts ``{tag: dirty}``, least recently used first; a
    hit on the counter line is taken inline, and only a miss calls the walk
    that fills the line and then looks up the off-chip tree levels up to the
    first hit.  Write-queue entries sort on (arrival, sequence) within
    the row hits and the row misses of each FR-FCFS drain.  The rest
    (ROB/MSHR stalls, DDR bank/rank/bus constraints) lives in plain ints and
    lists -- no ``MemoryRequest`` or ``DecodedAddress`` objects.  The
    end-of-run metadata flush and final drain are counted, not replayed.
    """

    name = "batch"
    vectorized = True
    description = "Chunk-array precompute + run-ahead replay (exact parity)"

    def simulate(self, trace, spec, experiment):
        return _simulate_batch(trace, spec, experiment)

    def replay_key(self, spec, experiment):
        """Everything the replay of ``spec`` under ``experiment`` reads but names.

        Two runs of one trace with equal keys give results that differ only
        in their ``configuration`` name, so the runner replays one and
        renames a copy for the other.  The key is None when the replay
        cannot be shared: the batch engine cannot run the system, or a
        timeline recorder is installed (each configuration records its own
        series).  A tree compares by identity, so two configurations with a
        tree never share.
        """
        if obs.current().timeline is not None:
            return None
        memory, system_config, reason = _batch_system(spec, experiment)
        if reason is not None:
            return None
        path = memory.path
        mapping = memory.controller.mapping
        return (
            path,
            memory.controller.config,
            (mapping.line_bytes, mapping.channels, mapping.ranks, mapping.bank_groups,
             mapping.banks_per_group, mapping.rows, mapping.columns_per_row),
            # A system without a metadata path never reads its cache size.
            memory.metadata_cache.config if path.base is not None else None,
            system_config,
            tuple(
                getattr(experiment, f.name) for f in fields(experiment)
                if f.name != "metadata_cache_bytes"
            ),
        )


def _batch_system(spec, experiment):
    """The system a batch replay of ``spec`` under ``experiment`` reads.

    Returns ``(memory, system config, reason)``: the same secure-memory
    system the reference engine builds, whose description and controller /
    metadata-cache geometry drive the replay; the core and system
    configuration; and why the replay would not be exact, or None.
    :meth:`BatchEngine.replay_key` and :func:`_simulate_batch` both build
    from here, so the key sees every input the replay reads.
    """
    from repro.cpu.core import CoreConfig
    from repro.cpu.system import SystemConfig
    from repro.secure.configs import build_configuration

    memory = build_configuration(spec, metadata_cache_bytes=experiment.metadata_cache_bytes)
    system_config = SystemConfig(
        num_cores=experiment.num_cores,
        core=CoreConfig(
            issue_width=experiment.issue_width,
            rob_entries=experiment.rob_entries,
            mshr_entries=experiment.mshr_entries,
            cpu_freq_mhz=experiment.cpu_freq_mhz,
            dram_freq_mhz=spec.timing.freq_mhz,
        ),
        enable_prefetcher=experiment.enable_prefetcher,
    )
    return memory, system_config, _batch_unsupported(memory)


def _batch_unsupported(memory):
    """Why the batch engine cannot replay ``memory`` exactly, or None.

    The replay models the stock controller and metadata cache executing the
    system's :class:`~repro.secure.base.MetadataPath` on 64-byte lines; any
    other behaviour it would silently ignore.
    """
    from repro.cache.metadata_cache import MetadataCache
    from repro.controller.memory_controller import MemoryController
    from repro.secure.base import SecureMemorySystem

    system_class = type(memory)
    for name, method in vars(SecureMemorySystem).items():
        if callable(method) and name != "__init__" and getattr(system_class, name) is not method:
            return "%s overrides %s" % (system_class.__name__, name)
    for part, stock in ((memory.controller, MemoryController), (memory.metadata_cache, MetadataCache)):
        if type(part) is not stock:
            return "%s uses %s" % (system_class.__name__, type(part).__name__)
    if memory.layout.line_bytes != 64 or memory.metadata_cache.config.line_bytes != 64:
        return "%s uses metadata lines that are not 64 bytes" % system_class.__name__
    return None


#: Each in-memory trace's prefetch plans, kept across runs: per trace, a dict
#: from a core's address offset (None without a prefetcher) to its chunks'
#: (plan, targets) pairs (see ``refill`` in :func:`_simulate_batch`).  Weak
#: keys: the plans die with their trace and never travel with a pickled one.
_PREFETCH_PLANS = weakref.WeakKeyDictionary()


def _simulate_batch(trace, spec, experiment):
    """Run one simulation on the batch engine (see :class:`BatchEngine`)."""
    from repro.cache.prefetcher import StreamPrefetcher
    from repro.sim.results import SimulationResult

    memory, system_config, reason = _batch_system(spec, experiment)
    if reason is not None:
        raise BatchEngineUnsupported(
            "%s, which the batch engine cannot replay; run it with "
            "engine=\"reference\"" % reason
        )
    path = memory.path
    extra_hit = path.extra_hit
    extra_miss = path.extra_miss
    meta_base = path.base
    meta_per_line = path.lines_per_entry
    with_meta = meta_base is not None
    controller_config = memory.controller.config
    mapping = memory.controller.mapping
    timing = controller_config.timing
    metadata_cache = memory.metadata_cache
    num_sets = metadata_cache.config.num_sets
    assoc = metadata_cache.config.associativity

    core_config = system_config.core
    ratio = core_config.cpu_cycles_per_dram_cycle
    issue_width = core_config.issue_width
    rob_entries = core_config.rob_entries
    mshr_entries = core_config.mshr_entries
    onchip = core_config.onchip_latency_cycles
    num_cores = system_config.num_cores
    stride = system_config.per_core_address_stride
    prefetch_enabled = system_config.enable_prefetcher
    pf_proto = StreamPrefetcher()
    pf_threshold = pf_proto.train_threshold
    pf_degree = pf_proto.degree
    pf_max = pf_proto.max_outstanding

    # Timing constants as locals (hot-loop attribute hoisting).
    tCL = timing.tCL
    tCWL = timing.tCWL
    tRCD = timing.tRCD
    tRP = timing.tRP
    tRAS = timing.tRAS
    tRC = timing.tRAS + timing.tRP
    tRTP = timing.tRTP
    tWR = timing.tWR
    tCCD_S = timing.tCCD_S
    tCCD_L = timing.tCCD_L
    tWTR_L = timing.tWTR_L
    tRRD_S = timing.tRRD_S
    tRRD_L = timing.tRRD_L
    tFAW = timing.tFAW
    tRFC = timing.tRFC
    tREFI = timing.tREFI
    burst_read = timing.burst_cycles_read
    burst_write = (
        timing.burst_cycles_write
        if controller_config.write_burst_cycles is None
        else controller_config.write_burst_cycles
    )
    ms_read = controller_config.memory_side_read_latency
    ms_write = controller_config.memory_side_write_latency
    hi_mark = controller_config.write_drain_high_watermark
    lo_mark = controller_config.write_drain_low_watermark

    num_bg = mapping.bank_groups
    num_bpg = mapping.banks_per_group
    num_ranks = mapping.ranks
    num_banks = num_ranks * num_bg * num_bpg
    # A DRAM location is (flat bank, row), the flat bank being
    # (rank * num_bg + group) * num_bpg + bank; these give its rank and
    # its rank-level bank group.
    bank_rank = [fb // (num_bg * num_bpg) for fb in range(num_banks)]
    bank_group = [fb // num_bpg for fb in range(num_banks)]

    off_bits = (mapping.line_bytes - 1).bit_length()
    ch_bits = (mapping.channels - 1).bit_length()
    bg_bits = (num_bg - 1).bit_length()
    bk_bits = (num_bpg - 1).bit_length()
    col_bits = (mapping.columns_per_row - 1).bit_length()
    rk_bits = (num_ranks - 1).bit_length()
    bg_mask = num_bg - 1
    bk_mask = num_bpg - 1
    rk_mask = num_ranks - 1
    row_mask = mapping.rows - 1

    def dec(address):
        # Scalar decode for dynamically generated addresses (prefetch
        # targets, cache-writeback victims); matches mapping.decode().
        bits = address >> off_bits
        bits >>= ch_bits
        group = bits & bg_mask
        bits >>= bg_bits
        bank = bits & bk_mask
        bits >>= bk_bits
        bits >>= col_bits
        rank = bits & rk_mask
        bits >>= rk_bits
        return (rank * num_bg + group) * num_bpg + bank, bits & row_mask

    # The first-node address of each off-chip tree level, leaf side first;
    # the root is on chip.  Without a tree, a walk has depth 0.
    node_bases = ()
    tree_arity = 1
    leaf_limit = 0
    tree = path.tree
    if tree is not None:
        geometry = tree.geometry
        tree_arity = geometry.arity
        leaf_limit = geometry.leaf_lines - 1
        node_bases = tuple(
            tree.node_address(level, 0) for level in range(1, geometry.offchip_levels + 1)
        )
    depth = len(node_bases)

    # ------------------------------------------------------------------
    # Flat DRAM / controller / cache state
    # ------------------------------------------------------------------
    b_open = [None] * num_banks
    b_act = [0] * num_banks
    b_pre = [0] * num_banks
    b_col = [0] * num_banks
    r_act_any = [0] * num_ranks
    r_act_g = [0] * (num_ranks * num_bg)
    r_col_any = [0] * num_ranks
    r_col_g = [0] * (num_ranks * num_bg)
    r_raw = [0] * num_ranks
    # Each rank's last four ACT cycles; the -tFAW seeds bound nothing.
    r_faw = [[-tFAW] * 4 for _ in range(num_ranks)]
    bus_free = 0
    last_refresh = 0
    cur_cycle = 0
    wq = []  # (arrival, seq, address, flat_bank, row), in no particular order
    wq_count = {}
    seq = 0
    reads_served = 0
    writes_served = 0
    forwarded_reads = 0
    total_read_latency = 0
    demand_reads = 0
    demand_writes = 0
    metadata_reads = 0
    metadata_writebacks = 0
    metadata_accesses = 0
    metadata_hits = 0
    # Per set index, {tag: dirty}, least recently used first
    cache_sets = [{} for _ in range(num_sets)] if with_meta else []

    def chan(fb, row, is_read, earliest):
        # Unguarded stores never lower what they overwrite: the ACT or column
        # cycle already took the max over each old value (b_col's through
        # b_act, which the last ACT set tRC past itself), and cycles are
        # ints, so a column command moved to bus_free - delay ends no
        # earlier than bus_free.
        nonlocal bus_free, last_refresh
        if earliest - last_refresh >= tREFI:
            last_refresh = earliest
            resume = earliest + tRFC
            for b in range(num_banks):
                b_open[b] = None
                if b_act[b] < resume:
                    b_act[b] = resume
            cycle = resume
        else:
            cycle = earliest
        rank = bank_rank[fb]
        group = bank_group[fb]
        open_row = b_open[fb]
        if open_row != row:
            if open_row is not None:
                pre = b_pre[fb]
                cycle = (cycle if cycle > pre else pre) + tRP
            act = b_act[fb]
            if cycle > act:
                act = cycle
            v = r_act_any[rank]
            if v > act:
                act = v
            v = r_act_g[group]
            if v > act:
                act = v
            window = r_faw[rank]
            v = window.pop(0) + tFAW
            if v > act:
                act = v
            window.append(act)
            b_open[fb] = row
            b_act[fb] = act + tRC
            v = act + tRAS
            if v > b_pre[fb]:
                b_pre[fb] = v
            r_act_any[rank] = act + tRRD_S
            r_act_g[group] = act + tRRD_L
            col = b_col[fb] = act + tRCD
        else:
            col = b_col[fb]
            if cycle > col:
                col = cycle
        v = r_col_any[rank]
        if v > col:
            col = v
        v = r_col_g[group]
        if v > col:
            col = v
        if is_read:
            v = r_raw[rank]
            if v > col:
                col = v
            if col + tCL < bus_free:
                col = bus_free - tCL
            v = col + tRTP
            if v > b_pre[fb]:
                b_pre[fb] = v
            bus_free = col + tCL + burst_read
            done = bus_free + ms_read
        else:
            if col + tCWL < bus_free:
                col = bus_free - tCWL
            bus_free = col + tCWL + burst_write
            v = bus_free + tWR
            if v > b_pre[fb]:
                b_pre[fb] = v
            v = bus_free + tWTR_L
            if v > r_raw[rank]:
                r_raw[rank] = v
            done = bus_free + ms_write
        r_col_any[rank] = col + tCCD_S
        r_col_g[group] = col + tCCD_L
        return done

    def drain(cycle, target):
        nonlocal writes_served, wq
        batch = len(wq) - target
        if batch <= 0:
            return cycle
        # FR-FCFS over a static row-state snapshot == greedy repeated pick:
        # ordering happens before any request in the batch is served.  Row
        # hits go first; seq is unique, so no comparison reaches the address.
        ordered = []  # the row hits, then the misses appended below
        misses = []
        for e in wq:
            if b_open[e[3]] == e[4]:
                ordered.append(e)
            else:
                misses.append(e)
        ordered.sort()
        misses.sort()
        ordered += misses
        last = cycle
        for arrival, _, address, fb, row in ordered[:batch]:
            last = chan(fb, row, False, cycle if cycle >= arrival else arrival)
            count = wq_count[address] - 1
            if count:
                wq_count[address] = count
            else:
                del wq_count[address]
        writes_served += batch
        del ordered[:batch]
        wq = ordered
        return last

    def enq(address, fb, row, arrival):
        nonlocal cur_cycle, seq
        if arrival > cur_cycle:
            cur_cycle = arrival
        if len(wq) >= hi_mark:
            drained = drain(cur_cycle, lo_mark)
            if drained > cur_cycle:
                cur_cycle = drained
        wq.append((arrival, seq, address, fb, row))
        seq += 1
        wq_count[address] = wq_count.get(address, 0) + 1

    def meta_access(address, lines, set_index, tag, fb, row, leaf, cycle, dirty):
        # Flat replica of SecureMemorySystem._walk over Cache.access and
        # LRUPolicy, from a miss of the counter/MAC line in ``lines``, its
        # set: fill it, then look up one node per off-chip tree level until
        # the first cached (verified) one, all fetched in parallel.  The
        # callers take the counter line's hit themselves.  Returns the
        # completion.
        nonlocal cur_cycle, reads_served, forwarded_reads, total_read_latency
        nonlocal metadata_accesses, metadata_hits, metadata_reads, metadata_writebacks
        completion = cycle
        level = 0
        while True:
            victim_dirty = False
            if len(lines) == assoc:
                victim = next(iter(lines))
                victim_dirty = lines.pop(victim)
            lines[tag] = dirty
            metadata_reads += 1
            if tl_series is not None:
                # Same index the reference model stamps in
                # SecureMemorySystem._metadata_access: demand counters are
                # bumped before metadata expansion in both engines.
                tl_series.event("integrity_miss", demand_reads + demand_writes)
            # The fetch, as the controller serves a read.
            if cycle > cur_cycle:
                cur_cycle = cycle
            reads_served += 1
            if address in wq_count:
                forwarded_reads += 1
                v = cur_cycle
            else:
                v = chan(fb, row, True, cur_cycle)
                total_read_latency += v - cycle
            if v > completion:
                completion = v
            if victim_dirty:
                metadata_writebacks += 1
                writeback = (victim * num_sets + set_index) * 64
                wfb, wrow = dec(writeback)
                enq(writeback, wfb, wrow, cycle)
            if level == depth:
                return completion
            leaf //= tree_arity
            address = node_bases[level] + leaf * 64
            level += 1
            line = address >> 6
            set_index = line % num_sets
            tag = line // num_sets
            metadata_accesses += 1
            lines = cache_sets[set_index]
            v = lines.pop(tag, None)
            if v is not None:  # a clean line stores False
                lines[tag] = v or dirty
                metadata_hits += 1
                return completion
            fb, row = dec(address)

    def secure_read(address, fb, row, dram_float, m_address, m_set, m_tag, m_fb, m_row, m_leaf):
        # A demand read, or a prefetch target (m_address None): a target
        # derives its metadata line's set and tag here, and that line's DRAM
        # location and tree leaf only when it misses.
        nonlocal demand_reads, metadata_accesses, metadata_hits
        nonlocal cur_cycle, reads_served, forwarded_reads, total_read_latency
        demand_reads += 1
        cycle = int(dram_float)
        if with_meta:
            if m_address is None:
                meta_line = (address >> 6) // meta_per_line
                m_address = meta_base + meta_line * 64
                m_line = m_address >> 6
                m_set = m_line % num_sets
                m_tag = m_line // num_sets
            metadata_accesses += 1
            lines = cache_sets[m_set]
            v = lines.pop(m_tag, None)
            if v is not None:  # a clean line stores False
                lines[m_tag] = v
                metadata_hits += 1
                meta_completion = cycle
                extra = extra_hit
            else:
                if m_fb is None:
                    m_fb, m_row = dec(m_address)
                    m_leaf = meta_line if meta_line < leaf_limit else leaf_limit
                meta_completion = meta_access(
                    m_address, lines, m_set, m_tag, m_fb, m_row, m_leaf, cycle, False
                )
                extra = extra_miss
        else:
            meta_completion = cycle
            extra = extra_hit
        # The data read, as the controller serves it.
        if cycle > cur_cycle:
            cur_cycle = cycle
        reads_served += 1
        if address in wq_count:
            forwarded_reads += 1
            completion = cur_cycle
        else:
            completion = chan(fb, row, True, cur_cycle)
            total_read_latency += completion - cycle
        if meta_completion > completion:
            return meta_completion, extra
        return completion, extra

    def secure_write(address, fb, row, dram_float, m_address, m_set, m_tag, m_fb, m_row, m_leaf):
        nonlocal demand_writes, metadata_accesses, metadata_hits
        demand_writes += 1
        cycle = int(dram_float)
        if with_meta:
            metadata_accesses += 1
            lines = cache_sets[m_set]
            if lines.pop(m_tag, None) is not None:
                lines[m_tag] = True
                metadata_hits += 1
            else:
                meta_access(m_address, lines, m_set, m_tag, m_fb, m_row, m_leaf, cycle, True)
        enq(address, fb, row, cycle)

    # ------------------------------------------------------------------
    # Per-core trace state: chunk columns + CPU-side machine state
    # ------------------------------------------------------------------
    def _columnized(chunk_iter):
        # Normalize a (gaps, writes, addresses) chunk stream into the columns
        # the replay consumes: an int64 address array (still needed for
        # decode/cache-coordinate vector math), plain-list gap and issue-
        # delta columns, and the write flags the prefetch plan reads.  Empty
        # chunks are dropped here.
        for gaps_a, writes_a, addrs_a in chunk_iter:
            if not len(gaps_a):
                continue
            gaps_a = np.ascontiguousarray(gaps_a, dtype=np.int64)
            yield (
                np.ascontiguousarray(addrs_a, dtype=np.int64),
                gaps_a.tolist(),
                (gaps_a / issue_width).tolist(),
                writes_a,
            )

    if callable(getattr(trace, "iter_chunk_arrays", None)):
        # Chunked store traces: per-core offset views are lazy array adds,
        # and each core plans its prefetches chunk by chunk, keeping nothing.
        kept_plans = None

        def _offset_chunks(offset):
            return _columnized(trace.offset(offset).iter_chunk_arrays())
    else:
        # In-memory traces: columnize the kept chunk columns and share the
        # gap/write columns across cores -- only addresses differ per core
        # (a constant stride), so per-core TraceRecord copies are never
        # built -- and keep each core offset's prefetch plans with the trace.
        base_chunks = list(_columnized(trace.chunk_arrays))
        kept_plans = _PREFETCH_PLANS.setdefault(trace, {})

        def _offset_chunks(offset):
            for addrs_a, gap_list, gapdiv_list, writes_a in base_chunks:
                yield (addrs_a + offset) if offset else addrs_a, gap_list, gapdiv_list, writes_a

    # What each core last published for tl_sample and the results: its CPU
    # cycle, retired instructions, ROB/MSHR head, outstanding reads'
    # completions and instruction indices, and (once done) its read count
    # and summed read latency.
    core_cpu = [0.0] * num_cores
    core_instr = [0] * num_cores
    out_head = [0] * num_cores
    out_comp = [[] for _ in range(num_cores)]
    out_inst = [[] for _ in range(num_cores)]
    tallies = [(0, 0.0)] * num_cores

    # Chunk refills are the batch engine's unit of work; when tracing is on
    # each one becomes an "engine-chunk" span (child of the live "engine"
    # span via the tracer's thread-local stack).  The guard keeps the
    # traced-off replay loop free of any tracer work.
    observation = obs.current()
    tracer = observation.tracer

    # Timeline sampling mirrors System._sample_timeline value-for-value so
    # reference and batch window samples agree exactly; off it costs the
    # replay loop a single ``is not None`` test per access.
    timeline = observation.timeline
    tl_series = None
    tl_window = 0
    tl_steps = 0
    if timeline is not None:
        tl_series = timeline.series(
            workload=trace.name, configuration=spec.name, engine="batch"
        )
        tl_window = timeline.window

    def tl_sample():
        instructions = 0
        cycles = 0.0
        mshr = 0
        rob = 0
        for core in range(num_cores):
            instructions += core_instr[core]
            v = core_cpu[core]
            if v > cycles:
                cycles = v
            head = out_head[core]
            n = len(out_comp[core])
            mshr += n - head
            if head < n:
                rob += core_instr[core] - out_inst[core][head]
        depths = [0] * num_banks
        for e in wq:
            depths[e[3]] += 1
        tl_series.sample(
            tl_steps, instructions, cycles, demand_reads, demand_writes,
            metadata_accesses, metadata_hits, rob, mshr, depths,
        )

    def decode_chunk(addrs_a, targets_a):
        # A chunk's DRAM locations and metadata coordinates, then its
        # prefetch targets' DRAM locations, as plain lists.  A function of its
        # own so that its arrays die here, not in refill's suspended frame.
        decoded = mapping.decode_arrays(addrs_a)
        meta = ((),) * 6
        if with_meta:
            meta_line_a = (addrs_a >> 6) // meta_per_line
            maddr_a = meta_base + meta_line_a * 64
            mset_a, mtag_a = metadata_cache.index_and_tag_arrays(maddr_a)
            mdec = mapping.decode_arrays(maddr_a)
            meta = (
                maddr_a.tolist(), mset_a.tolist(), mtag_a.tolist(),
                mapping.flat_bank_arrays(mdec).tolist(), mdec.row.tolist(),
                # Tree leaves; all 0 (and unread) without a tree.
                np.minimum(meta_line_a, leaf_limit).tolist(),
            )
        tdec = mapping.decode_arrays(targets_a)
        return (
            mapping.flat_bank_arrays(decoded).tolist(), decoded.row.tolist(),
        ) + meta + (
            mapping.flat_bank_arrays(tdec).tolist(), tdec.row.tolist(),
        )

    def refill(c):
        # Core c's chunks as the replay's 15 columns, one chunk per next().
        # The prefetch plan has one entry per record: None for a write, -1
        # for a read an earlier prefetch covers, and k >= 0 for a read that
        # first issues the chunk's next k prefetch targets.  It is
        # StreamPrefetcher's covers() then observe_miss() on each read, whose
        # state (outstanding targets, last line, streak) carries across
        # chunks.  It depends on the core's read addresses alone, so an
        # in-memory trace keeps it per core offset across runs (line 0 starts
        # a streak only at offset 0, where the last line starts at -1).
        offset = c * stride
        key = offset if prefetch_enabled else None
        plans = kept_plans.get(key) if kept_plans is not None else None
        # The plans this run builds, when the trace keeps them.
        built = [] if plans is None and kept_plans is not None else None
        outstanding = set()
        last_line = -1
        streak = 0
        chunk_start = tracer.now() if tracer is not None else 0.0
        for index, (addrs_a, gap_list, gapdiv_list, writes_a) in enumerate(_offset_chunks(offset)):
            addrs = addrs_a.tolist()
            if plans is not None:
                plan, targets_a = plans[index]
                targets = targets_a.tolist()
            else:
                targets = []
                if prefetch_enabled:
                    plan = []
                    for address, write in zip(addrs, writes_a.tolist()):
                        if write:
                            plan.append(None)
                            continue
                        line = address >> 6
                        if line << 6 in outstanding:
                            outstanding.discard(line << 6)
                            plan.append(-1)
                            continue
                        streak = streak + 1 if line == last_line + 1 else 0
                        last_line = line
                        issued = 0
                        if streak >= pf_threshold:
                            for ahead in range(1, pf_degree + 1):
                                target = (line + ahead) << 6
                                if target not in outstanding:
                                    if len(outstanding) >= pf_max:
                                        outstanding.clear()
                                    outstanding.add(target)
                                    targets.append(target)
                                    issued += 1
                        plan.append(issued)
                else:
                    plan = [None if write else 0 for write in writes_a.tolist()]
                targets_a = np.array(targets, dtype=np.int64)
                if built is not None:
                    built.append((plan, targets_a))
            columns = (gap_list, gapdiv_list, plan, addrs, targets) + decode_chunk(addrs_a, targets_a)
            if tracer is not None:
                tracer.record(
                    "engine-chunk", chunk_start, tracer.now() - chunk_start,
                    attrs={"core": c, "accesses": len(gap_list)},
                )
            yield columns
            chunk_start = tracer.now() if tracer is not None else 0.0
        if built is not None:
            kept_plans[key] = built

    def advance(c):
        # Core c's replay, its state in this frame.  Each send((limit,
        # tie_ok)) steps the core at least once, and on while its next issue
        # cycle is below ``limit``, the earliest other core's, or equal to it
        # when ``tie_ok``: then c precedes every core issuing at ``limit`` in
        # ``active``, and System.run()'s first-index-wins argmin would pick c
        # each time.  Other cores' issue cycles depend on their own state
        # only, so they hold while c runs.  Yields c's next issue cycle, or
        # None when its trace is done, after publishing what tl_sample reads.
        nonlocal tl_steps
        chunks = refill(c)
        columns = next(chunks, None)
        if columns is None:
            yield None
            return
        (gaps, gapdivs, plan, addrs, targets, fbs, rows,
         maddrs, msets, mtags, mfbs, mrows, mleafs, tfbs, trows) = columns
        i = 0
        t = 0
        n = len(gaps)
        issue = gapdivs[0]
        j = 0
        instr = 0
        head = 0
        comp = out_comp[c]
        inst = out_inst[c]
        reads = 0
        lat = 0.0
        limit, tie_ok = yield issue
        while True:
            instr += gaps[i]
            k = plan[i]
            if k is None:
                if with_meta:
                    secure_write(
                        addrs[i], fbs[i], rows[i], issue / ratio,
                        maddrs[i], msets[i], mtags[i], mfbs[i], mrows[i], mleafs[i],
                    )
                else:
                    secure_write(addrs[i], fbs[i], rows[i], issue / ratio, 0, 0, 0, 0, 0, 0)
            else:
                if j > 1024:
                    del comp[:j]
                    del inst[:j]
                    j = 0
                head = j
                issue_dram = (issue + onchip) / ratio
                if k < 0:
                    # An earlier prefetch brought the line on chip.
                    completion_dram = issue_dram
                    extra = 0.0
                else:
                    # Prefetches consume bandwidth, but nobody waits on them.
                    while k:
                        secure_read(
                            targets[t], tfbs[t], trows[t], issue_dram, None, 0, 0, None, 0, 0
                        )
                        t += 1
                        k -= 1
                    if with_meta:
                        completion_dram, extra = secure_read(
                            addrs[i], fbs[i], rows[i], issue_dram,
                            maddrs[i], msets[i], mtags[i], mfbs[i], mrows[i], mleafs[i],
                        )
                    else:
                        completion_dram, extra = secure_read(
                            addrs[i], fbs[i], rows[i], issue_dram, 0, 0, 0, 0, 0, 0
                        )
                completion_cpu = completion_dram * ratio + onchip + extra
                comp.append(completion_cpu)
                inst.append(instr)
                reads += 1
                lat += completion_cpu - issue
            cpu = issue
            i += 1
            if tl_series is not None:
                tl_steps += 1
                if tl_steps % tl_window == 0:
                    core_cpu[c] = cpu
                    core_instr[c] = instr
                    out_head[c] = head
                    tl_sample()
            if i == n:
                columns = next(chunks, None)
                if columns is None:
                    break
                (gaps, gapdivs, plan, addrs, targets, fbs, rows,
                 maddrs, msets, mtags, mfbs, mrows, mleafs, tfbs, trows) = columns
                i = 0
                t = 0
                n = len(gaps)
            # Core.next_issue_cycle(): a read also waits for the ROB and
            # MSHR entries it needs, oldest first.
            issue = cpu + gapdivs[i]
            if plan[i] is not None:
                j = head
                m = len(comp)
                index = instr + gaps[i]
                while j < m and index - inst[j] > rob_entries:
                    v = comp[j]
                    if v > issue:
                        issue = v
                    j += 1
                while m - j >= mshr_entries:
                    v = comp[j]
                    if v > issue:
                        issue = v
                    j += 1
            if issue > limit or (issue == limit and not tie_ok):
                core_cpu[c] = cpu
                core_instr[c] = instr
                out_head[c] = head
                limit, tie_ok = yield issue
        core_cpu[c] = cpu
        core_instr[c] = instr
        out_head[c] = head
        tallies[c] = (reads, lat)
        yield None

    cores = [advance(c) for c in range(num_cores)]
    core_next = [next(core) for core in cores]
    active = [c for c in range(num_cores) if core_next[c] is not None]
    no_limit = float("inf")
    while active:
        # First-index-wins argmin over the pending issue cycles, as in
        # System.run(), plus the earliest other core's cycle and position.
        pos = 0
        best = core_next[active[0]]
        limit = no_limit
        other = -1
        for k in range(1, len(active)):
            v = core_next[active[k]]
            if v < best:
                limit = best
                other = pos
                best = v
                pos = k
            elif v < limit:
                limit = v
                other = k
        c = active[pos]
        issue = cores[c].send((limit, other > pos))
        if issue is None:
            del active[pos]
        else:
            core_next[c] = issue

    # ------------------------------------------------------------------
    # End of simulation: count the metadata flush and the final drain
    # ------------------------------------------------------------------
    # The reference enqueues each dirty line (a line's value is its dirty bool) and
    # drains the queue; each write is served once, and only that count reaches the result.
    writes_served += len(wq) + sum(sum(lines.values()) for lines in cache_sets)

    # ------------------------------------------------------------------
    # Assemble results exactly as SystemResult / collect_stats do
    # ------------------------------------------------------------------
    ipcs = []
    finals = []
    for c in range(num_cores):
        final_cycle = core_cpu[c]
        comp = out_comp[c]
        if out_head[c] < len(comp):
            tail_max = max(comp[out_head[c]:])
            if tail_max > final_cycle:
                final_cycle = tail_max
        if final_cycle < 1.0:
            final_cycle = 1.0
        finals.append(final_cycle)
        ipcs.append(core_instr[c] / final_cycle if final_cycle > 0 else 0.0)
    total_instructions = sum(core_instr)
    total_reads = sum(reads for reads, _ in tallies)
    total_latency = sum(lat for _, lat in tallies)
    average_read_latency = total_latency / total_reads if total_reads else 0.0

    stats = {
        "config": 0.0,
        "demand_reads": float(demand_reads),
        "demand_writes": float(demand_writes),
        "metadata_reads": float(metadata_reads),
        "metadata_writebacks": float(metadata_writebacks),
        "metadata_accesses": float(metadata_accesses),
        "metadata_hits": float(metadata_hits),
        "metadata_miss_rate": (
            0.0 if metadata_accesses == 0 else 1.0 - metadata_hits / metadata_accesses
        ),
        "metadata_cache_hit_rate": (
            metadata_hits / metadata_accesses if metadata_accesses else 0.0
        ),
        "controller_reads": float(reads_served),
        "controller_writes": float(writes_served),
        "controller_avg_read_latency": (
            total_read_latency / reads_served if reads_served else 0.0
        ),
        "forwarded_reads": float(forwarded_reads),
    }
    if total_instructions:
        per_kilo = 1000.0 / total_instructions
        stats["metadata_mpki"] = (metadata_accesses - metadata_hits) * per_kilo

    return SimulationResult(
        workload=trace.name,
        configuration=spec.name,
        total_ipc=sum(ipcs),
        total_instructions=total_instructions,
        total_cycles=max(finals, default=0.0),
        average_read_latency_cycles=average_read_latency,
        memory_stats=stats,
    )


ENGINES.register(ReferenceEngine())
ENGINES.register(BatchEngine())
