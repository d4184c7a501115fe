"""Simulation engines: interchangeable executors for one (workload, config) run.

The reference engine advances the cycle-level object model one access at a
time (:mod:`repro.cpu.core` -> :mod:`repro.secure.base` -> :mod:`repro.dram`).
The batch engine consumes whole trace chunks as numpy arrays -- vectorized
DRAM address decode (:meth:`repro.dram.address_mapping.AddressMapping.decode_arrays`),
metadata-cache coordinates as array probes
(:meth:`repro.cache.metadata_cache.MetadataCache.index_and_tag_arrays`) and
secure-mechanism overhead columns precomputed per chunk -- then replays the
flattened state machine without allocating a single per-access object.

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
    :class:`~repro.sim.results.SimulationResult`.
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
# Batch engine: chunk-array precompute + flat replay loop
# ---------------------------------------------------------------------------
_MODE_PLAIN = 0  # no metadata traffic; constant critical-path latency
_MODE_META = 1  # one metadata-line access per access, no tree
_MODE_WALK = 2  # metadata line + integrity-tree walk on a miss


class BatchEngine(Engine):
    """Vectorized chunk-at-a-time engine with exact reference parity.

    Per chunk, everything stateless is precomputed as numpy columns: issue
    deltas (``gap / issue_width``), DRAM coordinates for data and metadata
    addresses, metadata-cache set/tag pairs and integrity-tree leaf indices.
    A single flat Python loop then replays the stateful parts (ROB/MSHR
    stalls, LRU metadata cache, FR-FCFS write drains, DDR bank/rank/bus
    constraints) with plain ints, lists and dicts -- no ``MemoryRequest`` or
    ``DecodedAddress`` objects, no deque copies for issue previews.
    """

    name = "batch"
    vectorized = True
    description = "Chunk-array precompute + flat replay loop (exact parity)"

    def simulate(self, trace, spec, experiment):
        return _simulate_batch(trace, spec, experiment)


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


def _simulate_batch(trace, spec, experiment):
    """Run one simulation on the batch engine (see :class:`BatchEngine`)."""
    from repro.cache.prefetcher import StreamPrefetcher
    from repro.cpu.core import CoreConfig
    from repro.cpu.system import SystemConfig
    from repro.secure.configs import build_configuration
    from repro.sim.results import SimulationResult
    from repro.traces.streaming import iter_memory_trace_chunks

    # The same system the reference engine builds; its description and its
    # controller / metadata-cache geometry drive the replay below.
    memory = build_configuration(spec, metadata_cache_bytes=experiment.metadata_cache_bytes)
    reason = _batch_unsupported(memory)
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
    tree = path.tree
    if meta_base is None:
        mode = _MODE_PLAIN
    else:
        mode = _MODE_META if tree is None else _MODE_WALK
    controller_config = memory.controller.config
    mapping = memory.controller.mapping
    timing = controller_config.timing
    metadata_cache = memory.metadata_cache
    num_sets = metadata_cache.config.num_sets
    assoc = metadata_cache.config.associativity

    core_config = CoreConfig(
        issue_width=experiment.issue_width,
        rob_entries=experiment.rob_entries,
        mshr_entries=experiment.mshr_entries,
        cpu_freq_mhz=experiment.cpu_freq_mhz,
        dram_freq_mhz=spec.timing.freq_mhz,
    )
    system_config = SystemConfig(
        num_cores=experiment.num_cores,
        core=core_config,
        enable_prefetcher=experiment.enable_prefetcher,
    )
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
        row = bits & row_mask
        return (rank * num_bg + group) * num_bpg + bank, group, rank, row

    # Integrity-tree levels: (first-node address, is-root) per level.
    tree_levels = ()
    tree_arity = 1
    leaf_limit = 0
    if tree is not None:
        sizes = tree.geometry.level_sizes
        tree_arity = tree.geometry.arity
        leaf_limit = tree.geometry.leaf_lines - 1
        tree_levels = tuple(
            (0, True) if sizes[level - 1] == 1 else (tree.node_address(level, 0), False)
            for level in range(1, len(sizes) + 1)
        )

    # ------------------------------------------------------------------
    # Flat DRAM / controller / cache state
    # ------------------------------------------------------------------
    b_open = [None] * num_banks
    b_act = [0] * num_banks
    b_pre = [0] * num_banks
    b_rd = [0] * num_banks
    b_wr = [0] * num_banks
    r_act_any = [0] * num_ranks
    r_act_g = [0] * (num_ranks * num_bg)
    r_col_any = [0] * num_ranks
    r_col_g = [0] * (num_ranks * num_bg)
    r_raw = [0] * num_ranks
    r_hist = [[] for _ in range(num_ranks)]
    bus_free = 0
    last_refresh = 0
    cur_cycle = 0
    wq = []  # (address, arrival, seq, flat_bank, bank_group, rank, row)
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
    # set_index -> [tags, dirtys, lru_ways, tag_to_way]
    cache_sets = {}

    def chan(fb, group, rank, row, is_read, earliest):
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
        rbase = rank * num_bg + group
        open_row = b_open[fb]
        if open_row != row:
            if open_row is not None:
                pre = b_pre[fb]
                if cycle > pre:
                    pre = cycle
                b_open[fb] = None
                v = pre + tRP
                if v > b_act[fb]:
                    b_act[fb] = v
                cycle = pre
            act = cycle
            v = r_act_any[rank]
            if v > act:
                act = v
            v = r_act_g[rbase]
            if v > act:
                act = v
            hist = r_hist[rank]
            if len(hist) == 4:
                v = hist[0] + tFAW
                if v > act:
                    act = v
                del hist[0]
            v = b_act[fb]
            if v > act:
                act = v
            b_open[fb] = row
            v = act + tRCD
            if v > b_rd[fb]:
                b_rd[fb] = v
            if v > b_wr[fb]:
                b_wr[fb] = v
            v = act + tRAS
            if v > b_pre[fb]:
                b_pre[fb] = v
            v = act + tRC
            if v > b_act[fb]:
                b_act[fb] = v
            v = act + tRRD_S
            if v > r_act_any[rank]:
                r_act_any[rank] = v
            v = act + tRRD_L
            if v > r_act_g[rbase]:
                r_act_g[rbase] = v
            hist.append(act)
            cycle = act
        if is_read:
            col = b_rd[fb]
            if cycle > col:
                col = cycle
            v = r_col_any[rank]
            if v > col:
                col = v
            v = r_col_g[rbase]
            if v > col:
                col = v
            v = r_raw[rank]
            if v > col:
                col = v
            delay = tCL
            burst = burst_read
        else:
            col = b_wr[fb]
            if cycle > col:
                col = cycle
            v = r_col_any[rank]
            if v > col:
                col = v
            v = r_col_g[rbase]
            if v > col:
                col = v
            delay = tCWL
            burst = burst_write
        if col + delay < bus_free:
            col = bus_free - delay
        if is_read:
            v = col + tRTP
            if v > b_pre[fb]:
                b_pre[fb] = v
        else:
            v = col + tCWL + burst + tWR
            if v > b_pre[fb]:
                b_pre[fb] = v
            v = col + tCWL + burst + tWTR_L
            if v > r_raw[rank]:
                r_raw[rank] = v
        v = col + tCCD_S
        if v > r_col_any[rank]:
            r_col_any[rank] = v
        v = col + tCCD_L
        if v > r_col_g[rbase]:
            r_col_g[rbase] = v
        data_end = col + delay + burst
        if data_end > bus_free:
            bus_free = data_end
        if is_read:
            return data_end + ms_read
        return data_end + ms_write

    def drain(cycle, target):
        nonlocal writes_served
        if len(wq) <= target:
            return cycle
        batch = len(wq) - target
        # FR-FCFS over a static row-state snapshot == greedy repeated pick:
        # ordering happens before any request in the batch is served.
        ordered = sorted(
            wq,
            key=lambda e: (0 if b_open[e[3]] == e[6] else 1, e[1], e[2]),
        )
        last = cycle
        served = ordered[:batch]
        for e in served:
            arrival = e[1]
            last = chan(e[3], e[4], e[5], e[6], False, cycle if cycle >= arrival else arrival)
            writes_served += 1
            address = e[0]
            count = wq_count[address] - 1
            if count:
                wq_count[address] = count
            else:
                del wq_count[address]
        if target == 0:
            wq.clear()
        else:
            dropped = {e[2] for e in served}
            wq[:] = [e for e in wq if e[2] not in dropped]
        return last

    def enq(address, fb, group, rank, row, arrival):
        nonlocal cur_cycle, seq
        if arrival > cur_cycle:
            cur_cycle = arrival
        if len(wq) >= hi_mark:
            drained = drain(cur_cycle, lo_mark)
            if drained > cur_cycle:
                cur_cycle = drained
        wq.append((address, arrival, seq, fb, group, rank, row))
        seq += 1
        wq_count[address] = wq_count.get(address, 0) + 1

    def serve_read(address, fb, group, rank, row, arrival):
        nonlocal cur_cycle, reads_served, forwarded_reads, total_read_latency
        if arrival > cur_cycle:
            cur_cycle = arrival
        if address in wq_count:
            forwarded_reads += 1
            reads_served += 1
            return cur_cycle
        completion = chan(fb, group, rank, row, True, cur_cycle)
        reads_served += 1
        total_read_latency += completion - arrival
        return completion

    def cache_access(set_index, tag, dirty):
        # Flat replica of Cache.access + LRUPolicy: returns (hit, writeback).
        entry = cache_sets.get(set_index)
        if entry is None:
            entry = cache_sets[set_index] = (
                [None] * assoc,
                [False] * assoc,
                [],
                {},
            )
        tags, dirtys, lru, tag_to_way = entry
        way = tag_to_way.get(tag)
        if way is not None:
            lru.remove(way)
            lru.append(way)
            if dirty:
                dirtys[way] = True
            return True, None
        if len(tag_to_way) < assoc:
            victim = tags.index(None)
        else:
            victim = lru[0]
        writeback = None
        victim_tag = tags[victim]
        if victim_tag is not None:
            if dirtys[victim]:
                writeback = (victim_tag * num_sets + set_index) * 64
            del tag_to_way[victim_tag]
            lru.remove(victim)
        tags[victim] = tag
        dirtys[victim] = dirty
        tag_to_way[tag] = victim
        lru.append(victim)
        return False, writeback

    def meta_access(address, set_index, tag, fb, group, rank, row, cycle, dirty):
        nonlocal metadata_accesses, metadata_hits, metadata_reads, metadata_writebacks
        metadata_accesses += 1
        hit, writeback = cache_access(set_index, tag, dirty)
        completion = cycle
        if hit:
            metadata_hits += 1
        else:
            metadata_reads += 1
            if tl_series is not None:
                # Same index the reference model stamps in
                # SecureMemorySystem._metadata_access: demand counters are
                # bumped before metadata expansion in both engines.
                tl_series.event("integrity_miss", demand_reads + demand_writes)
            completion = serve_read(address, fb, group, rank, row, cycle)
        if writeback is not None:
            metadata_writebacks += 1
            wfb, wg, wr, wrow = dec(writeback)
            enq(writeback, wfb, wg, wr, wrow, cycle)
        return hit, completion

    def walk(address, set_index, tag, fb, group, rank, row, leaf, cycle, dirty):
        # Counter/MAC line access plus tree path until the first cached node.
        hit0, completion = meta_access(
            address, set_index, tag, fb, group, rank, row, cycle, dirty
        )
        if completion < cycle:
            completion = cycle
        if not hit0:
            index = leaf
            for level_base, is_root in tree_levels:
                index //= tree_arity
                if is_root:
                    break
                node = level_base + index * 64
                node_line = node >> 6
                nfb, ng, nr, nrow = dec(node)
                nhit, ncomp = meta_access(
                    node,
                    node_line % num_sets,
                    node_line // num_sets,
                    nfb,
                    ng,
                    nr,
                    nrow,
                    cycle,
                    dirty,
                )
                if ncomp > completion:
                    completion = ncomp
                if nhit:
                    break
        return hit0, completion

    def secure_read(address, fb, group, rank, row, dram_float, m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, m_leaf):
        nonlocal demand_reads
        demand_reads += 1
        cycle = int(dram_float)
        if mode == _MODE_PLAIN:
            meta_completion = cycle
            extra = extra_hit
        elif mode == _MODE_META:
            hit, meta_completion = meta_access(
                m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, cycle, False
            )
            extra = extra_hit if hit else extra_miss
        else:
            hit, meta_completion = walk(
                m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, m_leaf, cycle, False
            )
            extra = extra_hit if hit else extra_miss
        data_completion = serve_read(address, fb, group, rank, row, cycle)
        if meta_completion > data_completion:
            return meta_completion, extra
        return data_completion, extra

    def secure_read_dyn(address, dram_float):
        # Prefetch-generated address: scalar column computation.
        fb, group, rank, row = dec(address)
        if mode == _MODE_PLAIN:
            return secure_read(address, fb, group, rank, row, dram_float, 0, 0, 0, 0, 0, 0, 0, 0)
        meta_line = (address >> 6) // meta_per_line
        m_address = meta_base + meta_line * 64
        m_line = m_address >> 6
        m_fb, m_g, m_r, m_row = dec(m_address)
        m_leaf = meta_line if meta_line < leaf_limit else leaf_limit
        return secure_read(
            address, fb, group, rank, row, dram_float,
            m_address, m_line % num_sets, m_line // num_sets,
            m_fb, m_g, m_r, m_row, m_leaf,
        )

    def secure_write(address, fb, group, rank, row, dram_float, m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, m_leaf):
        nonlocal demand_writes
        demand_writes += 1
        cycle = int(dram_float)
        if mode == _MODE_META:
            meta_access(m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, cycle, True)
        elif mode == _MODE_WALK:
            walk(m_address, m_set, m_tag, m_fb, m_g, m_r, m_row, m_leaf, cycle, True)
        enq(address, fb, group, rank, row, cycle)

    # ------------------------------------------------------------------
    # Per-core trace state: chunk columns + CPU-side machine state
    # ------------------------------------------------------------------
    with_meta = mode != _MODE_PLAIN

    def _columnized(chunk_iter):
        # Normalize a (gaps, writes, addresses) chunk stream into the columns
        # the replay loop consumes: an int64 address array (still needed for
        # decode/cache-coordinate vector math) plus plain-list gap / issue-
        # delta / write columns.  Empty chunks are dropped here.
        for gaps_a, writes_a, addrs_a in chunk_iter:
            if not len(gaps_a):
                continue
            gaps_a = np.ascontiguousarray(gaps_a, dtype=np.int64)
            yield (
                np.ascontiguousarray(addrs_a, dtype=np.int64),
                gaps_a.tolist(),
                (gaps_a / issue_width).tolist(),
                writes_a.tolist(),
            )

    core_chunks = []
    if callable(getattr(trace, "iter_chunk_arrays", None)):
        # Chunked store traces: per-core offset views are lazy array adds.
        for core_id in range(num_cores):
            view = trace.offset(core_id * stride)
            core_chunks.append(_columnized(view.iter_chunk_arrays()))
    else:
        # In-memory traces: columnize the record list once and share the
        # gap/write columns across cores -- only addresses differ per core
        # (a constant stride), so per-core TraceRecord copies are never built.
        base_chunks = list(_columnized(iter_memory_trace_chunks(trace)))

        def _offset_chunks(offset):
            for addrs_a, gap_list, gapdiv_list, write_list in base_chunks:
                yield (
                    (addrs_a + offset) if offset else addrs_a,
                    gap_list,
                    gapdiv_list,
                    write_list,
                )

        for core_id in range(num_cores):
            core_chunks.append(_offset_chunks(core_id * stride))

    empty = [0] * 0
    n_slots = num_cores
    col_gap = [empty] * n_slots
    col_gapdiv = [empty] * n_slots
    col_write = [empty] * n_slots
    col_addr = [empty] * n_slots
    col_line = [empty] * n_slots
    col_fb = [empty] * n_slots
    col_bg = [empty] * n_slots
    col_rk = [empty] * n_slots
    col_row = [empty] * n_slots
    col_maddr = [empty] * n_slots
    col_mset = [empty] * n_slots
    col_mtag = [empty] * n_slots
    col_mfb = [empty] * n_slots
    col_mbg = [empty] * n_slots
    col_mrk = [empty] * n_slots
    col_mrow = [empty] * n_slots
    col_mleaf = [empty] * n_slots
    core_idx = [0] * n_slots
    core_len = [0] * n_slots
    core_cpu = [0.0] * n_slots
    core_instr = [0] * n_slots
    core_reads = [0] * n_slots
    core_writes = [0] * n_slots
    core_lat = [0.0] * n_slots
    out_comp = [[] for _ in range(n_slots)]
    out_inst = [[] for _ in range(n_slots)]
    out_head = [0] * n_slots
    pf_last = [-1] * n_slots
    pf_streak = [0] * n_slots
    pf_sets = [set() for _ in range(n_slots)]

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

    def refill(c):
        chunk_start = tracer.now() if tracer is not None else 0.0
        try:
            addrs_a, gap_list, gapdiv_list, write_list = next(core_chunks[c])
        except StopIteration:
            return False
        col_gap[c] = gap_list
        col_gapdiv[c] = gapdiv_list
        col_write[c] = write_list
        col_addr[c] = addrs_a.tolist()
        lines_a = addrs_a >> 6
        col_line[c] = lines_a.tolist()
        decoded = mapping.decode_arrays(addrs_a)
        col_fb[c] = mapping.flat_bank_arrays(decoded).tolist()
        col_bg[c] = decoded.bank_group.tolist()
        col_rk[c] = decoded.rank.tolist()
        col_row[c] = decoded.row.tolist()
        if with_meta:
            meta_line_a = lines_a // meta_per_line
            maddr_a = meta_base + meta_line_a * 64
            mset_a, mtag_a = metadata_cache.index_and_tag_arrays(maddr_a)
            mdec = mapping.decode_arrays(maddr_a)
            col_maddr[c] = maddr_a.tolist()
            col_mset[c] = mset_a.tolist()
            col_mtag[c] = mtag_a.tolist()
            col_mfb[c] = mapping.flat_bank_arrays(mdec).tolist()
            col_mbg[c] = mdec.bank_group.tolist()
            col_mrk[c] = mdec.rank.tolist()
            col_mrow[c] = mdec.row.tolist()
            if mode == _MODE_WALK:
                col_mleaf[c] = np.minimum(meta_line_a, leaf_limit).tolist()
        core_idx[c] = 0
        core_len[c] = len(col_gap[c])
        if tracer is not None:
            tracer.record(
                "engine-chunk", chunk_start, tracer.now() - chunk_start,
                attrs={"core": c, "accesses": core_len[c]},
            )
        return True

    def preview(c):
        # Cached equivalent of Core.next_issue_cycle(): core-local state only,
        # so it stays valid until this core is stepped again.
        if core_idx[c] >= core_len[c]:
            if not refill(c):
                return None
        i = core_idx[c]
        issue = core_cpu[c] + col_gapdiv[c][i]
        if not col_write[c][i]:
            comp = out_comp[c]
            inst = out_inst[c]
            j = out_head[c]
            n = len(comp)
            inst_index = core_instr[c] + col_gap[c][i]
            while j < n and inst_index - inst[j] > rob_entries:
                v = comp[j]
                if v > issue:
                    issue = v
                j += 1
            while n - j >= mshr_entries:
                v = comp[j]
                if v > issue:
                    issue = v
                j += 1
        return issue

    active = []
    next_issue = []
    for c in range(num_cores):
        cycle = preview(c)
        if cycle is not None:
            active.append(c)
            next_issue.append(cycle)

    while active:
        # argmin with first-index-wins ties, matching System.run().
        pos = 0
        best = next_issue[0]
        for k in range(1, len(next_issue)):
            v = next_issue[k]
            if v < best:
                best = v
                pos = k
        c = active[pos]
        i = core_idx[c]
        gap = col_gap[c][i]
        inst_index = core_instr[c] + gap
        issue = core_cpu[c] + col_gapdiv[c][i]
        if col_write[c][i]:
            if with_meta:
                secure_write(
                    col_addr[c][i], col_fb[c][i], col_bg[c][i], col_rk[c][i],
                    col_row[c][i], issue / ratio,
                    col_maddr[c][i], col_mset[c][i], col_mtag[c][i],
                    col_mfb[c][i], col_mbg[c][i], col_mrk[c][i], col_mrow[c][i],
                    col_mleaf[c][i] if mode == _MODE_WALK else 0,
                )
            else:
                secure_write(
                    col_addr[c][i], col_fb[c][i], col_bg[c][i], col_rk[c][i],
                    col_row[c][i], issue / ratio, 0, 0, 0, 0, 0, 0, 0, 0,
                )
            core_writes[c] += 1
        else:
            comp = out_comp[c]
            inst = out_inst[c]
            j = out_head[c]
            n = len(comp)
            while j < n and inst_index - inst[j] > rob_entries:
                v = comp[j]
                if v > issue:
                    issue = v
                j += 1
            while n - j >= mshr_entries:
                v = comp[j]
                if v > issue:
                    issue = v
                j += 1
            if j > 1024:
                del comp[:j]
                del inst[:j]
                j = 0
            out_head[c] = j
            issue_dram = (issue + onchip) / ratio
            covered = False
            if prefetch_enabled:
                pf = pf_sets[c]
                line = col_line[c][i]
                line_address = line << 6
                if line_address in pf:
                    pf.discard(line_address)
                    completion_dram = issue_dram
                    extra = 0.0
                    covered = True
                else:
                    if line == pf_last[c] + 1:
                        pf_streak[c] += 1
                    else:
                        pf_streak[c] = 0
                    pf_last[c] = line
                    if pf_streak[c] >= pf_threshold:
                        for ahead in range(1, pf_degree + 1):
                            target = (line + ahead) << 6
                            if target not in pf:
                                if len(pf) >= pf_max:
                                    pf.clear()
                                pf.add(target)
                                secure_read_dyn(target, issue_dram)
            if not covered:
                if with_meta:
                    completion_dram, extra = secure_read(
                        col_addr[c][i], col_fb[c][i], col_bg[c][i], col_rk[c][i],
                        col_row[c][i], issue_dram,
                        col_maddr[c][i], col_mset[c][i], col_mtag[c][i],
                        col_mfb[c][i], col_mbg[c][i], col_mrk[c][i], col_mrow[c][i],
                        col_mleaf[c][i] if mode == _MODE_WALK else 0,
                    )
                else:
                    completion_dram, extra = secure_read(
                        col_addr[c][i], col_fb[c][i], col_bg[c][i], col_rk[c][i],
                        col_row[c][i], issue_dram, 0, 0, 0, 0, 0, 0, 0, 0,
                    )
            completion_cpu = completion_dram * ratio + onchip + extra
            out_comp[c].append(completion_cpu)
            out_inst[c].append(inst_index)
            core_reads[c] += 1
            core_lat[c] += completion_cpu - issue
        core_cpu[c] = issue
        core_instr[c] = inst_index
        core_idx[c] = i + 1
        if tl_series is not None:
            tl_steps += 1
            if tl_steps % tl_window == 0:
                tl_sample()
        cycle = preview(c)
        if cycle is None:
            del active[pos]
            del next_issue[pos]
        else:
            next_issue[pos] = cycle

    # ------------------------------------------------------------------
    # End of simulation: flush metadata cache + drain the write queue
    # ------------------------------------------------------------------
    flush_writebacks = []
    for set_index, entry in cache_sets.items():
        tags, dirtys = entry[0], entry[1]
        for way in range(assoc):
            if tags[way] is not None and dirtys[way]:
                dirtys[way] = False
                flush_writebacks.append((tags[way] * num_sets + set_index) * 64)
    for address in flush_writebacks:
        wfb, wg, wr, wrow = dec(address)
        enq(address, wfb, wg, wr, wrow, cur_cycle)
    drained = drain(cur_cycle, 0)
    if drained > cur_cycle:
        cur_cycle = drained

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
    total_reads = sum(core_reads)
    total_latency = sum(core_lat)
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
