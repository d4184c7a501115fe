"""Tests for the simulation-engine registry and the batch engine's parity.

The batch engine's whole value proposition is *exact* statistical parity
with the reference object model at a fraction of the cost, so the parity
tests here assert strict equality -- not ``approx`` -- over every registered
configuration, every mechanism under every encryption mode, and randomized
traces and DDR4/DDR5 mapping geometries.
"""

import json
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.metadata_cache import MetadataCache
from repro.cache.prefetcher import StreamPrefetcher
from repro.cli import main
from repro.controller.memory_controller import MemoryController
from repro.cpu.system import SystemConfig
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.dram.address_mapping import AddressMapping
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.errors import UnknownEngineError
from repro.secure.base import MetadataPath, SecureMemorySystem
from repro.secure.baseline import EncryptOnlySystem
from repro.secure.configs import (
    CONFIGURATIONS,
    REGISTRY,
    build_configuration,
    configuration_names,
    resolve_configuration,
)
from repro.secure.encryption import EncryptionMode
from repro.sim.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    BatchEngine,
    BatchEngineUnsupported,
    EngineRegistry,
    ReferenceEngine,
    _PREFETCH_PLANS,
    _batch_unsupported,
    engine_names,
    resolve_engine,
)
from repro.sim.experiment import ExperimentConfig, run_comparison, run_simulation
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob
from repro.traces import load_trace, save_trace, streaming
from repro.workloads import build_workload, workload_names

FAST = ExperimentConfig(num_accesses=200, num_cores=2)
#: Long enough to cross several refreshes and many write drains.
LONG = ExperimentConfig(num_accesses=1000, num_cores=4)


def _uncovered_mechanism_encryption_specs():
    """One derived spec per (mechanism, encryption mode) no registered spec uses."""
    covered = {(spec.mechanism, spec.encryption) for spec in CONFIGURATIONS.values()}
    specs = []
    for name in configuration_names():
        base = CONFIGURATIONS[name]
        for mode in EncryptionMode:
            if (base.mechanism, mode) not in covered:
                covered.add((base.mechanism, mode))
                specs.append(base.derive(encryption=mode))
    return specs


def random_trace(seed: int, accesses: int = 200, name: str = "random") -> MemoryTrace:
    """A seeded adversarial trace: bursts, locality runs, and strided scans."""
    rng = random.Random(seed)
    records = []
    page = rng.randrange(0, 1 << 30) & ~0xFFF
    for _ in range(accesses):
        roll = rng.random()
        if roll < 0.5:  # locality: stay on the current page
            address = page + rng.randrange(64) * 64
        elif roll < 0.8:  # strided scan
            page += 4096
            address = page
        else:  # far jump
            page = rng.randrange(0, 1 << 32) & ~0xFFF
            address = page + rng.randrange(64) * 64
        records.append(
            TraceRecord(
                instruction_gap=rng.choice((0, 0, 1, 3, 10, 40)),
                is_write=rng.random() < 0.3,
                address=address,
            )
        )
    return MemoryTrace("%s%d" % (name, seed), records)


def tie_heavy_trace(records: int = 300) -> MemoryTrace:
    """Constant instruction gaps and four writes in every five records, so the
    cores' next issue cycles tie at most steps."""
    return MemoryTrace("ties", [
        TraceRecord(instruction_gap=12, is_write=index % 5 != 0, address=index * 4160)
        for index in range(records)
    ])


def write_heavy_trace(seed: int, accesses: int = 400) -> MemoryTrace:
    """Four writes in five records over 256 MiB, far more lines than a 4 or
    32 KiB metadata cache holds, so the end of a run leaves many of them
    dirty."""
    rng = random.Random(seed)
    return MemoryTrace("writes%d" % seed, [
        TraceRecord(
            instruction_gap=rng.choice((0, 2, 8)),
            is_write=rng.random() < 0.8,
            address=rng.randrange(1 << 22) * 64,
        )
        for _ in range(accesses)
    ])


def assert_conserved(result):
    """Request conservation: every count a result reports adds up.

    Prefetch-issued reads count as demand reads; the end-of-run metadata
    flush adds controller writes beyond the demand writes and writebacks.
    """
    stats = result.memory_stats
    assert stats["metadata_hits"] <= stats["metadata_accesses"]
    assert stats["metadata_reads"] == stats["metadata_accesses"] - stats["metadata_hits"]
    assert stats["controller_reads"] == stats["demand_reads"] + stats["metadata_reads"]
    assert stats["forwarded_reads"] <= stats["controller_reads"]
    assert stats["controller_writes"] >= stats["demand_writes"] + stats["metadata_writebacks"]


def assert_identical(a, b):
    """Strict parity: every headline number and every stat, bit for bit,
    of two results that each conserve requests."""
    assert_conserved(a)
    assert_conserved(b)
    assert a.total_ipc == b.total_ipc
    assert a.total_cycles == b.total_cycles
    assert a.total_instructions == b.total_instructions
    assert a.average_read_latency_cycles == b.average_read_latency_cycles
    assert a.memory_stats == b.memory_stats


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ["reference", "batch"]
        assert "batch" in ENGINES
        assert "bogus" not in ENGINES
        assert len(ENGINES) == 2
        assert DEFAULT_ENGINE == "batch"

    def test_attributes(self):
        assert not ENGINES.get("reference").vectorized
        assert ENGINES.get("batch").vectorized

    def test_unknown_engine_closest_match(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            ENGINES.get("bacth")
        assert excinfo.value.suggestion == "batch"
        assert "closest match" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)

    def test_resolve_accepts_name_instance_and_none(self):
        assert isinstance(resolve_engine(None), BatchEngine)
        assert isinstance(resolve_engine("reference"), ReferenceEngine)
        custom = BatchEngine()
        assert resolve_engine(custom) is custom

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register(ReferenceEngine())
        with pytest.raises(ValueError):
            registry.register(ReferenceEngine())
        replacement = ReferenceEngine()
        assert registry.register(replacement, replace=True) is replacement

    def test_non_engine_rejected(self):
        with pytest.raises(TypeError):
            EngineRegistry().register("reference")


class TestCacheTokens:
    def test_parity_verified_engines_share_tokens(self):
        # Every engine must reproduce the reference bytes, so even an engine
        # that was never registered shares the default job's cache key.
        class CustomEngine(BatchEngine):
            name = "custom"

        default_key = SimulationJob("secddr_ctr", "mcf", FAST).cache_key()
        job = SimulationJob("secddr_ctr", "mcf", FAST, engine=CustomEngine())
        assert job.cache_key() == default_key

    def test_unknown_engine_rejected_when_the_job_is_made(self):
        # The key does not name the engine, so on a warm cache no job would
        # ever resolve a misspelled one.
        with pytest.raises(UnknownEngineError):
            SimulationJob("secddr_ctr", "mcf", FAST, engine="bacth")

    def test_jobs_share_cache_keys_across_parity_engines(self):
        jobs = [
            SimulationJob("secddr_ctr", "mcf", FAST, engine=engine)
            for engine in (None, "reference", "batch", BatchEngine())
        ]
        keys = {job.cache_key() for job in jobs}
        assert len(keys) == 1

    def test_golden_cache_key(self):
        # A refactor must not change cache keys silently: a change to the
        # simulated semantics bumps CACHE_SCHEMA_VERSION instead.
        job = SimulationJob("secddr_ctr", "mcf", ExperimentConfig())
        assert job.cache_key() == (
            "38eac593864bcf4213483d95755f91c5e9ef5dd8ff98fb0e90d942e4739a8370"
        )

    def test_batch_run_warms_the_reference_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        experiment = ExperimentConfig(num_accesses=120, num_cores=1)
        batch_job = SimulationJob("secddr_ctr", "gcc", experiment, engine="batch")
        reference_job = SimulationJob("secddr_ctr", "gcc", experiment, engine="reference")
        runner = ParallelRunner(jobs=1, cache=cache)
        (first,) = runner.run([batch_job])
        assert cache.misses == 1
        (second,) = runner.run([reference_job])
        assert cache.hits == 1  # served from the batch run's entry
        assert_identical(first, second)


class TestBatchParity:
    @pytest.mark.parametrize(
        "configuration",
        configuration_names()
        + [pytest.param(spec, id=spec.name) for spec in _uncovered_mechanism_encryption_specs()],
    )
    def test_every_registered_configuration(self, configuration):
        # Registered configurations, plus every mechanism under every
        # encryption mode (no registered configuration uses NONE).
        trace = random_trace(7)
        reference = run_simulation(trace, configuration, FAST, engine="reference")
        batch = run_simulation(trace, configuration, FAST, engine="batch")
        assert_identical(reference, batch)

    @pytest.mark.parametrize(
        "configuration, mode",
        [
            # SecDDR and InvisiMem build AES-XTS for any non-counter mode.
            ("secddr_xts", EncryptionMode.NONE),
            ("invisimem_realistic_xts", EncryptionMode.NONE),
            # The integrity trees fix their own encryption.
            ("integrity_tree_64", EncryptionMode.XTS),
            ("integrity_tree_8_hash", EncryptionMode.COUNTER),
        ],
    )
    def test_mechanisms_that_ignore_the_encryption_mode(self, configuration, mode):
        trace = random_trace(3)
        derived = resolve_configuration(configuration).derive(encryption=mode)
        assert_identical(run_simulation(trace, configuration, FAST),
                         run_simulation(trace, derived, FAST))

    @pytest.mark.parametrize("configuration", ["encrypt_only_xts", "tdx_baseline"])
    def test_no_encryption_adds_nothing(self, configuration):
        spec = resolve_configuration(configuration).derive(encryption=EncryptionMode.NONE)
        assert build_configuration(spec).path == MetadataPath()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("timing", [DDR4_2400, DDR4_3200, DDR5_4800])
    @pytest.mark.parametrize("base", ["secddr_ctr", "integrity_tree_64"])
    def test_random_traces_across_mapping_geometries(self, seed, timing, base):
        # DDR4 and DDR5 timings decode addresses into different bank-group
        # geometries; the batch engine's vectorized decode must agree with
        # the reference DecodedAddress path on all of them.
        spec = resolve_configuration(base).derive(timing=timing)
        trace = random_trace(seed)
        reference = run_simulation(trace, spec, FAST, engine="reference")
        batch = run_simulation(trace, spec, FAST, engine="batch")
        assert_identical(reference, batch)

    def test_parity_without_prefetcher_and_single_core(self):
        experiment = ExperimentConfig(
            num_accesses=200, num_cores=1, enable_prefetcher=False
        )
        trace = random_trace(11)
        for configuration in ("secddr_xts", "integrity_tree_8_hash"):
            reference = run_simulation(trace, configuration, experiment, engine="reference")
            batch = run_simulation(trace, configuration, experiment, engine="batch")
            assert_identical(reference, batch)

    @pytest.mark.parametrize(
        "configuration",
        [
            # One configuration per mechanism.
            "tdx_baseline",
            "encrypt_only_ctr",
            "secddr_ctr",
            "invisimem_realistic_xts",
            "integrity_tree_64",
            "integrity_tree_8_hash",
        ],
    )
    @pytest.mark.parametrize("workload", ["mcf", "lbm"])
    def test_parity_on_registry_workload(self, workload, configuration):
        reference = run_simulation(workload, configuration, LONG, engine="reference")
        batch = run_simulation(workload, configuration, LONG, engine="batch")
        assert_identical(reference, batch)
        # The run must cross refreshes and many 48 -> 16 write drains.
        timing = resolve_configuration(configuration).timing
        dram_cycles = reference.total_cycles * timing.freq_mhz / LONG.cpu_freq_mhz
        assert dram_cycles >= 3 * timing.tREFI
        assert reference.memory_stats["controller_writes"] >= 20 * 48

    @pytest.mark.parametrize("configuration", ["tdx_baseline", "secddr_ctr", "integrity_tree_64"])
    @pytest.mark.parametrize("prefetcher", [True, False])
    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_tied_issue_cycles_go_to_the_first_core(self, cores, prefetcher, configuration):
        # The batch engine runs one core ahead while it issues first; on a
        # tie the core earlier in System.run()'s order must win.
        trace = tie_heavy_trace()
        experiment = ExperimentConfig(
            num_accesses=len(trace), num_cores=cores, enable_prefetcher=prefetcher
        )
        reference = run_simulation(trace, configuration, experiment, engine="reference")
        batch = run_simulation(trace, configuration, experiment, engine="batch")
        assert_identical(reference, batch)

    @pytest.mark.parametrize(
        "configuration",
        ["tdx_baseline", "secddr_ctr", "integrity_tree_64", "integrity_tree_8",
         "invisimem_realistic_ctr"],
    )
    @pytest.mark.parametrize("workload", ["mcf", "lbm", "pr", "gcc"])
    def test_streamed_traces_refill_mid_run(self, tmp_path, workload, configuration):
        # Stores of 61-128 records per chunk make every core refill
        # many times, in the middle of the batch engine's runs.
        trace = build_workload(workload, num_accesses=800, seed=1)
        for cores, chunk_size in ((1, 61), (2, 97), (3, 128)):
            store = save_trace(trace, tmp_path / ("%d.trace" % chunk_size), chunk_size=chunk_size)
            streamed = load_trace(store.path)
            experiment = ExperimentConfig(num_accesses=len(trace), num_cores=cores)
            reference = run_simulation(streamed, configuration, experiment, engine="reference")
            batch = run_simulation(streamed, configuration, experiment, engine="batch")
            assert_identical(reference, batch)

    def test_unknown_engine_rejected(self):
        with pytest.raises(UnknownEngineError):
            run_simulation("mcf", "secddr_ctr", FAST, engine="warp")


class TestReferenceWork:
    @pytest.mark.parametrize(
        "configuration",
        ["tdx_baseline", "secddr_ctr", "integrity_tree_64", "invisimem_realistic_xts"],
    )
    @pytest.mark.parametrize(
        "workload", ["mcf", "lbm", "gcc", pytest.param(random_trace(7), id="forwarding")]
    )
    def test_each_accepted_request_is_decoded_once(self, monkeypatch, workload, configuration):
        # The controller decodes a write when it queues it and a read when
        # it sends it to DRAM; a read forwarded from the write queue is
        # never decoded.
        decode = AddressMapping.decode
        calls = 0

        def counting_decode(mapping, address):
            nonlocal calls
            calls += 1
            return decode(mapping, address)

        monkeypatch.setattr(AddressMapping, "decode", counting_decode)
        experiment = ExperimentConfig(num_accesses=400, num_cores=2)
        result = run_simulation(workload, configuration, experiment, engine="reference")
        stats = result.memory_stats
        assert stats["forwarded_reads"] > 0 or isinstance(workload, str)
        assert calls == (
            stats["controller_reads"] - stats["forwarded_reads"] + stats["controller_writes"]
        )


class TestEndOfRun:
    @pytest.mark.parametrize("configuration", ["integrity_tree_64", "integrity_tree_8_hash", "secddr_ctr"])
    @pytest.mark.parametrize("kib", [4, 32])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_flushed_metadata_and_final_drain_are_counted(
        self, monkeypatch, cores, kib, configuration
    ):
        # The batch engine counts the end-of-run metadata flush and final
        # drain instead of replaying them; controller_writes must still
        # match the reference, which replays both.
        drains = []
        finish = SecureMemorySystem.finish
        drain_writes = MemoryController._drain_writes

        def recording_finish(memory):
            controller = memory.controller

            def recording_drain(cycle, target):
                if controller.write_queue.occupancy > target:
                    drains.append(target)
                return drain_writes(controller, cycle, target)

            controller._drain_writes = recording_drain
            finish(memory)

        monkeypatch.setattr(SecureMemorySystem, "finish", recording_finish)
        trace = write_heavy_trace(5)
        experiment = ExperimentConfig(
            num_accesses=len(trace), num_cores=cores, metadata_cache_bytes=kib * 1024
        )
        reference = run_simulation(trace, configuration, experiment, engine="reference")
        batch = run_simulation(trace, configuration, experiment, engine="batch")
        assert_identical(reference, batch)
        # The flush fills the queue past its high watermark, so a watermark
        # drain (down to the low one) comes before the final drain.
        low = build_configuration(configuration).controller.config.write_drain_low_watermark
        assert drains[-1] == 0 and low in drains[:-1]


class TestTraceColumns:
    def test_each_in_memory_trace_is_columnized_once(self, monkeypatch):
        conversions = []
        convert = streaming.iter_memory_trace_chunks

        def counting_convert(trace, *args, **kwargs):
            conversions.append(trace)
            return convert(trace, *args, **kwargs)

        monkeypatch.setattr(streaming, "iter_memory_trace_chunks", counting_convert)
        trace = random_trace(5)
        for configuration in ("tdx_baseline", "secddr_ctr", "integrity_tree_64"):
            run_simulation(trace, configuration, FAST, engine="batch")
        assert conversions == [trace]
        kept = trace.chunk_arrays
        fresh = list(convert(trace))
        assert len(kept) == len(fresh)
        for kept_columns, fresh_columns in zip(kept, fresh):
            for a, b in zip(kept_columns, fresh_columns):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        shifted = trace.offset(4096).chunk_arrays
        assert shifted is not kept
        assert np.array_equal(shifted[0][2], kept[0][2] + 4096)


def stream_trace(records: int = 600) -> MemoryTrace:
    """An lbm-like stream: reads walk consecutive lines from line 0, and
    every third record writes back a line of another region."""
    stream = []
    line = 0
    for index in range(records):
        if index % 3 == 2:
            stream.append(TraceRecord(3, True, (1 << 28) + index * 64))
        else:
            stream.append(TraceRecord(3, False, line * 64))
            line += 1
    return MemoryTrace("stream", stream)


def engine_prefetch_plan(records, chunk_size):
    """The batch engine's prefetch plan for ``records`` on one core, in
    chunks of ``chunk_size``: each read's covered flag and issued targets."""
    trace = MemoryTrace("plan", records)
    trace.chunk_arrays = list(streaming.iter_memory_trace_chunks(trace, chunk_size=chunk_size))
    experiment = ExperimentConfig(num_accesses=len(trace), num_cores=1)
    run_simulation(trace, "tdx_baseline", experiment, engine="batch")
    covered, issued = [], []
    (offset, chunks), = _PREFETCH_PLANS[trace].items()
    assert offset == 0 and len(chunks) == len(trace.chunk_arrays)
    for plan, targets in chunks:
        targets = targets.tolist()
        for k in plan:
            if k is not None:
                covered.append(k < 0)
                issued.append(targets[:max(k, 0)])
                del targets[:max(k, 0)]
        assert targets == []
    return covered, issued


def oracle_prefetch_plan(records):
    """One fresh StreamPrefetcher asked ``covers`` and then ``observe_miss``
    for each read, in order, as the reference system does."""
    prefetcher = StreamPrefetcher()
    covered, issued = [], []
    for record in records:
        if not record.is_write:
            covered.append(prefetcher.covers(record.address))
            issued.append([] if covered[-1] else prefetcher.observe_miss(record.address))
    return covered, issued


@st.composite
def read_write_streams(draw):
    """Records whose lines mostly step to the next line, with repeats, steps
    back and jumps, starting near line 0; and a chunk size."""
    line = draw(st.integers(0, 4))
    records = []
    steps = st.tuples(st.sampled_from([1, 1, 1, 0, -1, 2, None]), st.integers(0, 63), st.booleans())
    for step, low, write in draw(st.lists(steps, max_size=120)):
        line = low if step is None else max(0, line + step)
        records.append(TraceRecord(0, write and low % 3 == 0, line * 64 + low))
    return records, draw(st.integers(1, 40))


def runs_of_three(runs: int):
    """Runs of three consecutive lines, never revisited: each run's third
    read issues four targets nobody reads, so the outstanding set passes
    StreamPrefetcher.max_outstanding; then a read of the first run's first
    target (cleared long ago) and of the last run's (still outstanding)."""
    records = [
        TraceRecord(1, False, (run * 16 + step) * 64) for run in range(runs) for step in range(3)
    ]
    records.append(TraceRecord(1, False, 3 * 64))
    records.append(TraceRecord(1, False, ((runs - 1) * 16 + 3) * 64))
    return records


class TestPrefetchPlan:
    @settings(max_examples=60, deadline=None)
    @given(read_write_streams())
    @example(([TraceRecord(0, False, line * 64) for line in range(6)], 40))  # line 0 at offset 0
    @example(([TraceRecord(0, False, (10 + k) * 64) for k in range(8)], 2))  # across chunk bounds
    def test_plan_equals_the_stream_prefetcher(self, stream):
        records, chunk_size = stream
        assert engine_prefetch_plan(records, chunk_size) == oracle_prefetch_plan(records)

    @pytest.mark.parametrize("chunk_size", [97, 65536])
    def test_plan_clears_a_full_outstanding_set(self, chunk_size):
        records = runs_of_three(1100)
        covered, issued = oracle_prefetch_plan(records)
        assert 4 * 1100 > StreamPrefetcher().max_outstanding
        assert covered[-2:] == [False, True]
        assert engine_prefetch_plan(records, chunk_size) == (covered, issued)

    def test_each_core_offsets_plan_is_built_once(self):
        stored = []

        class CountingPlans(dict):
            def __setitem__(self, key, value):
                stored.append(key)
                super().__setitem__(key, value)

        trace = stream_trace()
        _PREFETCH_PLANS[trace] = CountingPlans()
        for _ in range(2):
            for configuration in ("tdx_baseline", "secddr_ctr", "integrity_tree_64"):
                run_simulation(trace, configuration, FAST, engine="batch")
        stride = SystemConfig().per_core_address_stride
        assert stored == [0, stride]
        shifted = trace.offset(4096)
        run_simulation(shifted, "secddr_ctr", FAST, engine="batch")
        kept, moved = _PREFETCH_PLANS[trace], _PREFETCH_PLANS[shifted]
        assert set(moved) == {0, stride}
        # Core 1's plan only moves with the trace; core 0's first read of
        # line 0 starts a streak at offset 0 alone.
        (plan, targets), = kept[stride]
        (moved_plan, moved_targets), = moved[stride]
        assert moved_plan == plan and len(targets)
        assert np.array_equal(moved_targets, targets + 4096)
        assert moved[0][0][0] != kept[0][0][0]

    @pytest.mark.parametrize("configuration", ["tdx_baseline", "secddr_ctr", "integrity_tree_64"])
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_streamed_chunks_equal_the_in_memory_trace(self, tmp_path, cores, configuration):
        # A streamed trace plans chunk by chunk and keeps nothing; its
        # streaks and covered reads straddle every 100-record boundary.
        trace = stream_trace()
        streamed = load_trace(save_trace(trace, tmp_path / "stream.trace", chunk_size=100).path)
        experiment = ExperimentConfig(num_accesses=len(trace), num_cores=cores)
        in_memory = run_simulation(trace, configuration, experiment, engine="batch")
        from_store = run_simulation(streamed, configuration, experiment, engine="batch")
        assert json.dumps(asdict(from_store), sort_keys=True) == json.dumps(
            asdict(in_memory), sort_keys=True
        )
        assert streamed not in _PREFETCH_PLANS


#: Each SecDDR configuration and the encrypt-only configuration it extends.
SECDDR_TWINS = [
    ("secddr_ctr", "encrypt_only_ctr"),
    ("secddr_xts", "encrypt_only_xts"),
    ("secddr_ctr_pack8", "encrypt_only_ctr_pack8"),
    ("secddr_ctr_pack128", "encrypt_only_ctr_pack128"),
    ("secddr_xts_ddr5", "encrypt_only_xts_ddr5"),
]


class TestSecDDRCostsOnlyItsWriteBurst:
    """Metamorphic relation: without eWCRC's longer write burst, SecDDR is
    its encrypt-only twin.  Both engines replay only a system's metadata
    path, its stock controller and its stock metadata cache, so equal
    inputs there give equal results."""

    @pytest.mark.parametrize("secddr, twin", SECDDR_TWINS)
    def test_derivation_without_the_write_burst(self, secddr, twin):
        derived = build_configuration(
            resolve_configuration(secddr).derive(write_burst_cycles=None)
        )
        plain = build_configuration(twin)
        assert _batch_unsupported(derived) is None and _batch_unsupported(plain) is None
        assert derived.path == plain.path
        assert derived.controller.config == plain.controller.config
        assert derived.metadata_cache.config == plain.metadata_cache.config
        assert build_configuration(secddr).controller.config != plain.controller.config

    @settings(max_examples=25, deadline=None)
    @given(
        twins=st.sampled_from(SECDDR_TWINS),
        workload=st.sampled_from(workload_names()),
        cores=st.integers(1, 3),
        seed=st.integers(0, 2 ** 16),
    )
    def test_equals_its_twin_without_the_write_burst(self, twins, workload, cores, seed):
        secddr, twin = twins
        experiment = ExperimentConfig(num_accesses=400, num_cores=cores, seed=seed)
        trace = build_workload(workload, num_accesses=400, seed=seed)
        derived = resolve_configuration(secddr).derive(write_burst_cycles=None)
        results = [
            replace(run_simulation(trace, configuration, experiment, engine=engine),
                    configuration=twin)
            for configuration in (derived, twin)
            for engine in ("reference", "batch")
        ]
        assert all(result == results[0] for result in results[1:])


class SkewedReadSystem(EncryptOnlySystem):
    """Adds read latency in an overridden hook, outside its MetadataPath."""

    def _expand_read(self, address, cycle):
        completion, extra, touched, missed = super()._expand_read(address, cycle)
        return completion, extra + 7.0, touched, missed


class SkewedPublicReadSystem(EncryptOnlySystem):
    """Adds read latency in the public read(), past every expansion hook."""

    def read(self, address, dram_cycle):
        completion, extra = super().read(address, dram_cycle)
        return completion, extra + 7.0


class PrivateMetadataCache(MetadataCache):
    """A metadata-cache class of a custom factory's own."""


def register_custom_mechanism(name, system_class, metadata_cache_class=None):
    """Register a mechanism building ``system_class`` and a configuration using it."""

    def factory(spec, controller, metadata_cache, layout, crypto_latency, protected_bytes):
        if metadata_cache_class is not None:
            metadata_cache = metadata_cache_class()
        return system_class(
            controller, metadata_cache, layout, crypto_latency,
            encryption_mode=spec.encryption,
            counters_per_line=spec.counters_per_line,
        )

    REGISTRY.register_mechanism(name, factory, cache_token=name + "/v1")
    return REGISTRY.register(
        resolve_configuration("encrypt_only_ctr").derive(name=name, mechanism=name)
    )


class TestCustomMechanisms:
    @pytest.mark.parametrize(
        "system_class, metadata_cache_class, reason",
        [
            (SkewedReadSystem, None, "SkewedReadSystem overrides _expand_read"),
            (SkewedPublicReadSystem, None, "SkewedPublicReadSystem overrides read"),
            (EncryptOnlySystem, PrivateMetadataCache, "EncryptOnlySystem uses PrivateMetadataCache"),
        ],
    )
    def test_unreplayable_system_is_reference_only(
        self, clean_registries, capsys, system_class, metadata_cache_class, reason
    ):
        spec = register_custom_mechanism("skewed", system_class, metadata_cache_class)
        assert run_simulation("gcc", spec, FAST, engine="reference").total_ipc > 0
        with pytest.raises(BatchEngineUnsupported, match=reason):
            run_simulation("gcc", spec, FAST, engine="batch")
        assert main([
            "compare", "-w", "gcc", "-c", "skewed", "-a", "100", "-n", "1",
            "--engine", "batch",
        ]) == 2
        assert reason in capsys.readouterr().err


class TestDeprecatedSpellings:
    """The removed spellings fail on Python's own argument checks."""

    def test_missing_configurations_rejected(self):
        with pytest.raises(TypeError):
            run_comparison(workloads=["gcc"], experiment=FAST)

    def test_configs_alias_rejected(self):
        with pytest.raises(TypeError, match="configs"):
            run_comparison(configs=["secddr_ctr"], workloads=["gcc"], experiment=FAST)


class TestEngineThreading:
    """engine= flows through run_comparison, the Session API, and sweeps."""

    def test_run_comparison_engine_batch_matches_reference(self):
        kwargs = dict(configurations=["secddr_ctr"], workloads=["gcc"], experiment=FAST)
        reference = run_comparison(engine="reference", **kwargs)
        batch = run_comparison(engine="batch", **kwargs)
        assert reference.normalized == batch.normalized

    def test_session_validates_engine_eagerly(self):
        from repro.api import Session

        with pytest.raises(UnknownEngineError):
            Session(engine="bogus")

    def test_session_with_engine_is_fluent(self):
        from repro.api import Session

        session = Session()
        assert session.engine is None
        assert session.with_engine("batch") is session
        assert session.engine is not None and session.engine.name == "batch"
        assert session.with_engine(None).engine is None
