"""Tests for the trace subsystem: format, importers, streaming, transforms.

The bounded-memory claims are asserted structurally (chunk-LRU residency
high-water marks, islice-bounded consumption) rather than with RSS
heuristics, so they hold on any platform.  Set ``REPRO_BIG_TRACE=1`` to also
run the >= 5M-access import/stream acceptance check (slow).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle

import numpy as np
import pytest

from repro.api import Session
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.sim.experiment import ExperimentConfig, run_comparison, run_simulation
from repro.sim.runner import ResultCache, SimulationJob, workload_cache_token
from repro.traces import (
    InterleavedTrace,
    StreamingTrace,
    TraceFormatError,
    TraceImportError,
    TraceWriter,
    export_trace,
    import_trace,
    interleave,
    is_trace_store,
    load_trace,
    open_trace_store,
    save_trace,
)
from repro.traces.transforms import Offset, Sample, Truncate
from repro.workloads.registry import REGISTRY, build_workload, trace_cache_token

EXPERIMENT = ExperimentConfig(num_accesses=1200, num_cores=2)


def small_trace(n=1000, seed=1, name="mcf"):
    return build_workload(name, num_accesses=n, seed=seed)


def as_tuples(trace):
    return [(r.instruction_gap, r.is_write, r.address) for r in trace]


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
class TestFormat:
    def test_save_open_round_trip(self, tmp_path):
        trace = small_trace(800)
        store = save_trace(trace, tmp_path / "t.trace", chunk_size=128)
        assert store.total_accesses == 800
        assert store.num_chunks == 800 // 128 + 1
        assert as_tuples(load_trace(tmp_path / "t.trace")) == as_tuples(trace)

    def test_header_statistics_match_trace(self, tmp_path):
        trace = small_trace(600)
        store = save_trace(trace, tmp_path / "t.trace")
        assert store.total_instructions == trace.total_instructions
        assert store.read_count == trace.read_count
        assert store.write_count == trace.write_count
        assert store.footprint_bytes == trace.footprint_bytes

    def test_content_hash_is_chunk_size_independent(self, tmp_path):
        trace = small_trace(500)
        a = save_trace(trace, tmp_path / "a", chunk_size=64)
        b = save_trace(trace, tmp_path / "b", chunk_size=499)
        c = save_trace(trace, tmp_path / "c", chunk_size=64, compression=False)
        assert a.content_hash == b.content_hash == c.content_hash

    def test_content_hash_is_stable_across_builds(self, tmp_path):
        # A pinned literal stream hashes to a pinned value: the hash is part
        # of the on-disk format contract (cache tokens depend on it).
        records = [TraceRecord(5, i % 2 == 0, 64 * i) for i in range(10)]
        store = save_trace(records, tmp_path / "t", name="pinned")
        packed = np.empty(10, dtype=[("gap", "<i8"), ("write", "<u1"), ("addr", "<i8")])
        packed["gap"] = 5
        packed["write"] = [1, 0] * 5
        packed["addr"] = [64 * i for i in range(10)]
        assert store.content_hash == hashlib.sha256(packed.tobytes()).hexdigest()

    def test_name_does_not_change_content_hash(self, tmp_path):
        trace = small_trace(200)
        a = save_trace(trace, tmp_path / "a", name="one")
        b = save_trace(trace, tmp_path / "b", name="two")
        assert a.content_hash == b.content_hash

    def test_raw_store_round_trips_and_memory_maps(self, tmp_path):
        trace = small_trace(300)
        store = save_trace(trace, tmp_path / "t", chunk_size=100, compression=False)
        gaps, writes, addrs = store.chunk(0)
        assert isinstance(gaps, np.memmap)
        assert as_tuples(load_trace(tmp_path / "t")) == as_tuples(trace)

    def test_raw_round_trip_is_byte_identical(self, tmp_path):
        trace = small_trace(400)
        save_trace(trace, tmp_path / "a", chunk_size=128, compression=False)
        exported = export_trace(load_trace(tmp_path / "a"), tmp_path / "t.txt")
        import_trace(exported, tmp_path / "b", chunk_size=128, compression=False)
        for chunk_file in sorted(p.name for p in (tmp_path / "a").glob("chunk-*")):
            assert (tmp_path / "a" / chunk_file).read_bytes() == \
                (tmp_path / "b" / chunk_file).read_bytes()

    def test_verify_detects_corruption(self, tmp_path):
        store = save_trace(small_trace(300), tmp_path / "t", chunk_size=100,
                           compression=False)
        assert store.verify()
        victim = tmp_path / "t" / "chunk-000001.addrs.npy"
        data = np.load(victim)
        data[0] += 64
        np.save(str(victim), data)
        assert not open_trace_store(tmp_path / "t").verify()

    def test_writer_rejects_negative_columns(self, tmp_path):
        writer = TraceWriter(tmp_path / "t", name="bad")
        with pytest.raises(TraceFormatError):
            writer.append_columns([1], [0], [-64])
        with pytest.raises(TraceFormatError):
            writer.append_columns([-1], [0], [64])

    def test_refuses_to_overwrite_without_flag(self, tmp_path):
        save_trace(small_trace(10), tmp_path / "t")
        with pytest.raises(TraceFormatError):
            save_trace(small_trace(10), tmp_path / "t")
        save_trace(small_trace(10), tmp_path / "t", overwrite=True)

    def test_overwrite_removes_stale_chunks_and_old_header(self, tmp_path):
        # A shorter rewrite must not leave orphaned chunks, and an aborted
        # rewrite must leave a store that fails to open (no header) rather
        # than an old header indexing half-new chunk files.
        save_trace(small_trace(500), tmp_path / "t", chunk_size=50)
        save_trace(small_trace(100), tmp_path / "t", chunk_size=50, overwrite=True)
        assert len(list((tmp_path / "t").glob("chunk-*"))) == 2
        assert open_trace_store(tmp_path / "t").verify()
        writer = TraceWriter(tmp_path / "t", name="aborted", chunk_size=50,
                             overwrite=True)
        writer.append_columns([1], [0], [64])
        # Abort without close(): the old header must be gone already.
        with pytest.raises(TraceFormatError):
            open_trace_store(tmp_path / "t")

    def test_open_rejects_foreign_directories(self, tmp_path):
        with pytest.raises(TraceFormatError):
            open_trace_store(tmp_path)
        (tmp_path / "header.json").write_text("{\"format\": \"other\"}")
        with pytest.raises(TraceFormatError):
            open_trace_store(tmp_path)

    def test_version_gate(self, tmp_path):
        store = save_trace(small_trace(10), tmp_path / "t")
        header = (store.path / "header.json").read_text()
        (store.path / "header.json").write_text(header.replace('"version": 1', '"version": 99'))
        with pytest.raises(TraceFormatError):
            open_trace_store(tmp_path / "t")

    def test_writing_a_store_onto_its_own_source_is_rejected(self, tmp_path):
        # An in-place re-encode would delete the chunks out from under the
        # lazy reader; the guard must fire before anything is unlinked.
        store = save_trace(small_trace(100), tmp_path / "t")
        view = load_trace(tmp_path / "t")
        with pytest.raises(TraceFormatError, match="different path"):
            save_trace(view, tmp_path / "t", overwrite=True)
        with pytest.raises(TraceFormatError, match="different path"):
            save_trace(store, tmp_path / "t", overwrite=True)
        mixed = interleave([view, small_trace(50, name="pr")], "m")
        with pytest.raises(TraceFormatError, match="different path"):
            save_trace(mixed, tmp_path / "t", overwrite=True)
        assert open_trace_store(tmp_path / "t").verify()  # source intact

    def test_header_missing_fields_is_a_format_error(self, tmp_path):
        import json

        store = save_trace(small_trace(20), tmp_path / "t")
        header = json.loads((store.path / "header.json").read_text())
        del header["name"]
        (store.path / "header.json").write_text(json.dumps(header))
        with pytest.raises(TraceFormatError, match="corrupt header"):
            open_trace_store(tmp_path / "t")

    def test_is_trace_store(self, tmp_path):
        assert not is_trace_store(tmp_path / "t")
        store = save_trace(small_trace(10), tmp_path / "t")
        assert is_trace_store(store.path)
        assert is_trace_store(store.path / "header.json")

    def test_chunk_lru_is_bounded(self, tmp_path):
        save_trace(small_trace(1000), tmp_path / "t", chunk_size=50)
        store = open_trace_store(tmp_path / "t", max_cached_chunks=3)
        assert store.num_chunks == 20
        for _ in range(2):
            for _ in store.iter_chunks():
                pass
        assert store.max_resident_chunks <= 3


# ----------------------------------------------------------------------
# Importers / exporters
# ----------------------------------------------------------------------
class TestImporters:
    def test_text_import_basics(self, tmp_path):
        src = io.StringIO("# comment\n0x40,1\n128 r\n0xc0,w,12345\n")
        store = import_trace(src, tmp_path / "t", format="text", default_gap=7)
        records = as_tuples(load_trace(tmp_path / "t"))
        # Third column without the gap header is a pc: parsed and ignored.
        assert records == [(7, True, 0x40), (7, False, 128), (7, True, 0xC0)]

    def test_text_import_rejects_garbage(self, tmp_path):
        with pytest.raises(TraceImportError):
            import_trace(io.StringIO("0x40\n"), tmp_path / "a", format="text")
        with pytest.raises(TraceImportError):
            import_trace(io.StringIO("zz,1\n"), tmp_path / "b", format="text")
        with pytest.raises(TraceImportError):
            import_trace(io.StringIO("0x40,maybe\n"), tmp_path / "c", format="text")

    def test_dramsim_import_cycle_deltas(self, tmp_path):
        src = io.StringIO(
            "0x1000 READ 100\n0x2000,WRITE,160\n0x3000 P_MEM_RD 160\n"
        )
        store = import_trace(src, tmp_path / "t", format="dramsim")
        records = as_tuples(load_trace(tmp_path / "t"))
        assert records == [(0, False, 0x1000), (60, True, 0x2000), (0, False, 0x3000)]
        assert store.metadata["source_format"] == "dramsim"

    def test_dramsim_rejects_time_travel(self, tmp_path):
        src = io.StringIO("0x1000 READ 100\n0x2000 READ 50\n")
        with pytest.raises(TraceImportError):
            import_trace(src, tmp_path / "t", format="dramsim")

    def test_champsim_alias(self, tmp_path):
        src = io.StringIO("0x1000 RD 0\n")
        store = import_trace(src, tmp_path / "t", format="champsim")
        assert store.total_accesses == 1

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(TraceImportError):
            import_trace(io.StringIO(""), tmp_path / "t", format="gem5")
        with pytest.raises(TraceImportError):
            export_trace(small_trace(5), tmp_path / "x", format="gem5")

    def test_import_export_import_round_trips_hash(self, tmp_path):
        # The acceptance-criteria round trip: the content hash is a pure
        # function of the record stream, so it survives text export/import
        # and any re-chunking.
        original = save_trace(small_trace(700, seed=9), tmp_path / "a", chunk_size=123)
        exported = export_trace(load_trace(tmp_path / "a"), tmp_path / "t.txt")
        reimported = import_trace(exported, tmp_path / "b", format="text", chunk_size=456)
        assert reimported.content_hash == original.content_hash
        assert as_tuples(load_trace(tmp_path / "b")) == as_tuples(load_trace(tmp_path / "a"))

    def test_dramsim_export_import_round_trips_records(self, tmp_path):
        trace = MemoryTrace("t", [
            TraceRecord(0, False, 0x40), TraceRecord(3, True, 0x80),
            TraceRecord(17, False, 0xC0),
        ])
        exported = export_trace(trace, tmp_path / "t.csv", format="dramsim")
        import_trace(exported, tmp_path / "t", format="dramsim")
        assert as_tuples(load_trace(tmp_path / "t")) == as_tuples(trace)

    def test_missing_source_file(self, tmp_path):
        with pytest.raises(TraceImportError):
            import_trace(tmp_path / "nope.txt", tmp_path / "t", format="text")

    def test_kernel_half_addresses_rejected_cleanly(self, tmp_path):
        src = io.StringIO("0xffff880000001000,r\n")
        with pytest.raises(TraceImportError, match="64-bit"):
            import_trace(src, tmp_path / "t", format="text")
        with pytest.raises(TraceFormatError, match="64-bit"):
            save_trace([TraceRecord(1, False, 1 << 63)], tmp_path / "u", name="big")


# ----------------------------------------------------------------------
# Streaming views and transforms
# ----------------------------------------------------------------------
class TestStreamingTrace:
    def test_memorytrace_compatible_surface(self, tmp_path):
        trace = small_trace(900)
        view = StreamingTrace(save_trace(trace, tmp_path / "t", chunk_size=100))
        assert view.name == trace.name
        assert len(view) == len(trace)
        assert view.total_instructions == trace.total_instructions
        assert view.read_count == trace.read_count
        assert view.write_count == trace.write_count
        assert view.write_fraction == pytest.approx(trace.write_fraction)
        assert view.mpki == pytest.approx(trace.mpki)
        assert view.footprint_bytes == trace.footprint_bytes
        assert as_tuples(view) == as_tuples(trace)

    def test_cache_token_is_constant_time_and_stable(self, tmp_path):
        trace = small_trace(400)
        view = load_trace(save_trace(trace, tmp_path / "t").path)
        token = trace_cache_token(view)
        assert token.startswith("trace:stream:")
        # Same content, different directory -> same token.
        other = load_trace(save_trace(trace, tmp_path / "u", chunk_size=99).path)
        assert trace_cache_token(other) == token
        # Different content -> different token.
        different = load_trace(save_trace(small_trace(400, seed=2), tmp_path / "v").path)
        assert trace_cache_token(different) != token

    def test_transforms_change_the_cache_token(self, tmp_path):
        view = load_trace(save_trace(small_trace(300), tmp_path / "t").path)
        tokens = {
            view.cache_token,
            view.truncated(100).cache_token,
            view.truncated(200).cache_token,
            view.sampled(0.5).cache_token,
            view.sampled(0.5, seed=2).cache_token,
            view.rescaled_footprint(1 << 20).cache_token,
            view.offset(64).cache_token,
        }
        assert len(tokens) == 7

    def test_offset_view_matches_eager_offset(self, tmp_path):
        trace = small_trace(500)
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=64).path)
        assert as_tuples(view.offset(1 << 32)) == as_tuples(trace.offset(1 << 32))
        assert view.offset(0) is view

    def test_truncated_and_sampled_views(self, tmp_path):
        trace = small_trace(500)
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=64).path)
        assert as_tuples(view.truncated(130)) == as_tuples(trace.truncated(130))
        sampled = view.sampled(0.25, seed=5)
        kept = as_tuples(sampled)
        assert 0 < len(kept) < 500
        assert len(sampled) == len(kept)  # length agrees with the stream
        assert as_tuples(view.sampled(0.25, seed=5)) == kept  # deterministic

    def test_rescaled_footprint_folds_addresses(self, tmp_path):
        view = load_trace(save_trace(small_trace(400), tmp_path / "t").path)
        target = 1 << 20
        folded = view.rescaled_footprint(target)
        assert all(r.address < target for r in folded)
        assert folded.footprint_bytes <= target
        # Gap/write structure is untouched.
        assert [(r.instruction_gap, r.is_write) for r in folded] == \
            [(r.instruction_gap, r.is_write) for r in view]

    def test_transforms_compose_in_order(self, tmp_path):
        trace = small_trace(400)
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=50).path)
        composed = view.truncated(100).offset(1 << 30)
        expected = trace.truncated(100).offset(1 << 30)
        assert as_tuples(composed) == as_tuples(expected)

    def test_with_name_is_lazy_and_token_aware(self, tmp_path):
        view = load_trace(save_trace(small_trace(100), tmp_path / "t").path)
        renamed = view.with_name("other")
        assert renamed.name == "other"
        assert renamed.cache_token != view.cache_token
        assert view.with_name(view.name) is view

    def test_pickle_round_trip_preserves_identity(self, tmp_path):
        view = load_trace(save_trace(small_trace(200), tmp_path / "t").path)
        transformed = view.truncated(50).offset(64)
        clone = pickle.loads(pickle.dumps(transformed))
        assert clone.cache_token == transformed.cache_token
        assert as_tuples(clone) == as_tuples(transformed)
        # The pickle payload carries the path, not the records.
        assert len(pickle.dumps(transformed)) < 2000

    def test_records_property_materializes(self, tmp_path):
        trace = small_trace(50)
        view = load_trace(save_trace(trace, tmp_path / "t").path)
        assert view.records == trace.records


class TestInterleavedTrace:
    def build(self, tmp_path, quantum=8):
        a = small_trace(300, name="mcf")
        b = small_trace(200, seed=2, name="pr")
        sa = load_trace(save_trace(a, tmp_path / "a", chunk_size=64).path)
        return a, b, interleave([sa, b], "duo", quantum=quantum, stride=1 << 34)

    def test_mix_covers_every_component_record(self, tmp_path):
        a, b, mixed = self.build(tmp_path)
        assert len(mixed) == 500
        records = as_tuples(mixed)
        stride = 1 << 34
        tenant0 = [(g, w, addr) for g, w, addr in records if addr < stride]
        tenant1 = [(g, w, addr - stride) for g, w, addr in records if addr >= stride]
        assert tenant0 == as_tuples(a)
        assert tenant1 == as_tuples(b)

    def test_quantum_round_robin_order(self):
        a = MemoryTrace("a", [TraceRecord(1, False, 64 * i) for i in range(4)])
        b = MemoryTrace("b", [TraceRecord(1, True, 64 * i) for i in range(2)])
        mixed = interleave([a, b], "m", quantum=2, stride=1 << 20)
        writes = [r.is_write for r in mixed]
        # 2 from a, 2 from b, then a's remainder.
        assert writes == [False, False, True, True, False, False]

    def test_mix_token_depends_on_parameters(self, tmp_path):
        _, b, mixed = self.build(tmp_path)
        again = interleave(list(mixed.components), "duo", quantum=8, stride=1 << 34)
        assert again.cache_token == mixed.cache_token
        other = interleave(list(mixed.components), "duo", quantum=16, stride=1 << 34)
        assert other.cache_token != mixed.cache_token

    def test_mix_saves_and_reloads(self, tmp_path):
        _, _, mixed = self.build(tmp_path)
        store = save_trace(mixed, tmp_path / "mix")
        assert as_tuples(load_trace(tmp_path / "mix")) == as_tuples(mixed)
        assert store.total_accesses == len(mixed)

    def test_mix_requires_two_components(self):
        with pytest.raises(ValueError):
            InterleavedTrace([small_trace(10)], "solo")

    def test_mix_rejects_addresses_above_the_stride(self):
        near = MemoryTrace("near", [TraceRecord(1, False, 64)])
        far = MemoryTrace("far", [TraceRecord(1, False, 5 << 32)])
        mixed = interleave([near, far], "clash", stride=1 << 32)
        with pytest.raises(ValueError, match="stride"):
            list(mixed.iter_chunk_arrays())
        # stride=0 is the explicit opt-in to overlapping tenants.
        overlapping = interleave([near, far], "overlap", stride=0)
        assert len(as_tuples(overlapping)) == 2

    def test_rescaled_view_stats_need_no_data_pass(self, tmp_path):
        view = load_trace(save_trace(small_trace(300), tmp_path / "t", chunk_size=64).path)
        rescaled = view.rescaled_footprint(1 << 20)
        before = view.store.cache_misses
        assert rescaled.mpki == pytest.approx(view.mpki)
        assert rescaled.write_fraction == pytest.approx(view.write_fraction)
        assert view.store.cache_misses == before  # counts came from the header

    def test_mix_registration_stats_need_no_data_pass(self, tmp_path):
        # mpki/write_fraction are additive across tenants, so registering a
        # mix of on-disk stores must not decompress a single chunk.
        a = load_trace(save_trace(small_trace(300), tmp_path / "a", chunk_size=64).path)
        b = load_trace(save_trace(small_trace(200, seed=2, name="pr"), tmp_path / "b",
                                  chunk_size=64).path)
        mixed = interleave([a, b], "duo")
        assert mixed.mpki > 0 and 0 < mixed.write_fraction < 1
        assert a.store.cache_misses == 0 and b.store.cache_misses == 0


# ----------------------------------------------------------------------
# Simulation integration: parity, caching, bounded memory
# ----------------------------------------------------------------------
class TestStreamingSimulation:
    def test_streamed_equals_in_memory_simulation(self, tmp_path):
        trace = small_trace(EXPERIMENT.num_accesses)
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=100).path)
        for configuration in ("secddr_ctr", "integrity_tree_64"):
            in_memory = run_simulation(trace, configuration, EXPERIMENT)
            streamed = run_simulation(view, configuration, EXPERIMENT)
            assert streamed.total_ipc == in_memory.total_ipc
            assert streamed.memory_stats == in_memory.memory_stats

    @pytest.mark.parametrize(
        "configuration",
        ["tdx_baseline", "encrypt_only_xts", "secddr_ctr", "integrity_tree_64",
         "integrity_tree_8_hash", "invisimem_realistic_xts"],
    )
    def test_reference_engine_streams_like_it_reads_records(self, tmp_path, configuration):
        # The object model's two trace cursors, a record list and a chunked
        # store that refills mid-run, feed the cores the same accesses.
        trace = small_trace(800, name="lbm")
        view = load_trace(save_trace(trace, tmp_path / "t", chunk_size=97).path)
        for cores in (1, 3):
            experiment = ExperimentConfig(num_accesses=len(trace), num_cores=cores)
            in_memory = run_simulation(trace, configuration, experiment, engine="reference")
            streamed = run_simulation(view, configuration, experiment, engine="reference")
            assert streamed == in_memory

    def test_simulation_streams_in_bounded_chunk_window(self, tmp_path):
        # 40 chunks on disk, at most 4 resident: the simulation never holds
        # more than the configured window no matter how long the trace is.
        trace = small_trace(2000)
        save_trace(trace, tmp_path / "t", chunk_size=50)
        view = load_trace(tmp_path / "t", max_cached_chunks=4)
        assert view.store.num_chunks == 40
        result = run_simulation(view, "secddr_ctr", ExperimentConfig(num_accesses=2000, num_cores=4))
        assert result.total_ipc > 0
        assert view.store.max_resident_chunks <= 4

    def test_comparison_serial_parallel_and_cache_parity(self, tmp_path):
        view = load_trace(
            save_trace(small_trace(EXPERIMENT.num_accesses), tmp_path / "t").path
        )
        configs = ["secddr_ctr", "encrypt_only_ctr"]
        cache = ResultCache(tmp_path / "cache")
        serial = run_comparison(configs, [view], experiment=EXPERIMENT)
        parallel = run_comparison(configs, [view], experiment=EXPERIMENT, jobs=2,
                                  cache=cache)
        assert cache.misses > 0 and cache.hits == 0
        warm = run_comparison(configs, [view], experiment=EXPERIMENT, cache=cache)
        assert serial.normalized == parallel.normalized == warm.normalized
        assert cache.hits >= len(configs) + 1  # baseline included

    def test_same_named_different_traces_are_rejected(self, tmp_path):
        # Two imports whose headers both say "mcf" must not silently
        # overwrite each other's row in the comparison table.
        from repro.errors import AmbiguousConfigurationError

        a = load_trace(save_trace(small_trace(300), tmp_path / "a").path)
        b = load_trace(save_trace(small_trace(300, seed=2), tmp_path / "b").path)
        assert a.name == b.name
        with pytest.raises(AmbiguousConfigurationError, match="share the name"):
            run_comparison(["secddr_ctr"], [a, b], experiment=EXPERIMENT)
        # Renaming one resolves it.
        result = run_comparison(
            ["secddr_ctr"], [a, b.with_name("mcf_b")], experiment=EXPERIMENT
        )
        assert set(result.workloads) == {"mcf", "mcf_b"}

    def test_registering_transformed_view_needs_no_data_pass(self, tmp_path):
        view = load_trace(save_trace(small_trace(400), tmp_path / "t", chunk_size=64).path)
        spec = REGISTRY.register_trace(view.truncated(100), name="trunc_reg")
        try:
            assert spec.mpki == pytest.approx(view.mpki)  # base ratios stand in
            assert spec.write_fraction == pytest.approx(view.write_fraction)
            assert view.store.cache_misses == 0  # not a single chunk decoded
        finally:
            REGISTRY.unregister("trunc_reg")

    def test_cache_key_uses_content_hash_not_path(self, tmp_path):
        trace = small_trace(300)
        a = load_trace(save_trace(trace, tmp_path / "a").path)
        b = load_trace(save_trace(trace, tmp_path / "b", chunk_size=77).path)
        job_a = SimulationJob("secddr_ctr", a, EXPERIMENT)
        job_b = SimulationJob("secddr_ctr", b, EXPERIMENT)
        assert job_a.cache_key() == job_b.cache_key()
        truncated = SimulationJob("secddr_ctr", a.truncated(100), EXPERIMENT)
        assert truncated.cache_key() != job_a.cache_key()

    def test_registry_and_session_round_trip(self, tmp_path):
        session = Session(experiment=EXPERIMENT)
        view = load_trace(save_trace(small_trace(600), tmp_path / "t").path)
        spec = session.traces().register(view, name="captured_mcf")
        try:
            assert spec.trace is view.with_name("captured_mcf") or spec.trace.name == "captured_mcf"
            assert REGISTRY["captured_mcf"].cache_token == spec.trace.cache_token
            assert spec.mpki == pytest.approx(view.mpki)
            result = (
                session.configs("secddr_ctr").workloads("captured_mcf").compare()
            )
            assert result.raw_ipc["secddr_ctr"]["captured_mcf"] > 0
        finally:
            REGISTRY.unregister("captured_mcf")

    def test_toolkit_register_rejects_non_store_paths(self, tmp_path):
        session = Session(experiment=EXPERIMENT)
        with pytest.raises(TraceFormatError, match="not a trace store"):
            session.traces().register(str(tmp_path / "typo.trace"))

    def test_importers_close_their_file_handles(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0x40,1\nnot-an-address,1\n")
        with pytest.raises(TraceImportError):
            import_trace(bad, tmp_path / "t", format="text")
        # The aborted import must not leave the source open: on POSIX a
        # still-open handle would keep the fd until GC.
        import gc
        gc.collect()
        open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else []
        paths = set()
        for fd in open_fds:
            try:
                paths.add(os.readlink("/proc/self/fd/%s" % fd))
            except OSError:
                pass
        assert str(bad) not in paths

    def test_session_toolkit_import_mix_and_paths(self, tmp_path):
        session = Session(experiment=EXPERIMENT)
        toolkit = session.traces()
        store = toolkit.save(small_trace(300), tmp_path / "a")
        opened = toolkit.open(store.path)
        mixed = toolkit.mix([opened, "pr"], name="duo", quantum=32)
        assert len(mixed) == 300 + EXPERIMENT.num_accesses
        exported = toolkit.export(opened, tmp_path / "a.txt", format="text")
        reimported = toolkit.import_(exported, tmp_path / "b", format="text")
        assert reimported.store.content_hash == store.content_hash

    def test_fuzz_background_accepts_streamed_workload(self, tmp_path):
        from repro.fuzz.scenario import ScenarioGenerator

        view = load_trace(save_trace(small_trace(400), tmp_path / "t").path)
        REGISTRY.register_trace(view, name="streamed_bg")
        try:
            generator = ScenarioGenerator(seed=3, workloads=["streamed_bg"])
            scenario = generator.generate(0)
            assert scenario.workload == "streamed_bg"
            assert scenario.well_formed()
        finally:
            REGISTRY.unregister("streamed_bg")

    def test_figure_matrix_accepts_streamed_workload(self, tmp_path):
        from repro.figures.spec import FigureContext
        from repro.sim.experiment import Comparison

        from repro.errors import AmbiguousConfigurationError

        view = load_trace(save_trace(small_trace(200), tmp_path / "t").path)
        # The stored trace is named "mcf" too: a matrix cannot hold both.
        with pytest.raises(AmbiguousConfigurationError, match="share the name"):
            Comparison(["secddr_ctr"], [view, "mcf"], experiment=EXPERIMENT)
        view = view.with_name("mcf_stored")
        ctx = FigureContext(experiment=EXPERIMENT, workload_filter=[view, "mcf"])
        assert ctx.all_workloads() == [view, "mcf"]
        jobs = Comparison(["secddr_ctr"], ctx.all_workloads(), experiment=EXPERIMENT).jobs()
        assert {job.workload_name for job in jobs} == {"mcf_stored", "mcf"}
        for job in jobs:
            assert job.cache_key()  # streamed entries fingerprint cleanly


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
class TestWorkloadTokenMemoization:
    def test_content_hash_computed_once_per_instance(self):
        trace = small_trace(200)
        iterations = []
        original_iter = MemoryTrace.__iter__

        def counting_iter(self):
            iterations.append(1)
            return original_iter(self)

        MemoryTrace.__iter__ = counting_iter
        try:
            first = workload_cache_token(trace)
            passes_after_first = len(iterations)
            assert passes_after_first <= 1
            for _ in range(5):
                assert workload_cache_token(trace) == first
                assert trace_cache_token(trace) == first
            assert len(iterations) == passes_after_first  # memoized: no re-hash
        finally:
            MemoryTrace.__iter__ = original_iter

    def test_registered_trace_token_computed_once(self):
        trace = small_trace(150)
        REGISTRY.register_trace(trace, name="memo_check")
        try:
            token = REGISTRY.cache_token_for("memo_check")
            calls = []
            original = hashlib.sha256

            def counting_sha(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            hashlib.sha256 = counting_sha
            try:
                for _ in range(4):
                    assert REGISTRY.cache_token_for("memo_check") == token
            finally:
                hashlib.sha256 = original
            assert not calls  # registration memoized the hash; lookups are free
        finally:
            REGISTRY.unregister("memo_check")


class TestGeneratorConfigValidation:
    def test_rejects_non_positive_num_accesses(self):
        from repro.workloads.generators import AccessPattern, TraceGeneratorConfig

        with pytest.raises(ValueError, match="num_accesses"):
            TraceGeneratorConfig(
                name="bad", pattern=AccessPattern.RANDOM, mpki=1.0,
                write_fraction=0.1, footprint_bytes=16 << 20, num_accesses=0,
            )

    def test_rejects_hot_region_larger_than_footprint(self):
        from repro.workloads.generators import AccessPattern, TraceGeneratorConfig

        with pytest.raises(ValueError, match="hot_region_bytes"):
            TraceGeneratorConfig(
                name="bad", pattern=AccessPattern.MIXED, mpki=1.0,
                write_fraction=0.1, footprint_bytes=1 << 20,
                hot_region_bytes=2 << 20,
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_export_info_import_mix_pipeline(self, tmp_path, capsys):
        store_dir = str(tmp_path / "mcf.trace")
        assert self.run_cli("trace", "export", "mcf", store_dir, "-a", "500") == 0
        assert self.run_cli("trace", "info", store_dir, "--verify") == 0
        out = capsys.readouterr().out
        assert "verified" in out and "ok" in out

        text_file = str(tmp_path / "mcf.txt")
        assert self.run_cli("trace", "export", store_dir, text_file, "--format", "text") == 0
        reimported = str(tmp_path / "mcf2.trace")
        assert self.run_cli("trace", "import", text_file, reimported) == 0
        assert open_trace_store(reimported).content_hash == \
            open_trace_store(store_dir).content_hash

        mix_dir = str(tmp_path / "mix.trace")
        assert self.run_cli(
            "trace", "mix", mix_dir, store_dir, reimported, "--quantum", "32",
            "--name", "duo",
        ) == 0
        assert open_trace_store(mix_dir).total_accesses == 1000

    def test_compare_accepts_store_paths(self, tmp_path, capsys):
        store_dir = str(tmp_path / "w.trace")
        save_trace(small_trace(600), store_dir)
        cache_dir = str(tmp_path / "cache")
        argv = ["compare", "-w", store_dir, "-c", "secddr_ctr", "-a", "600",
                "-n", "1", "--cache-dir", cache_dir]
        assert self.run_cli(*argv) == 0
        first = capsys.readouterr().out
        assert "mcf" in first  # the store's workload name keys the table
        assert self.run_cli(*argv) == 0
        assert capsys.readouterr().out == first  # warm-cache run is identical

    def test_info_rejects_non_store(self, tmp_path, capsys):
        assert self.run_cli("trace", "info", str(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_import_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an address,1\n")
        assert self.run_cli("trace", "import", str(bad), str(tmp_path / "t")) == 2
        assert "error:" in capsys.readouterr().err

    def test_import_overwrite_flag(self, tmp_path, capsys):
        src = tmp_path / "s.txt"
        src.write_text("0x40,1\n")
        dest = str(tmp_path / "t")
        assert self.run_cli("trace", "import", str(src), dest) == 0
        assert self.run_cli("trace", "import", str(src), dest) == 2
        assert "overwrite" in capsys.readouterr().err
        assert self.run_cli("trace", "import", str(src), dest, "--overwrite") == 0

    def test_mix_argument_validation_exits_2(self, tmp_path, capsys):
        ok = str(tmp_path / "ok.trace")
        save_trace(small_trace(50), ok)
        assert self.run_cli("trace", "mix", str(tmp_path / "m"), ok) == 2
        assert "two sources" in capsys.readouterr().err
        assert self.run_cli("trace", "mix", str(tmp_path / "m"), ok, ok,
                            "--quantum", "0") == 2
        assert "--quantum" in capsys.readouterr().err

    def test_mix_stride_overflow_is_a_clean_cli_error(self, tmp_path, capsys):
        store = str(tmp_path / "far.trace")
        save_trace(MemoryTrace("far", [TraceRecord(1, False, 5 << 34)]), store)
        ok = str(tmp_path / "ok.trace")
        save_trace(small_trace(50), ok)
        assert self.run_cli("trace", "mix", str(tmp_path / "m"), ok, store) == 2
        assert "stride" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Scale acceptance (opt-in: REPRO_BIG_TRACE=1)
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.environ.get("REPRO_BIG_TRACE"),
    reason="5M-access acceptance check; set REPRO_BIG_TRACE=1 to run",
)
class TestBigTraceAcceptance:
    def test_five_million_access_import_streams_bounded(self, tmp_path):
        rng = np.random.default_rng(1)
        total = 5_000_000
        chunk = 1 << 18
        writer = TraceWriter(tmp_path / "big", name="big", chunk_size=chunk)
        for start in range(0, total, chunk):
            n = min(chunk, total - start)
            writer.append_columns(
                np.ones(n, dtype=np.int64),
                (rng.random(n) < 0.3),
                rng.integers(0, 1 << 30, size=n, dtype=np.int64) * 64,
            )
        writer.close()
        view = load_trace(tmp_path / "big", max_cached_chunks=4)
        assert len(view) == total
        comparison = run_comparison(
            ["secddr_ctr"], [view.truncated(100_000)],
            experiment=ExperimentConfig(num_accesses=100_000, num_cores=1),
        )
        assert comparison.raw_ipc["secddr_ctr"]["big"] > 0
        assert view.store.max_resident_chunks <= 4
