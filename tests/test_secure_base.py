"""Tests for the secure-memory base machinery and metadata layout."""

from repro.controller.memory_controller import MemoryController
from repro.secure.base import MetadataLayout, SecureMemorySystem
from repro.secure.configs import PROTECTED_MEMORY_BYTES, build_configuration, configuration_names


class TestMetadataLayout:
    def test_regions_are_disjoint(self):
        # Every line a configuration's metadata path can touch stays inside
        # its own region: counters below the tree, the tree below the MACs.
        layout = MetadataLayout()
        regions = [layout.counter_region_base, layout.tree_region_base, layout.mac_region_base, 1 << 64]
        for name in configuration_names():
            path = build_configuration(name).path
            if path.base is None:
                continue
            lines = (PROTECTED_MEMORY_BYTES // 64 + path.lines_per_entry - 1) // path.lines_per_entry
            assert path.base + lines * 64 <= regions[regions.index(path.base) + 1], name
            if path.tree is not None:
                assert path.tree.region_base == layout.tree_region_base, name
                assert path.tree.region_base + path.tree.region_bytes <= layout.mac_region_base, name


class TestSecureMemorySystemBase:
    def test_read_returns_completion_and_zero_extra(self):
        system = SecureMemorySystem(MemoryController())
        completion, extra = system.read(0x1000, 0)
        assert completion > 0
        assert extra == 0.0
        assert system.stats.demand_reads == 1

    def test_write_is_posted(self):
        system = SecureMemorySystem(MemoryController())
        system.write(0x1000, 0)
        assert system.stats.demand_writes == 1
        assert system.controller.write_queue.occupancy == 1

    def test_metadata_access_miss_then_hit(self):
        system = SecureMemorySystem(MemoryController())
        hit, completion = system._metadata_access(0x10000000000, 0, False)
        assert not hit
        assert completion > 0
        hit, completion2 = system._metadata_access(0x10000000000, 100, False)
        assert hit
        assert completion2 == 100

    def test_collect_stats_keys(self):
        system = SecureMemorySystem(MemoryController())
        system.read(0x1000, 0)
        stats = system.collect_stats()
        for key in ("demand_reads", "metadata_reads", "controller_reads", "metadata_miss_rate"):
            assert key in stats

    def test_metadata_mpki_requires_instruction_hint(self):
        system = SecureMemorySystem(MemoryController())
        system.read(0x1000, 0)
        assert "metadata_mpki" not in system.collect_stats()
        system.note_instructions(10000)
        assert "metadata_mpki" in system.collect_stats()

    def test_finish_flushes_dirty_metadata(self):
        system = SecureMemorySystem(MemoryController())
        system._metadata_access(0x10000000000, 0, True)
        system.finish()
        # The dirty counter line became a controller write and was drained.
        assert system.controller.stats.writes_served >= 1

    def test_access_breakdown_reports_components(self):
        system = SecureMemorySystem(MemoryController())
        breakdown = system.access_breakdown(0x2000, 0)
        assert breakdown.completion == breakdown.data_completion
        assert breakdown.metadata_lines_touched == 0
