"""Tests for integrity-tree geometry, traversal and the tree mechanisms' timing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure.base import MetadataLayout
from repro.secure.configs import build_configuration
from repro.secure.integrity_tree import IntegrityTree, TreeGeometry, hash_merkle_tree_geometry

GB = 2**30


class TestTreeGeometry:
    def test_64ary_tree_over_16gb(self):
        # 16 GB -> 4M counter lines (64 counters each) -> 64K, 1K, 16, 1.
        counter_lines = 16 * GB // 64 // 64
        geometry = TreeGeometry.build(64, counter_lines)
        assert geometry.level_sizes == (65536, 1024, 16, 1)
        assert geometry.offchip_levels == 3

    def test_128ary_tree_is_shorter(self):
        counter_lines_128 = 16 * GB // 64 // 128
        geometry = TreeGeometry.build(128, counter_lines_128)
        assert len(geometry.level_sizes) < len(
            TreeGeometry.build(64, 16 * GB // 64 // 64).level_sizes
        )

    def test_8ary_hash_tree_is_much_taller(self):
        hash_geometry = hash_merkle_tree_geometry(16 * GB, arity=8)
        counter_geometry = TreeGeometry.build(64, 16 * GB // 64 // 64)
        assert len(hash_geometry.level_sizes) > len(counter_geometry.level_sizes) + 3

    def test_root_is_single_node(self):
        geometry = TreeGeometry.build(64, 100000)
        assert geometry.level_sizes[-1] == 1

    def test_single_leaf(self):
        geometry = TreeGeometry.build(64, 1)
        assert geometry.level_sizes == (1,)
        assert geometry.offchip_levels == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TreeGeometry.build(1, 100)
        with pytest.raises(ValueError):
            TreeGeometry.build(8, 0)

    @given(arity=st.sampled_from([2, 8, 64, 128]), leaves=st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=50, deadline=None)
    def test_level_sizes_shrink_by_arity(self, arity, leaves):
        geometry = TreeGeometry.build(arity, leaves)
        previous = leaves
        for size in geometry.level_sizes:
            assert size == (previous + arity - 1) // arity
            previous = size
        assert geometry.level_sizes[-1] == 1


class TestIntegrityTreeAddressing:
    def _tree(self, arity=64, leaves=65536):
        return IntegrityTree(TreeGeometry.build(arity, leaves), MetadataLayout())

    def test_node_addresses_within_region(self):
        tree = self._tree()
        address = tree.node_address(1, 0)
        assert address >= MetadataLayout().tree_region_base
        assert address < MetadataLayout().tree_region_base + tree.region_bytes

    def test_levels_do_not_overlap(self):
        tree = self._tree()
        level1_last = tree.node_address(1, tree.geometry.level_sizes[0] - 1)
        level2_first = tree.node_address(2, 0)
        assert level2_first > level1_last

    def test_path_excludes_root(self):
        tree = self._tree(arity=64, leaves=65536)
        # Levels: 1024, 16, 1 -> off-chip path has 2 nodes.
        path = tree.path_for_leaf(0)
        assert len(path) == len(tree.geometry.level_sizes) - 1

    def test_sibling_leaves_share_path(self):
        tree = self._tree()
        assert tree.path_for_leaf(0) == tree.path_for_leaf(63)
        assert tree.path_for_leaf(0) != tree.path_for_leaf(64)

    def test_out_of_range_rejected(self):
        tree = self._tree()
        with pytest.raises(ValueError):
            tree.path_for_leaf(-1)
        with pytest.raises(ValueError):
            tree.path_for_leaf(tree.geometry.leaf_lines)
        with pytest.raises(ValueError):
            tree.node_address(0, 0)

    def test_storage_overhead(self):
        tree = self._tree(arity=64, leaves=65536)
        assert tree.storage_overhead_bytes() == (1024 + 16) * 64


class TestCounterTreeMechanism:
    def test_cold_read_walks_tree(self):
        system = build_configuration("integrity_tree_64")
        breakdown = system.access_breakdown(0x100000, 0)
        assert breakdown.metadata_lines_touched >= 2  # counter + >=1 tree node
        assert breakdown.metadata_misses >= 2
        assert breakdown.extra_cpu_cycles == 40.0

    def test_warm_read_hits_counter(self):
        system = build_configuration("integrity_tree_64")
        system.read(0x100000, 0)
        breakdown = system.access_breakdown(0x100040, 10000)
        assert breakdown.metadata_misses == 0
        assert breakdown.extra_cpu_cycles == 0.0

    def test_write_dirties_metadata(self):
        system = build_configuration("integrity_tree_64")
        system.write(0x100000, 0)
        dirty = system.metadata_cache.flush()
        assert len(dirty) == 1 + len(system.path.tree.path_for_leaf(0x100000 // 64 // 64))

    def test_tree_traffic_exceeds_secddr_traffic(self):
        # The defining property behind Figure 6: a cold random read under the
        # tree needs strictly more metadata fetches than under SecDDR (which
        # needs at most the counter line).
        tree = build_configuration("integrity_tree_64").access_breakdown(0x12345000, 0)
        secddr = build_configuration("secddr_ctr").access_breakdown(0x12345000, 0)
        assert tree.metadata_misses >= 2
        assert secddr.metadata_misses == 1


class TestHashTreeMechanism:
    def test_cold_read_fetches_mac_and_nodes(self):
        system = build_configuration("integrity_tree_8_hash")
        breakdown = system.access_breakdown(0x200000, 0)
        assert breakdown.metadata_lines_touched >= 2
        assert breakdown.extra_cpu_cycles == 40.0  # XTS always pays decrypt

    def test_a_mac_line_covers_8_data_lines(self):
        system = build_configuration("integrity_tree_8_hash")
        system.read(0, 0)
        assert system.access_breakdown(7 * 64, 1000).metadata_misses == 0
        assert system.access_breakdown(8 * 64, 2000).metadata_misses >= 1
        assert system.metadata_cache.flush() == []  # reads dirty nothing

    def test_hash_tree_touches_more_levels_than_counter_tree(self):
        hash_breakdown = build_configuration("integrity_tree_8_hash").access_breakdown(0x300000, 0)
        counter_breakdown = build_configuration("integrity_tree_64").access_breakdown(0x300000, 0)
        assert hash_breakdown.metadata_lines_touched > counter_breakdown.metadata_lines_touched

    def test_write_dirties_mac_line(self):
        system = build_configuration("integrity_tree_8_hash")
        system.write(0x200000, 0)
        mac_line = system.layout.mac_region_base + (0x200000 // 64 // 8) * 64
        assert mac_line in system.metadata_cache.flush()
