"""Tests for the protected-memory scalability analysis."""

import pytest

from repro.analysis.scalability import (
    scalability_sweep,
    secddr_scalability,
    tree_scalability,
)

GB = 2**30
TB = 2**40


class TestTreeScalability:
    def test_16gb_64ary_has_three_offchip_levels(self):
        point = tree_scalability(16 * GB, arity=64)
        assert point.offchip_levels == 3
        assert point.worst_case_extra_accesses == 4  # counter line + 3 levels

    def test_tree_height_grows_with_capacity(self):
        small = tree_scalability(16 * GB, arity=64)
        large = tree_scalability(1 * TB, arity=64)
        assert large.offchip_levels > small.offchip_levels
        assert large.worst_case_extra_accesses > small.worst_case_extra_accesses

    def test_hash_tree_is_taller_than_counter_tree(self):
        counter = tree_scalability(16 * GB, arity=64)
        hashed = tree_scalability(16 * GB, arity=8, hash_tree=True)
        assert hashed.offchip_levels > counter.offchip_levels

    def test_metadata_overhead_fraction_reasonable(self):
        point = tree_scalability(16 * GB, arity=64)
        # Counters are 1/64 of capacity; tree nodes add a little more.
        assert 0.015 < point.metadata_overhead_fraction < 0.02

    def test_higher_arity_reduces_height(self):
        narrow = tree_scalability(256 * GB, arity=8, hash_tree=True)
        wide = tree_scalability(256 * GB, arity=128, counters_per_line=128)
        assert wide.offchip_levels < narrow.offchip_levels


class TestSecDDRScalability:
    def test_xts_has_zero_per_access_cost_at_any_capacity(self):
        for capacity in (16 * GB, 256 * GB, 4 * TB):
            point = secddr_scalability(capacity, counter_mode=False)
            assert point.worst_case_extra_accesses == 0
            assert point.offchip_levels == 0
            assert point.metadata_bytes == 0

    def test_ctr_cost_is_constant_in_capacity(self):
        small = secddr_scalability(16 * GB, counter_mode=True)
        large = secddr_scalability(4 * TB, counter_mode=True)
        assert small.worst_case_extra_accesses == large.worst_case_extra_accesses == 1

    def test_ctr_metadata_scales_linearly_but_stays_small(self):
        point = secddr_scalability(1 * TB, counter_mode=True)
        assert point.metadata_overhead_fraction == pytest.approx(1 / 64, rel=0.01)


class TestSweep:
    def test_sweep_covers_all_mechanisms(self):
        sweep = scalability_sweep(capacities_bytes=(16 * GB, 64 * GB))
        for capacity, points in sweep.items():
            assert set(points) == {"counter_tree", "hash_merkle_tree", "secddr_ctr", "secddr_xts"}

    def test_gap_between_tree_and_secddr_grows_with_capacity(self):
        sweep = scalability_sweep(capacities_bytes=(16 * GB, 1 * TB))
        small_gap = (
            sweep[16 * GB]["counter_tree"].worst_case_extra_accesses
            - sweep[16 * GB]["secddr_ctr"].worst_case_extra_accesses
        )
        large_gap = (
            sweep[1 * TB]["counter_tree"].worst_case_extra_accesses
            - sweep[1 * TB]["secddr_ctr"].worst_case_extra_accesses
        )
        assert large_gap > small_gap

    def test_protected_gib_property(self):
        point = secddr_scalability(16 * GB)
        assert point.protected_gib == pytest.approx(16.0)
