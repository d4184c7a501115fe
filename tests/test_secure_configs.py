"""Tests for the named configuration registry and factory."""

import pytest

from repro.core.config import SecDDRConfig
from repro.dram.dimm import DimmTopology
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.secure.baseline import EncryptOnlySystem, TdxBaselineSystem
from repro.secure.configs import (
    CONFIGURATIONS,
    SECDDR_WRITE_BURST_CYCLES,
    SECDDR_WRITE_BURST_CYCLES_DDR5,
    build_configuration,
    configuration_names,
)
from repro.secure.encryption import EncryptionMode
from repro.secure.integrity_tree import CounterIntegrityTreeSystem, HashMerkleTreeSystem
from repro.secure.invisimem import InvisiMemSystem
from repro.secure.secddr_model import SecDDRSystem


def _ewcrc_write_burst_cycles(timing):
    # Each x8 chip sends its eWCRC bytes as extra beats after the data
    # burst (BL8 -> BL10, BL16 -> BL18), two beats per DRAM cycle.
    ewcrc_beats = SecDDRConfig().ewcrc_bytes * 8 // DimmTopology().device_width
    beats = 2 * timing.burst_cycles_write + ewcrc_beats
    return timing.with_write_burst_beats(beats).burst_cycles_write


class TestRegistry:
    def test_every_figure6_configuration_exists(self):
        for name in (
            "tdx_baseline",
            "integrity_tree_64",
            "secddr_ctr",
            "encrypt_only_ctr",
            "secddr_xts",
            "encrypt_only_xts",
        ):
            assert name in CONFIGURATIONS

    def test_every_figure10_12_configuration_exists(self):
        for name in (
            "invisimem_unrealistic_xts",
            "invisimem_realistic_xts",
            "invisimem_unrealistic_ctr",
            "invisimem_realistic_ctr",
        ):
            assert name in CONFIGURATIONS

    def test_every_figure8_configuration_exists(self):
        for name in (
            "integrity_tree_8_hash",
            "integrity_tree_128",
            "secddr_ctr_pack8",
            "secddr_ctr_pack128",
            "encrypt_only_ctr_pack8",
            "encrypt_only_ctr_pack128",
        ):
            assert name in CONFIGURATIONS

    def test_configuration_names_order_stable(self):
        assert configuration_names()[0] == "tdx_baseline"

    def test_replay_protection_flags(self):
        assert not CONFIGURATIONS["tdx_baseline"].replay_protection
        assert not CONFIGURATIONS["encrypt_only_xts"].replay_protection
        assert CONFIGURATIONS["secddr_xts"].replay_protection
        assert CONFIGURATIONS["integrity_tree_64"].replay_protection
        assert CONFIGURATIONS["invisimem_realistic_xts"].replay_protection

    def test_secddr_uses_extended_write_burst(self):
        spec = CONFIGURATIONS["secddr_xts"]
        assert spec.write_burst_cycles == SECDDR_WRITE_BURST_CYCLES
        assert spec.uses_extended_write_burst
        assert not CONFIGURATIONS["encrypt_only_xts"].uses_extended_write_burst

    @pytest.mark.parametrize("timing, cycles", [
        (DDR4_3200, SECDDR_WRITE_BURST_CYCLES),
        (DDR5_4800, SECDDR_WRITE_BURST_CYCLES_DDR5),
    ], ids=["ddr4", "ddr5"])
    def test_write_burst_carries_the_functional_ewcrc(self, timing, cycles):
        assert _ewcrc_write_burst_cycles(timing) == cycles

    @pytest.mark.parametrize("name", configuration_names())
    def test_only_secddr_takes_the_ewcrc_write_burst(self, name):
        # Every SecDDR configuration's channel carries the eWCRC beats of its
        # own DRAM generation; every other one keeps the plain burst.
        spec = CONFIGURATIONS[name]
        channel = build_configuration(name).controller.channel
        if spec.mechanism == "secddr":
            assert spec.write_burst_cycles == _ewcrc_write_burst_cycles(spec.timing)
            assert spec.uses_extended_write_burst
        else:
            assert spec.write_burst_cycles is None
            assert not spec.uses_extended_write_burst
        expected = spec.write_burst_cycles or spec.timing.burst_cycles_write
        assert channel.write_burst_cycles == expected

    def test_realistic_invisimem_uses_derated_channel(self):
        assert CONFIGURATIONS["invisimem_realistic_xts"].timing is DDR4_2400
        assert CONFIGURATIONS["invisimem_unrealistic_xts"].timing is DDR4_3200


class TestFactory:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_configuration("sgx_classic")

    def test_builds_expected_types(self):
        assert isinstance(build_configuration("tdx_baseline"), TdxBaselineSystem)
        assert isinstance(build_configuration("integrity_tree_64"), CounterIntegrityTreeSystem)
        assert isinstance(build_configuration("integrity_tree_8_hash"), HashMerkleTreeSystem)
        assert isinstance(build_configuration("secddr_xts"), SecDDRSystem)
        assert isinstance(build_configuration("encrypt_only_ctr"), EncryptOnlySystem)
        assert isinstance(build_configuration("invisimem_realistic_xts"), InvisiMemSystem)

    def test_encryption_modes_propagate(self):
        assert build_configuration("secddr_ctr").encryption_mode is EncryptionMode.COUNTER
        assert build_configuration("secddr_xts").encryption_mode is EncryptionMode.XTS

    def test_counter_packing_propagates(self):
        system = build_configuration("secddr_ctr_pack8")
        assert system.encryption.counters_per_line == 8
        system = build_configuration("encrypt_only_ctr_pack128")
        assert system.encryption.counters_per_line == 128

    def test_tree_arity_propagates(self):
        assert build_configuration("integrity_tree_64").tree.geometry.arity == 64
        assert build_configuration("integrity_tree_128").tree.geometry.arity == 128
        assert build_configuration("integrity_tree_8_hash").tree.geometry.arity == 8

    def test_secddr_controller_has_extended_burst(self):
        system = build_configuration("secddr_xts")
        assert system.controller.channel.write_burst_cycles == SECDDR_WRITE_BURST_CYCLES

    def test_invisimem_realistic_runs_slower_channel(self):
        system = build_configuration("invisimem_realistic_xts")
        assert system.controller.config.timing.freq_mhz == 1200.0

    def test_fresh_state_per_call(self):
        a = build_configuration("secddr_xts")
        b = build_configuration("secddr_xts")
        assert a.controller is not b.controller
        assert a.metadata_cache is not b.metadata_cache

    def test_custom_metadata_cache_size(self):
        system = build_configuration("integrity_tree_64", metadata_cache_bytes=64 * 1024)
        assert system.metadata_cache._cache.config.size_bytes == 64 * 1024
