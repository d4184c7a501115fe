"""Tests for the named configuration registry and factory."""

import pytest

from repro.core.config import SecDDRConfig
from repro.dram.dimm import DimmTopology
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.secure.base import SecureMemorySystem
from repro.secure.configs import (
    CONFIGURATIONS,
    SECDDR_WRITE_BURST_CYCLES,
    SECDDR_WRITE_BURST_CYCLES_DDR5,
    EncryptionMode,
    SystemConfiguration,
    build_configuration,
    configuration_names,
)
from repro.sim.engines import _batch_unsupported

#: Metadata region bases (``MetadataLayout``): counter lines and MAC lines.
CTR, MAC = 1 << 40, 1 << 42

#: What one demand access costs, per built-in mechanism and encryption mode,
#: for a spec with 32 counters per line and no ``tree_arity``: (extra CPU
#: cycles after a metadata hit, after a miss, metadata region, data lines per
#: metadata line, integrity tree as (arity, leaf lines)).
MECHANISM_PATHS = {
    ("none", "ctr"): (0, 40, CTR, 32, None),
    ("none", "xts"): (40, 40, None, 1, None),
    ("none", "none"): (0, 0, None, 1, None),
    ("tdx_baseline", "ctr"): (0, 40, CTR, 32, None),
    ("tdx_baseline", "xts"): (40, 40, None, 1, None),
    ("tdx_baseline", "none"): (0, 0, None, 1, None),
    ("secddr", "ctr"): (0, 40, CTR, 32, None),
    ("secddr", "xts"): (40, 40, None, 1, None),
    ("secddr", "none"): (40, 40, None, 1, None),  # decrypts as AES-XTS
    ("invisimem", "ctr"): (80, 120, CTR, 32, None),
    ("invisimem", "xts"): (120, 120, None, 1, None),
    ("invisimem", "none"): (120, 120, None, 1, None),
    ("tree", "ctr"): (0, 40, CTR, 32, (64, 2**28 // 32)),
    ("tree", "xts"): (0, 40, CTR, 32, (64, 2**28 // 32)),
    ("tree", "none"): (0, 40, CTR, 32, (64, 2**28 // 32)),
    ("hash_tree", "ctr"): (40, 40, MAC, 8, (8, 2**25)),
    ("hash_tree", "xts"): (40, 40, MAC, 8, (8, 2**25)),
    ("hash_tree", "none"): (40, 40, MAC, 8, (8, 2**25)),
}

#: The same, for every registered configuration.
REGISTERED_PATHS = {
    "tdx_baseline": (40, 40, None, 1, None),
    "integrity_tree_64": (0, 40, CTR, 64, (64, 2**22)),
    "integrity_tree_128": (0, 40, CTR, 128, (128, 2**21)),
    "integrity_tree_8_hash": (40, 40, MAC, 8, (8, 2**25)),
    "secddr_ctr": (0, 40, CTR, 64, None),
    "encrypt_only_ctr": (0, 40, CTR, 64, None),
    "secddr_xts": (40, 40, None, 1, None),
    "encrypt_only_xts": (40, 40, None, 1, None),
    "invisimem_unrealistic_xts": (120, 120, None, 1, None),
    "invisimem_realistic_xts": (120, 120, None, 1, None),
    "invisimem_unrealistic_ctr": (80, 120, CTR, 64, None),
    "invisimem_realistic_ctr": (80, 120, CTR, 64, None),
    "integrity_tree_8": (0, 40, CTR, 8, (8, 2**25)),
    "secddr_ctr_pack8": (0, 40, CTR, 8, None),
    "encrypt_only_ctr_pack8": (0, 40, CTR, 8, None),
    "secddr_ctr_pack128": (0, 40, CTR, 128, None),
    "encrypt_only_ctr_pack128": (0, 40, CTR, 128, None),
    "tdx_baseline_ddr5": (40, 40, None, 1, None),
    "secddr_xts_ddr5": (40, 40, None, 1, None),
    "encrypt_only_xts_ddr5": (40, 40, None, 1, None),
}


def _path_row(spec):
    path = build_configuration(spec).path
    tree = None if path.tree is None else (path.tree.geometry.arity, path.tree.geometry.leaf_lines)
    return (path.extra_hit, path.extra_miss, path.base, path.lines_per_entry, tree)


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

    def test_builds_a_stock_system(self):
        for name in configuration_names():
            system = build_configuration(name)
            assert type(system) is SecureMemorySystem, name
            assert _batch_unsupported(system) is None, name

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


class TestMetadataPath:
    @pytest.mark.parametrize("mechanism, encryption", sorted(MECHANISM_PATHS))
    def test_each_mechanism_and_encryption_mode(self, mechanism, encryption):
        spec = SystemConfiguration(
            name="cell", description="", mechanism=mechanism,
            encryption=EncryptionMode(encryption), counters_per_line=32,
        )
        assert _path_row(spec) == MECHANISM_PATHS[mechanism, encryption]

    @pytest.mark.parametrize("name", configuration_names())
    def test_each_registered_configuration(self, name):
        assert _path_row(name) == REGISTERED_PATHS[name]
