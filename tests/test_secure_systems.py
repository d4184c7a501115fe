"""Timing behaviour of the built-in mechanisms, through the stock systems
``build_configuration`` returns."""

from repro.secure.configs import build_configuration


class TestEncryptOnly:
    def test_xts_pays_fixed_decrypt_latency(self):
        system = build_configuration("encrypt_only_xts")
        _, extra = system.read(0x1000, 0)
        assert extra == 40.0
        assert system.stats.metadata_accesses == 0

    def test_ctr_miss_pays_latency_and_fetch(self):
        system = build_configuration("encrypt_only_ctr")
        breakdown = system.access_breakdown(0x1000, 0)
        assert breakdown.extra_cpu_cycles == 40.0
        assert breakdown.metadata_lines_touched == 1

    def test_ctr_hit_hides_latency(self):
        system = build_configuration("encrypt_only_ctr")
        system.read(0x1000, 0)
        breakdown = system.access_breakdown(0x1040, 5000)
        assert breakdown.extra_cpu_cycles == 0.0
        assert breakdown.metadata_misses == 0

    def test_ctr_write_dirties_counter(self):
        system = build_configuration("encrypt_only_ctr")
        system.write(0x1000, 0)
        # Data line 64 is the first of the second counter line's 64 lines.
        assert system.metadata_cache.flush() == [system.layout.counter_region_base + 64]

    def test_xts_write_has_no_metadata(self):
        system = build_configuration("encrypt_only_xts")
        system.write(0x1000, 0)
        assert system.metadata_cache.flush() == []
        assert system.stats.metadata_accesses == 0


class TestCounterLines:
    def test_a_counter_line_covers_counters_per_line_data_lines(self):
        for name, per_line in (("encrypt_only_ctr_pack8", 8), ("encrypt_only_ctr", 64),
                               ("encrypt_only_ctr_pack128", 128)):
            system = build_configuration(name)
            system.read(0, 0)
            # The last data line the counter line covers hits; the next misses.
            assert system.access_breakdown((per_line - 1) * 64, 1000).metadata_misses == 0, name
            assert system.access_breakdown(per_line * 64, 2000).metadata_misses == 1, name


class TestTdxBaseline:
    def test_timing_matches_encrypt_only_xts(self):
        # MACs ride the ECC bus, so the baseline's timing equals encrypt-only.
        baseline = build_configuration("tdx_baseline")
        encrypt_only = build_configuration("encrypt_only_xts")
        assert baseline.path == encrypt_only.path
        assert baseline.read(0x1000, 0) == encrypt_only.read(0x1000, 0)


class TestSecDDR:
    def test_replay_protection_without_tree_traffic(self):
        system = build_configuration("secddr_xts")
        breakdown = system.access_breakdown(0x1000, 0)
        # No tree, no MAC traffic: identical metadata profile to encrypt-only.
        assert breakdown.metadata_lines_touched == 0
        assert breakdown.extra_cpu_cycles == 40.0

    def test_ctr_variant_touches_only_counters(self):
        system = build_configuration("secddr_ctr")
        breakdown = system.access_breakdown(0x1000, 0)
        assert breakdown.metadata_lines_touched == 1

    def test_extended_write_burst_slows_writes_only(self):
        normal = build_configuration("encrypt_only_xts")
        secddr = build_configuration("secddr_xts")
        # Reads are unaffected.
        n_read, _ = normal.read(0x1000, 0)
        s_read, _ = secddr.read(0x1000, 0)
        assert n_read == s_read
        # Writes occupy the bus one cycle longer.
        normal.write(0x2000, 1000)
        secddr.write(0x2000, 1000)
        assert secddr.controller.flush() == normal.controller.flush() + 1


class TestInvisiMem:
    def test_channel_mac_latency_on_reads(self):
        system = build_configuration("invisimem_unrealistic_xts")
        _, extra = system.read(0x1000, 0)
        # XTS decrypt (40) + 2x per-transaction MAC (80).
        assert extra == 120.0

    def test_ctr_variant_also_pays_channel_macs(self):
        system = build_configuration("invisimem_unrealistic_ctr")
        breakdown = system.access_breakdown(0x1000, 0)
        # Counter miss: 40 (OTP) + 80 (channel MACs).
        assert breakdown.extra_cpu_cycles == 120.0
        system.read(0x1000, 0)
        # Counter hit: the OTP is free, the channel MACs are not.
        assert system.access_breakdown(0x1040, 5000).extra_cpu_cycles == 80.0

    def test_read_latency_exceeds_secddr(self):
        secddr = build_configuration("secddr_xts")
        invisimem = build_configuration("invisimem_unrealistic_xts")
        _, secddr_extra = secddr.read(0x1000, 0)
        _, invisimem_extra = invisimem.read(0x1000, 0)
        assert invisimem_extra > secddr_extra
