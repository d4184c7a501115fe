"""Tests for the composed functional memory system."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionalMemorySystem, IntegrityViolation, SecDDRConfig


class TestNormalOperation:
    def test_write_read_round_trip(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        assert secddr_memory.read(0x4000) == sample_line

    def test_multiple_lines(self, secddr_memory):
        for i in range(16):
            secddr_memory.write(0x10000 + i * 64, bytes([i]) * 64)
        for i in range(16):
            assert secddr_memory.read(0x10000 + i * 64) == bytes([i]) * 64

    def test_overwrite_returns_latest(self, secddr_memory):
        secddr_memory.write(0x4000, b"\x01" * 64)
        secddr_memory.write(0x4000, b"\x02" * 64)
        assert secddr_memory.read(0x4000) == b"\x02" * 64

    def test_counters_stay_synchronized(self, secddr_memory, sample_line):
        for i in range(8):
            secddr_memory.write(0x8000 + i * 64, sample_line)
            secddr_memory.read(0x8000 + i * 64)
        assert secddr_memory.counters_in_sync()

    def test_data_is_encrypted_at_rest(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        stored = secddr_memory.storage.read_line(0x4000)
        assert stored.data != sample_line

    def test_baseline_round_trip(self, baseline_memory, sample_line):
        baseline_memory.write(0x4000, sample_line)
        assert baseline_memory.read(0x4000) == sample_line

    def test_stats_counted(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        secddr_memory.read(0x4000)
        assert secddr_memory.stats.writes == 1
        assert secddr_memory.stats.reads == 1

    @given(
        payload=st.binary(min_size=64, max_size=64),
        line_index=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, provisioned, payload, line_index):
        memory = provisioned()
        address = line_index * 64
        memory.write(address, payload)
        assert memory.read(address) == payload


class TestTcbAndTopology:
    def test_untrusted_dimm_tcb_is_ecc_chips_only(self, secddr_memory):
        logic_roles = {c.role.value for c in secddr_memory.topology.security_logic_chips()}
        assert logic_roles == {"ecc_chip"}

    def test_trusted_module_places_logic_in_ecc_db(self):
        memory = FunctionalMemorySystem(trusted_module=True, initial_counter=0)
        logic_roles = {c.role.value for c in memory.topology.security_logic_chips()}
        assert logic_roles == {"ecc_data_buffer"}

    def test_per_rank_ecc_logic(self, secddr_memory):
        assert set(secddr_memory.ecc_chips) == {0, 1}


class TestReattestation:
    def test_reattest_clears_memory(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        secddr_memory.reattest(clear_memory=True)
        assert secddr_memory.storage.occupied_lines() == 0
        # New keys/counters still give a working system.
        secddr_memory.write(0x4000, sample_line)
        assert secddr_memory.read(0x4000) == sample_line

    def test_stale_preboot_state_unreadable_after_reattestation(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        image = secddr_memory.storage.snapshot()
        secddr_memory.reattest(clear_memory=True)
        # The attacker restores the pre-boot image, but the fresh keys and
        # counters make it unverifiable.
        secddr_memory.storage.restore(image)
        with pytest.raises(IntegrityViolation):
            secddr_memory.read(0x4000)

    def test_baseline_reattest_still_clears(self, baseline_memory, sample_line):
        baseline_memory.write(0x4000, sample_line)
        result = baseline_memory.reattest(clear_memory=True)
        assert result.memory_cleared
        assert baseline_memory.storage.occupied_lines() == 0


class TestErrorPaths:
    def test_read_of_unwritten_line_fails_verification(self, secddr_memory):
        with pytest.raises(IntegrityViolation):
            secddr_memory.read(0x123440)

    def test_invalid_rank_access_rejected(self, secddr_memory, sample_line):
        with pytest.raises(ValueError):
            secddr_memory._ecc_chip_for(7)

    def test_dropped_read_command_times_out(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)

        class DropReads:
            def intercept_read_command(self, command):
                return None

        secddr_memory.attach_adversary(DropReads())
        with pytest.raises(TimeoutError):
            secddr_memory.read(0x4000)
        secddr_memory.detach_adversary()
        assert secddr_memory.stats.dropped_reads == 1


def _state(memory):
    """Everything a copy must not leak into: lines, counters, stats, bus, keys."""
    return (
        memory.storage.snapshot(),
        {rank: chip.counter.snapshot() for rank, chip in memory.ecc_chips.items()},
        {rank: memory.processor.counter_for_rank(rank).snapshot() for rank in memory.ecc_chips},
        asdict(memory.stats),
        memory.bus.adversary,
        dict(memory.attestation.transaction_keys),
    )


class TestCopy:
    def test_copy_is_independent_of_original_and_siblings(self, secddr_memory, sample_line):
        original = secddr_memory
        original.write(0x4000, sample_line)
        expected = _state(original)
        first, sibling = original.copy(), original.copy()

        class DropWrites:
            def intercept_write(self, transaction):
                return None

        first.write(0x8000, b"\x01" * 64)
        first.read(0x4000)
        first.attach_adversary(DropWrites())
        first.write(0x4000, b"\x02" * 64)
        assert not first.counters_in_sync()
        first.reattest(clear_memory=True)
        assert first.attestation.transaction_keys != expected[-1]

        for other in (original, sibling):
            assert _state(other) == expected
            assert other.counters_in_sync()
            assert other.read(0x4000) == sample_line

    def test_copy_chips_share_the_copys_own_storage(self, secddr_memory, monkeypatch):
        def no_attestation(*args, **kwargs):
            raise AssertionError("copy() must not re-run __init__'s attestation")

        monkeypatch.setattr(FunctionalMemorySystem, "__init__", no_attestation)
        copy = secddr_memory.copy()
        assert copy.storage is not secddr_memory.storage
        for rank, chip in copy.ecc_chips.items():
            assert chip.storage is copy.storage
            assert chip is not secddr_memory.ecc_chips[rank]

    def test_copies_share_only_what_construction_alone_assigns(self, secddr_memory):
        original = secddr_memory
        first, sibling = original.copy(), original.copy()
        for copy in (first, sibling):
            for name in ("config", "mapping", "topology"):
                assert getattr(copy, name) is getattr(original, name), name
            assert copy.processor.mapping is original.mapping
            assert copy.processor.config is original.config
        for name in ("processor", "storage", "bus", "stats", "certificate_authority",
                     "identities", "attestation"):
            parts = [getattr(system, name) for system in (original, first, sibling)]
            assert len({id(part) for part in parts}) == 3, name
        for rank in original.ecc_chips:
            chips = [system.ecc_chips[rank] for system in (original, first, sibling)]
            assert len({id(chip) for chip in chips}) == 3
            assert len({id(chip.counter) for chip in chips}) == 3

    def test_unwritten_line_on_a_copy_fails_verification(self, secddr_memory):
        with pytest.raises(IntegrityViolation):
            secddr_memory.copy().read(0x123440)
