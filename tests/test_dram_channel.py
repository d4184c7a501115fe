"""Tests for the DDR channel model."""

import random

import pytest

from repro.dram.address_mapping import AddressMapping, DecodedAddress
from repro.dram.channel import Channel
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800


def _decoded(rank=0, bank_group=0, bank=0, row=0, column=0):
    return DecodedAddress(channel=0, rank=rank, bank_group=bank_group, bank=bank, row=row, column=column)


class TestChannelAccess:
    def test_cold_read_latency_includes_act_and_cas(self):
        channel = Channel(DDR4_3200)
        result = channel.access(_decoded(row=3), is_read=True, earliest_cycle=0)
        t = DDR4_3200
        assert result.row_outcome == "miss"
        assert result.completion_cycle >= t.tRCD + t.tCL + t.burst_cycles_read

    def test_row_hit_is_faster_than_miss(self):
        channel = Channel(DDR4_3200)
        first = channel.access(_decoded(row=3), is_read=True, earliest_cycle=0)
        second = channel.access(_decoded(row=3, column=5), is_read=True, earliest_cycle=first.completion_cycle)
        assert second.row_outcome == "hit"
        miss_latency = first.completion_cycle - 0
        hit_latency = second.completion_cycle - first.completion_cycle
        assert hit_latency < miss_latency

    def test_row_conflict_requires_precharge(self):
        channel = Channel(DDR4_3200)
        first = channel.access(_decoded(row=3), is_read=True, earliest_cycle=0)
        conflict = channel.access(_decoded(row=9), is_read=True, earliest_cycle=first.completion_cycle)
        assert conflict.row_outcome == "conflict"
        # Conflict pays precharge + activate + CAS.
        assert conflict.completion_cycle - first.completion_cycle >= DDR4_3200.tRP

    def test_reads_to_different_banks_overlap(self):
        channel = Channel(DDR4_3200)
        a = channel.access(_decoded(bank_group=0, row=1), is_read=True, earliest_cycle=0)
        b = channel.access(_decoded(bank_group=1, row=1), is_read=True, earliest_cycle=0)
        # Bank-level parallelism: the second access does not pay a full
        # serial latency; data transfers are only separated by the burst.
        assert b.completion_cycle - a.completion_cycle < a.completion_cycle

    def test_data_bus_serializes_bursts(self):
        channel = Channel(DDR4_3200)
        a = channel.access(_decoded(bank_group=0, row=1), is_read=True, earliest_cycle=0)
        b = channel.access(_decoded(bank_group=1, row=1), is_read=True, earliest_cycle=0)
        assert b.data_start_cycle >= a.data_start_cycle + DDR4_3200.burst_cycles_read

    def test_extended_write_burst_occupies_bus_longer(self):
        normal = Channel(DDR4_3200)
        extended = Channel(DDR4_3200, write_burst_cycles=5)
        n = normal.access(_decoded(row=1), is_read=False, earliest_cycle=0)
        e = extended.access(_decoded(row=1), is_read=False, earliest_cycle=0)
        assert e.completion_cycle == n.completion_cycle + 1

    def test_memory_side_latency_added_to_reads(self):
        plain = Channel(DDR4_3200)
        invisimem_like = Channel(DDR4_3200, memory_side_read_latency=20)
        p = plain.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        i = invisimem_like.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        assert i.completion_cycle == p.completion_cycle + 20

    def test_stats_track_reads_and_writes(self):
        channel = Channel(DDR4_3200)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        channel.access(_decoded(row=1), is_read=False, earliest_cycle=500)
        assert channel.stats.reads == 1
        assert channel.stats.writes == 1
        assert channel.stats.read_bus_cycles == DDR4_3200.burst_cycles_read

    def test_each_access_counts_one_row_outcome(self):
        channel = Channel(DDR4_3200)
        first = channel.access(_decoded(row=3), is_read=True, earliest_cycle=0)
        hit = channel.access(_decoded(row=3, column=5), is_read=False, earliest_cycle=first.completion_cycle)
        conflict = channel.access(_decoded(row=9), is_read=True, earliest_cycle=hit.completion_cycle)
        assert [first.row_outcome, hit.row_outcome, conflict.row_outcome] == ["miss", "hit", "conflict"]
        stats = channel.stats
        assert stats.row_hits and stats.row_misses and stats.row_conflicts
        assert stats.row_hits + stats.row_misses + stats.row_conflicts == stats.reads + stats.writes

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("timing", [DDR4_2400, DDR4_3200, DDR5_4800], ids=lambda t: t.name)
    def test_outcomes_match_an_open_row_oracle(self, timing, seed):
        # Random accesses over both ranks and all 16 banks of each, three
        # rows per bank, issued far enough apart to cross several refreshes.
        rng = random.Random(seed)
        channel = Channel(timing)
        open_rows = {}
        counts = {"hit": 0, "miss": 0, "conflict": 0}
        cycle = 0
        for _ in range(400):
            decoded = _decoded(
                rank=rng.randrange(2), bank_group=rng.randrange(4),
                bank=rng.randrange(4), row=rng.randrange(3),
            )
            refreshes = channel.stats.refreshes
            result = channel.access(decoded, is_read=rng.random() < 0.7, earliest_cycle=cycle)
            if channel.stats.refreshes > refreshes:
                open_rows.clear()  # an all-bank refresh closes every row
            bank = (decoded.rank, decoded.bank_group, decoded.bank)
            if bank not in open_rows:
                expected = "miss"
            elif open_rows[bank] == decoded.row:
                expected = "hit"
            else:
                expected = "conflict"
            assert result.row_outcome == expected
            open_rows[bank] = decoded.row
            counts[expected] += 1
            cycle = result.completion_cycle + rng.randrange(200)
        stats = channel.stats
        assert stats.refreshes >= 2
        assert (stats.row_hits, stats.row_misses, stats.row_conflicts) == (
            counts["hit"], counts["miss"], counts["conflict"]
        )
        assert min(counts.values()) > 0
        assert stats.row_hits + stats.row_misses + stats.row_conflicts == stats.reads + stats.writes == 400

    def test_utilization_fractions(self):
        channel = Channel(DDR4_3200)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        util = channel.utilization(1000)
        assert 0.0 < util["read"] < 1.0
        assert util["write"] == 0.0
        assert util["total"] == pytest.approx(util["read"])

    def test_utilization_empty_window(self):
        channel = Channel(DDR4_3200)
        assert channel.utilization(0) == {"read": 0.0, "write": 0.0, "total": 0.0}


class TestRefresh:
    def test_refresh_fires_after_trefi(self):
        channel = Channel(DDR4_3200)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=DDR4_3200.tREFI + 10)
        assert channel.stats.refreshes >= 1

    def test_refresh_closes_rows(self):
        channel = Channel(DDR4_3200)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        channel.maybe_refresh(DDR4_3200.tREFI + 1)
        bank = channel.rank(0).bank(0, 0)
        assert bank.is_idle()

    def test_no_refresh_before_interval(self):
        channel = Channel(DDR4_3200)
        channel.access(_decoded(row=1), is_read=True, earliest_cycle=0)
        assert channel.stats.refreshes == 0
