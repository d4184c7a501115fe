"""Tests for bank and rank timing state machines."""

import pytest

from repro.dram.bank import Bank
from repro.dram.rank import Rank
from repro.dram.timing import DDR4_3200


class TestBankRowBuffer:
    def test_starts_idle(self):
        bank = Bank(DDR4_3200)
        assert bank.is_idle()
        assert bank.classify_access(5) == "miss"

    def test_activate_opens_row(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=5)
        assert bank.is_row_open(5)
        assert bank.classify_access(5) == "hit"
        assert bank.classify_access(6) == "conflict"

    def test_precharge_closes_row(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=5)
        bank.issue_precharge(100)
        assert bank.is_idle()


class TestBankTiming:
    def test_trcd_enforced(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(10, row=1)
        assert bank.next_read >= 10 + DDR4_3200.tRCD
        assert bank.next_write >= 10 + DDR4_3200.tRCD

    def test_tras_enforced_before_precharge(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(10, row=1)
        assert bank.next_precharge >= 10 + DDR4_3200.tRAS

    def test_trp_enforced_before_activate(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=1)
        bank.issue_precharge(100)
        assert bank.next_activate >= 100 + DDR4_3200.tRP

    def test_trc_enforced_between_activates(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(10, row=1)
        assert bank.next_activate >= 10 + DDR4_3200.tRC

    def test_read_returns_data_ready_cycle(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=1)
        ready = bank.issue_read(50)
        assert ready == 50 + DDR4_3200.tCL + DDR4_3200.burst_cycles_read

    def test_write_recovery_delays_precharge(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=1)
        data_end = bank.issue_write(50)
        assert data_end == 50 + DDR4_3200.tCWL + DDR4_3200.burst_cycles_write
        assert bank.next_precharge >= data_end + DDR4_3200.tWR

    def test_extended_write_burst_occupies_longer(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=1)
        normal_end = bank.issue_write(50)
        bank2 = Bank(DDR4_3200)
        bank2.issue_activate(0, row=1)
        extended_end = bank2.issue_write(50, burst_cycles=5)
        assert extended_end == normal_end + 1

    def test_stats_counters(self):
        bank = Bank(DDR4_3200)
        bank.issue_activate(0, row=1)
        bank.issue_read(30)
        bank.issue_write(60)
        bank.issue_precharge(200)
        assert bank.stats.activates == 1
        assert bank.stats.reads == 1
        assert bank.stats.writes == 1
        assert bank.stats.precharges == 1


class TestRankConstraints:
    def test_rank_has_16_banks(self):
        rank = Rank(DDR4_3200)
        assert len(rank.all_banks()) == 16

    def test_tccd_s_between_bank_groups(self):
        rank = Rank(DDR4_3200)
        rank.record_column(bank_group=0, is_read=True, cycle=100)
        assert rank.earliest_column(1, True, 100) >= 100 + DDR4_3200.tCCD_S

    def test_tccd_l_within_bank_group(self):
        rank = Rank(DDR4_3200)
        rank.record_column(bank_group=0, is_read=True, cycle=100)
        assert rank.earliest_column(0, True, 100) >= 100 + DDR4_3200.tCCD_L

    def test_write_to_read_turnaround(self):
        rank = Rank(DDR4_3200)
        rank.record_column(bank_group=0, is_read=False, cycle=100)
        write_data_end = 100 + DDR4_3200.tCWL + DDR4_3200.burst_cycles_write
        assert rank.earliest_column(1, True, 100) >= write_data_end + DDR4_3200.tWTR_L

    def test_writes_do_not_delay_other_writes_by_twtr(self):
        rank = Rank(DDR4_3200)
        rank.record_column(bank_group=0, is_read=False, cycle=100)
        # Another write only respects tCCD, not the write-to-read turnaround.
        assert rank.earliest_column(1, False, 100) == 100 + DDR4_3200.tCCD_S

    def test_trrd_between_activates(self):
        rank = Rank(DDR4_3200)
        rank.record_activate(bank_group=0, cycle=100)
        assert rank.earliest_activate(1, 100) >= 100 + DDR4_3200.tRRD_S
        assert rank.earliest_activate(0, 100) >= 100 + DDR4_3200.tRRD_L

    def test_tfaw_limits_activate_burst(self):
        rank = Rank(DDR4_3200)
        for i in range(4):
            rank.record_activate(bank_group=i % 4, cycle=100 + i * DDR4_3200.tRRD_S)
        # The fifth activate must wait for the four-activate window.
        assert rank.earliest_activate(0, 0) >= 100 + DDR4_3200.tFAW

    def test_transaction_count_increments(self):
        rank = Rank(DDR4_3200)
        rank.record_column(0, True, 10)
        rank.record_column(1, False, 40)
        assert rank.transaction_count == 2
