"""DRAM rank: a lockstep group of chips sharing bank-group timing state.

The rank tracks constraints that span banks within the rank:

* ``tCCD_S`` / ``tCCD_L`` -- column-to-column spacing to a different / the
  same bank group.
* ``tWTR_S`` / ``tWTR_L`` -- write-to-read turnaround.
* ``tRRD_S`` / ``tRRD_L`` and ``tFAW`` -- activate spacing.
* SecDDR's per-rank transaction counter lives conceptually at this level
  (each rank's ECC chip holds its own ``Ct``), so the rank also exposes a
  transaction count used by the functional model.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.bank import Bank
from repro.dram.timing import DDRTimingParameters

__all__ = ["Rank"]


class Rank:
    """Timing state for one rank (``bank_groups`` x ``banks_per_group`` banks)."""

    def __init__(
        self,
        timing: DDRTimingParameters,
        bank_groups: int = 4,
        banks_per_group: int = 4,
    ) -> None:
        self.timing = timing
        self.bank_groups = bank_groups
        self.banks_per_group = banks_per_group
        self.banks: Dict[Tuple[int, int], Bank] = {
            (bg, b): Bank(timing)
            for bg in range(bank_groups)
            for b in range(banks_per_group)
        }
        # Earliest issue cycles for rank-wide constraints, per bank group.
        self._next_column_same_group: Dict[int, int] = {bg: 0 for bg in range(bank_groups)}
        self._next_column_any: int = 0
        self._next_read_after_write: int = 0
        self._next_activate_same_group: Dict[int, int] = {bg: 0 for bg in range(bank_groups)}
        self._next_activate_any: int = 0
        self._activate_history: Deque[int] = deque(maxlen=4)
        # Functional-model hook: number of transactions this rank has seen.
        self.transaction_count: int = 0

    # ------------------------------------------------------------------
    def bank(self, bank_group: int, bank: int) -> Bank:
        """Return the bank object at (bank_group, bank)."""
        return self.banks[(bank_group, bank)]

    def all_banks(self) -> List[Bank]:
        """All banks in this rank."""
        return list(self.banks.values())

    # ------------------------------------------------------------------
    # Earliest-issue queries (the controller combines these with per-bank
    # and channel-level constraints).
    # ------------------------------------------------------------------
    def earliest_activate(self, bank_group: int, cycle: int) -> int:
        """Earliest cycle an ACT may issue to ``bank_group`` at/after ``cycle``."""
        earliest = max(
            cycle,
            self._next_activate_any,
            self._next_activate_same_group[bank_group],
        )
        if len(self._activate_history) == self._activate_history.maxlen:
            # tFAW: the fifth activate must wait for the window to slide.
            earliest = max(earliest, self._activate_history[0] + self.timing.tFAW)
        return earliest

    def earliest_column(self, bank_group: int, is_read: bool, cycle: int) -> int:
        """Earliest cycle a RD/WR may issue to ``bank_group`` at/after ``cycle``."""
        earliest = max(
            cycle,
            self._next_column_any,
            self._next_column_same_group[bank_group],
        )
        if is_read:
            earliest = max(earliest, self._next_read_after_write)
        return earliest

    # ------------------------------------------------------------------
    # Command bookkeeping
    # ------------------------------------------------------------------
    def record_activate(self, bank_group: int, cycle: int) -> None:
        """Record an ACT issued at ``cycle`` for rank-level spacing rules."""
        t = self.timing
        self._next_activate_any = max(self._next_activate_any, cycle + t.tRRD_S)
        self._next_activate_same_group[bank_group] = max(
            self._next_activate_same_group[bank_group], cycle + t.tRRD_L
        )
        self._activate_history.append(cycle)

    def record_column(
        self,
        bank_group: int,
        is_read: bool,
        cycle: int,
        burst_cycles: Optional[int] = None,
    ) -> None:
        """Record a RD/WR issued at ``cycle``."""
        t = self.timing
        self._next_column_any = max(self._next_column_any, cycle + t.tCCD_S)
        self._next_column_same_group[bank_group] = max(
            self._next_column_same_group[bank_group], cycle + t.tCCD_L
        )
        if not is_read:
            burst = t.burst_cycles_write if burst_cycles is None else burst_cycles
            write_data_end = cycle + t.tCWL + burst
            # Reads to this rank must respect the write-to-read turnaround.
            self._next_read_after_write = max(
                self._next_read_after_write, write_data_end + t.tWTR_L
            )
        self.transaction_count += 1
