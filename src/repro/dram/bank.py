"""DRAM bank state machine with row-buffer and per-bank timing tracking.

Each bank tracks its open row (if any) and the earliest cycle at which each
class of command can legally be issued to it, given the previously issued
commands.  The memory controller consults these to compute when a request's
column command can go out and when its data transfer completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import DDRTimingParameters

__all__ = ["Bank", "BankStats"]


@dataclass
class BankStats:
    """Per-bank activity counters."""

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0


class Bank:
    """One DRAM bank: open-row state plus earliest-issue constraints.

    The timing state is expressed as "earliest cycle at which command X may
    be issued"; the controller takes the max over bank, rank and channel
    constraints when scheduling.
    """

    def __init__(self, timing: DDRTimingParameters) -> None:
        self.timing = timing
        self.open_row: Optional[int] = None
        # Earliest cycles at which each command class may issue.
        self.next_activate: int = 0
        self.next_precharge: int = 0
        self.next_read: int = 0
        self.next_write: int = 0
        self.stats = BankStats()

    # ------------------------------------------------------------------
    # Row-buffer queries
    # ------------------------------------------------------------------
    def is_row_open(self, row: int) -> bool:
        """True when ``row`` is currently latched in the row buffer."""
        return self.open_row == row

    def is_idle(self) -> bool:
        """True when no row is open (bank is precharged)."""
        return self.open_row is None

    def classify_access(self, row: int) -> str:
        """Row-buffer outcome for an access to ``row``: hit/miss/conflict."""
        if self.open_row is None:
            return "miss"
        if self.open_row == row:
            return "hit"
        return "conflict"

    # ------------------------------------------------------------------
    # Command issue (the controller has already checked legality/ordering).
    # ------------------------------------------------------------------
    def issue_activate(self, cycle: int, row: int) -> None:
        """Latch ``row`` into the row buffer at ``cycle``."""
        t = self.timing
        self.open_row = row
        self.stats.activates += 1
        # Column commands may follow after tRCD.
        self.next_read = max(self.next_read, cycle + t.tRCD)
        self.next_write = max(self.next_write, cycle + t.tRCD)
        # Precharge no earlier than tRAS after the activate.
        self.next_precharge = max(self.next_precharge, cycle + t.tRAS)
        # Same-bank activate requires a precharge first; enforced via tRC.
        self.next_activate = max(self.next_activate, cycle + t.tRC)

    def issue_precharge(self, cycle: int) -> None:
        """Close the open row at ``cycle``."""
        t = self.timing
        self.open_row = None
        self.stats.precharges += 1
        self.next_activate = max(self.next_activate, cycle + t.tRP)

    def issue_read(self, cycle: int) -> int:
        """Issue a column read at ``cycle``; returns the data-ready cycle."""
        t = self.timing
        self.stats.reads += 1
        # A read delays a later precharge by tRTP, and the next same-bank
        # column command by tCCD_L (tracked at the rank level for the
        # bank-group distinction; the per-bank constraint is conservative).
        self.next_precharge = max(self.next_precharge, cycle + t.tRTP)
        return cycle + t.tCL + t.burst_cycles_read

    def issue_write(self, cycle: int, burst_cycles: Optional[int] = None) -> int:
        """Issue a column write at ``cycle``; returns the write-recovery end.

        ``burst_cycles`` overrides the timing set's write burst length; the
        SecDDR configurations pass the eWCRC-extended burst here.
        """
        t = self.timing
        self.stats.writes += 1
        burst = t.burst_cycles_write if burst_cycles is None else burst_cycles
        data_end = cycle + t.tCWL + burst
        # Precharge must wait for write recovery after the last data beat.
        self.next_precharge = max(self.next_precharge, data_end + t.tWR)
        return data_end
