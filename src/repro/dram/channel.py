"""DDR channel: shared data bus plus the ranks attached to it.

The channel serializes data bursts on the shared DQ bus, models the extra
write-burst cycles SecDDR's eWCRC needs, and exposes the access primitive the
memory controller uses: "serve one line-granular access to this decoded
address no earlier than cycle X, and tell me when its data transfer is done".

A per-access fixed latency adder models memory-side logic on the critical
path (InvisiMem's memory-side MAC verification); SecDDR leaves it at zero
because OTPs are precomputed off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dram.address_mapping import DecodedAddress
from repro.dram.rank import Rank
from repro.dram.timing import DDRTimingParameters

__all__ = ["Channel", "ChannelStats", "AccessResult"]


@dataclass
class ChannelStats:
    """Channel-level activity and occupancy counters."""

    reads: int = 0
    writes: int = 0
    read_bus_cycles: int = 0
    write_bus_cycles: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of serving one access on the channel."""

    issue_cycle: int
    data_start_cycle: int
    completion_cycle: int
    row_outcome: str


class Channel:
    """One DDR channel with its ranks, banks, and shared data bus."""

    def __init__(
        self,
        timing: DDRTimingParameters,
        ranks: int = 2,
        bank_groups: int = 4,
        banks_per_group: int = 4,
        write_burst_cycles: Optional[int] = None,
        memory_side_read_latency: int = 0,
        memory_side_write_latency: int = 0,
    ) -> None:
        self.timing = timing
        self.ranks: List[Rank] = [
            Rank(timing, bank_groups, banks_per_group) for _ in range(ranks)
        ]
        #: Write-burst occupancy in DRAM cycles (5 for SecDDR's BL10 on DDR4).
        self.write_burst_cycles = (
            timing.burst_cycles_write if write_burst_cycles is None else write_burst_cycles
        )
        #: Extra deterministic latency added by memory-side logic (InvisiMem).
        self.memory_side_read_latency = memory_side_read_latency
        self.memory_side_write_latency = memory_side_write_latency
        self._data_bus_free_at: int = 0
        self._last_refresh_cycle: int = 0
        self.stats = ChannelStats()

    # ------------------------------------------------------------------
    def rank(self, index: int) -> Rank:
        """Return rank ``index``."""
        return self.ranks[index]

    @property
    def data_bus_free_at(self) -> int:
        """Cycle at which the shared DQ bus becomes free."""
        return self._data_bus_free_at

    # ------------------------------------------------------------------
    def maybe_refresh(self, cycle: int) -> int:
        """Issue an all-bank refresh if the refresh interval has elapsed.

        Returns the cycle after which normal commands may resume (equal to
        ``cycle`` if no refresh was needed).  This is a simplified per-channel
        all-rank refresh model, and the batch engine's ``chan`` in
        :mod:`repro.sim.engines` copies it exactly:

        * it refreshes lazily, at the first access whose earliest cycle is at
          least ``tREFI`` after the last refresh, so an idle channel skips
          refreshes and later ones drift off the ``tREFI`` grid;
        * it closes every row with no PRE command, and with no ``tRAS`` or
          ``tRP`` check;
        * it holds each bank's next ACT until ``cycle + tRFC``.

        ``docs/architecture.md`` lists this under its substitutions.
        """
        t = self.timing
        if cycle - self._last_refresh_cycle < t.tREFI:
            return cycle
        self._last_refresh_cycle = cycle
        self.stats.refreshes += 1
        resume = cycle + t.tRFC
        for rank in self.ranks:
            for bank in rank.all_banks():
                bank.open_row = None
                bank.next_activate = max(bank.next_activate, resume)
        return resume

    # ------------------------------------------------------------------
    def access(
        self,
        decoded: DecodedAddress,
        is_read: bool,
        earliest_cycle: int,
    ) -> AccessResult:
        """Serve a line-granular access and return its timing outcome.

        The access is decomposed into (optional PRE), (optional ACT) and the
        column command, respecting per-bank, per-rank and data-bus
        constraints.  The caller (the memory controller) decides scheduling
        order; this method only computes legal earliest timings for the
        chosen access.
        """
        rank = self.ranks[decoded.rank]
        bank = rank.bank(decoded.bank_group, decoded.bank)
        t = self.timing

        cycle = self.maybe_refresh(earliest_cycle)
        outcome = bank.classify_access(decoded.row)
        bank.record_row_outcome(outcome)

        if outcome == "conflict":
            pre_cycle = max(cycle, bank.next_precharge)
            bank.issue_precharge(pre_cycle)
            cycle = pre_cycle
        if outcome in ("conflict", "miss"):
            act_cycle = max(cycle, bank.next_activate, rank.earliest_activate(decoded.bank_group, cycle))
            bank.issue_activate(act_cycle, decoded.row)
            rank.record_activate(decoded.bank_group, act_cycle)
            cycle = act_cycle

        # Column command: respect bank readiness, rank constraints and the
        # shared data bus occupancy.
        bank_ready = bank.next_read if is_read else bank.next_write
        col_cycle = max(
            cycle,
            bank_ready,
            rank.earliest_column(decoded.bank_group, is_read, cycle),
        )
        # The data burst must not overlap a previous burst on the DQ bus.
        if is_read:
            data_delay, burst = t.tCL, t.burst_cycles_read
        else:
            data_delay, burst = t.tCWL, self.write_burst_cycles
        while col_cycle + data_delay < self._data_bus_free_at:
            col_cycle = self._data_bus_free_at - data_delay

        if is_read:
            bank.issue_read(col_cycle)
        else:
            bank.issue_write(col_cycle, burst_cycles=burst)
        rank.record_column(decoded.bank_group, is_read, col_cycle, burst_cycles=burst)

        data_start = col_cycle + data_delay
        data_end = data_start + burst
        self._data_bus_free_at = max(self._data_bus_free_at, data_end)

        extra = self.memory_side_read_latency if is_read else self.memory_side_write_latency
        completion = data_end + extra

        if is_read:
            self.stats.reads += 1
            self.stats.read_bus_cycles += burst
        else:
            self.stats.writes += 1
            self.stats.write_bus_cycles += burst
        if outcome == "hit":
            self.stats.row_hits += 1
        elif outcome == "miss":
            self.stats.row_misses += 1
        else:
            self.stats.row_conflicts += 1

        return AccessResult(
            issue_cycle=col_cycle,
            data_start_cycle=data_start,
            completion_cycle=completion,
            row_outcome=outcome,
        )

    # ------------------------------------------------------------------
    def utilization(self, elapsed_cycles: int) -> Dict[str, float]:
        """Data-bus utilization fractions over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return {"read": 0.0, "write": 0.0, "total": 0.0}
        read_util = self.stats.read_bus_cycles / elapsed_cycles
        write_util = self.stats.write_bus_cycles / elapsed_cycles
        return {
            "read": read_util,
            "write": write_util,
            "total": read_util + write_util,
        }
