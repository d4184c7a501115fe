"""FR-FCFS request scheduling policy.

First-Ready, First-Come-First-Served: among queued requests, those that hit
an already-open row are preferred (they need only a column command); ties are
broken by arrival order.  This is the de facto baseline policy in DRAM
simulators (Ramulator uses it by default) and is what the paper's memory
controller configuration implies.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.dram.address_mapping import AddressMapping
from repro.dram.channel import Channel
from repro.dram.commands import MemoryRequest

__all__ = ["FRFCFSScheduler"]


class FRFCFSScheduler:
    """Orders pending requests by (row-hit first, then oldest first)."""

    def __init__(self, mapping: AddressMapping) -> None:
        self.mapping = mapping

    # ------------------------------------------------------------------
    def _priority(self, channel: Channel) -> Callable[[MemoryRequest], Tuple[int, int, int]]:
        """The FR-FCFS sort key against ``channel``'s current open rows.

        A row hit sorts first; among equals the oldest (lowest arrival
        cycle, then lowest request id) wins, which preserves FCFS fairness
        and avoids starvation in the common case.  The request id makes
        every key unique.  A request no controller has accepted yet is
        decoded here.
        """
        decode = self.mapping.decode

        def key(request: MemoryRequest) -> Tuple[int, int, int]:
            decoded = request.decoded
            if decoded is None:
                decoded = decode(request.address)
            bank = channel.rank(decoded.rank).bank(decoded.bank_group, decoded.bank)
            return (0 if bank.is_row_open(decoded.row) else 1, request.arrival_cycle, request.request_id)

        return key

    def pick_next(
        self,
        channel: Channel,
        pending: Sequence[MemoryRequest],
    ) -> Optional[MemoryRequest]:
        """Pick the next request to service from ``pending`` (None if empty)."""
        return min(pending, key=self._priority(channel), default=None)

    def order(
        self,
        channel: Channel,
        pending: Iterable[MemoryRequest],
    ) -> List[MemoryRequest]:
        """Return a full service order for ``pending`` (greedy FR-FCFS).

        The open-row state is read once per request, before anything is
        served, so one sort gives exactly the order a repeated greedy pick
        would; the controller's write-drain loop follows it.
        """
        return sorted(pending, key=self._priority(channel))
