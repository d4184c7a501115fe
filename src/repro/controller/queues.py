"""Bounded request queues for the memory controller."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional

from repro.dram.commands import MemoryRequest

__all__ = ["RequestQueue", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Raised when a request is pushed into a full queue."""


class RequestQueue:
    """A bounded FIFO of :class:`MemoryRequest` with occupancy statistics.

    The controller buffers its writes in one (64 entries, per the paper's
    Table I).  FR-FCFS may service entries out of FIFO order; the queue
    therefore supports removal of arbitrary entries.  A count per queued
    address lets :meth:`find_address` skip the scan for any other address.
    """

    def __init__(self, capacity: int = 64, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: Deque[MemoryRequest] = deque()
        self._address_counts: Dict[int, int] = {}
        self.max_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def push(self, request: MemoryRequest) -> None:
        """Append ``request``; raises :class:`QueueFullError` when full."""
        if self.is_full:
            raise QueueFullError("%s is full (%d entries)" % (self.name, self.capacity))
        self._entries.append(request)
        counts = self._address_counts
        counts[request.address] = counts.get(request.address, 0) + 1
        self.max_occupancy = max(self.max_occupancy, len(self._entries))

    def pop_oldest(self) -> MemoryRequest:
        """Remove and return the oldest entry."""
        if not self._entries:
            raise IndexError("pop from empty %s" % self.name)
        oldest = self._entries[0]
        self.remove(oldest)
        return oldest

    def remove(self, request: MemoryRequest) -> None:
        """Remove a specific entry (used by out-of-order FR-FCFS service)."""
        self._entries.remove(request)
        counts = self._address_counts
        counts[request.address] -= 1
        if not counts[request.address]:
            del counts[request.address]

    def peek_all(self) -> List[MemoryRequest]:
        """A snapshot list of queued entries in arrival order."""
        return list(self._entries)

    def find_address(self, address: int) -> Optional[MemoryRequest]:
        """Return the oldest queued entry for ``address``, if any.

        Used for write-to-read forwarding: a read that hits a queued write
        can be satisfied without touching DRAM.
        """
        if address not in self._address_counts:
            return None
        for entry in self._entries:
            if entry.address == address:
                return entry
        return None

    def extend(self, requests: Iterable[MemoryRequest]) -> None:
        """Push several requests (raises if capacity would be exceeded)."""
        for request in requests:
            self.push(request)
