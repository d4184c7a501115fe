"""DRAM command vocabulary and the memory-request record.

Two layers of abstraction appear throughout the simulator:

* :class:`MemoryRequest` -- a cache-line-granularity request as seen by the
  memory controller (an LLC miss/writeback, or a metadata access generated by
  a secure-memory mechanism).
* :class:`DramCommand` -- an individual DDR command (ACT/PRE/RD/WR/REF) with
  its decoded address, as issued on the command/address bus.  The attack
  framework interposes at this level (e.g. corrupting the row address of an
  Activate, exactly as in the paper's Figure 3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.dram.address_mapping import DecodedAddress

__all__ = [
    "RequestType",
    "MemoryRequest",
    "CommandType",
    "DramCommand",
]

_request_ids = itertools.count()


class RequestType(enum.Enum):
    """Cache-line request direction."""

    READ = "read"
    WRITE = "write"


@dataclass(eq=False)
class MemoryRequest:
    """A cache-line granularity request presented to the memory controller.

    Every request has its own ``request_id``, so two requests are equal only
    when they are the same object.

    Attributes
    ----------
    address:
        Physical byte address of the line (64-byte aligned).
    request_type:
        Read or write.
    arrival_cycle:
        Memory-controller cycle at which the request becomes visible.
    core_id:
        Which core issued the demand access (metadata inherits the core of
        its parent request).
    parent_id:
        For metadata requests, the id of the demand request that caused them.
    completion_cycle:
        Filled in by the controller when the request finishes.
    decoded:
        The DRAM coordinates of ``address``, filled in once by the controller
        that accepts the request.
    """

    address: int
    request_type: RequestType
    arrival_cycle: int = 0
    core_id: int = 0
    parent_id: Optional[int] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    completion_cycle: Optional[int] = None
    decoded: Optional[DecodedAddress] = field(default=None, repr=False)

    @property
    def is_read(self) -> bool:
        return self.request_type is RequestType.READ

    @property
    def is_write(self) -> bool:
        return self.request_type is RequestType.WRITE

    @property
    def latency(self) -> Optional[int]:
        """Completion minus arrival, once the request has been served."""
        if self.completion_cycle is None:
            return None
        return self.completion_cycle - self.arrival_cycle


class CommandType(enum.Enum):
    """DDR command types modeled by the simulator."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    REFRESH = "REF"


@dataclass
class DramCommand:
    """A single DDR command with its decoded target.

    The ``row`` and ``column`` fields are what an adversary on the CCCA bus
    can corrupt; the attack framework produces modified copies of these
    commands to model misdirected writes (Section III-B).
    """

    command_type: CommandType
    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int = 0
    column: int = 0
    issue_cycle: int = 0
    request_id: Optional[int] = None

    def redirected(self, row: Optional[int] = None, column: Optional[int] = None) -> "DramCommand":
        """Return a copy with a corrupted row and/or column address."""
        return DramCommand(
            command_type=self.command_type,
            channel=self.channel,
            rank=self.rank,
            bank_group=self.bank_group,
            bank=self.bank,
            row=self.row if row is None else row,
            column=self.column if column is None else column,
            issue_cycle=self.issue_cycle,
            request_id=self.request_id,
        )
