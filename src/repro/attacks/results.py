"""Common result records for attack scenarios, and their sanity read."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.memory_system import FunctionalMemorySystem

__all__ = ["AttackOutcome", "AttackResult", "check_read"]


class AttackOutcome(enum.Enum):
    """How an attack scenario ended."""

    #: The victim consumed stale or attacker-controlled data without noticing.
    SUCCEEDED = "succeeded"
    #: The system noticed the tampering (MAC mismatch, eWCRC alert, ...).
    DETECTED = "detected"
    #: The attack had no effect (e.g. the tampered write never committed and
    #: the victim also never consumed wrong data).
    NEUTRALIZED = "neutralized"


@dataclass
class AttackResult:
    """Outcome of one attack scenario against one configuration."""

    attack: str
    configuration: str
    outcome: AttackOutcome
    detection_point: Optional[str] = None
    details: str = ""
    observations: Dict[str, float] = field(default_factory=dict)

    @property
    def detected(self) -> bool:
        return self.outcome is AttackOutcome.DETECTED

    @property
    def succeeded(self) -> bool:
        return self.outcome is AttackOutcome.SUCCEEDED

    def describe(self) -> str:
        """One-line human-readable summary."""
        where = " at %s" % self.detection_point if self.detection_point else ""
        return "%-28s vs %-22s -> %s%s" % (
            self.attack,
            self.configuration,
            self.outcome.value,
            where,
        )


def check_read(memory: FunctionalMemorySystem, address: int, expected: bytes) -> None:
    """Read ``address`` and raise ``RuntimeError`` unless it returns ``expected``.

    An attack makes this read before it tampers, to confirm that the victim's
    line verifies.  The read is part of the scenario: it advances the
    transaction counters and crosses the bus, so it must run under ``python
    -O`` too, which an ``assert`` would not.
    """
    if memory.read(address) != expected:
        raise RuntimeError("sanity: an unattacked read of 0x%x returned other data" % address)
