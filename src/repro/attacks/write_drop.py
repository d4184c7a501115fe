"""Dropped-write and write-to-read-conversion attacks (Section III-B).

* **Write drop**: the attacker suppresses a write burst so the stale (data,
  MAC) pair stays in memory.  Under SecDDR the processor's transaction
  counter advanced for the dropped write while the DIMM's did not, so every
  following read on that rank fails verification.
* **Write-to-read conversion**: the attacker turns the write command into a
  read (and swallows the response), which keeps the counters *numerically*
  synchronized -- unless reads and writes are forced onto different counter
  parities, which is exactly why SecDDR reserves even values for reads and
  odd values for writes.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.adversary import BusAdversary
from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation, WriteTransaction

__all__ = ["WriteDropAttack", "WriteToReadConversionAttack"]


class WriteDropAttack:
    """Suppress the victim's write so stale data remains in memory."""

    name = "write_drop"

    def __init__(self, target_address: int = 0xC000) -> None:
        self.target_address = target_address

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        old_value = b"\x33" * 64
        new_value = b"\x44" * 64

        memory.write(address, old_value)
        check_read(memory, address, old_value)

        adversary = BusAdversary()

        def drop_write(transaction: WriteTransaction) -> Optional[WriteTransaction]:
            if transaction.command.address == address:
                return None
            return transaction

        adversary.write_hook = drop_write
        memory.attach_adversary(adversary)
        memory.write(address, new_value)
        memory.detach_adversary()

        try:
            value = memory.read(address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="counter desynchronization caught by MAC verification",
                details=str(violation),
            )
        if value == old_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="victim read the stale value after its write was dropped",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="the write was dropped but the victim still saw fresh data",
        )


class WriteToReadConversionAttack:
    """Convert the victim's write into a read to keep the counters in step.

    The adversary drops the write on the bus and immediately issues a read
    command to the DIMM for the same address (discarding the response), so
    the DIMM's transaction counter advances once -- numerically matching the
    processor's advance for the write.  SecDDR's parity rule (even counters
    for reads, odd for writes) makes the two copies land on different values
    anyway, so verification fails on the victim's next read.
    """

    name = "write_to_read_conversion"

    def __init__(self, target_address: int = 0x10000) -> None:
        self.target_address = target_address

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        old_value = b"\x55" * 64
        new_value = b"\x66" * 64

        memory.write(address, old_value)
        check_read(memory, address, old_value)

        adversary = BusAdversary()
        decoded = memory.mapping.decode(address)
        chip = memory.ecc_chips[decoded.rank]
        processor = memory.processor

        def convert_write(transaction: WriteTransaction) -> Optional[WriteTransaction]:
            if transaction.command.address != address:
                return transaction
            # The DIMM sees a read instead of the write: its counter advances
            # by one transaction, the response is swallowed by the attacker.
            read_command = processor.make_read_command(address)
            chip.handle_read(read_command)
            return None

        adversary.write_hook = convert_write
        memory.attach_adversary(adversary)
        memory.write(address, new_value)
        memory.detach_adversary()

        counters_diverged = not memory.counters_in_sync()

        try:
            value = memory.read(address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="counter parity rule (reads even / writes odd)",
                details=str(violation),
                observations={"counters_diverged": float(counters_diverged)},
            )
        if value == old_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="command conversion went unnoticed and stale data was consumed",
                observations={"counters_diverged": float(counters_diverged)},
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="conversion did not result in stale data",
            observations={"counters_diverged": float(counters_diverged)},
        )
