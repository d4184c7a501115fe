"""Misdirected-write (stale-data) attack via address corruption (Figure 3).

The attacker intercepts the CCCA signals of a write and changes the row (or
column) address so the new data lands somewhere else, leaving the stale
(data, MAC) pair in place at the victim's address.  E-MACs alone do not catch
this (the stale pair is internally consistent); SecDDR's encrypted eWCRC lets
the ECC chip detect the mismatch between the address it decoded and the
address folded into the write's OTP *before committing the write*, raising an
alert at write time.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.adversary import BusAdversary
from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation, WriteTransaction

__all__ = ["AddressCorruptionAttack"]


class AddressCorruptionAttack:
    """Corrupt the row address of the victim's write so it lands elsewhere."""

    name = "address_corruption"

    def __init__(self, target_address: int = 0x8000, row_offset: int = 1) -> None:
        self.target_address = target_address
        self.row_offset = row_offset

    # ------------------------------------------------------------------
    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        old_value = b"\xaa" * 64
        new_value = b"\xbb" * 64

        # Initial state: the victim has written and read the line normally.
        memory.write(address, old_value)
        check_read(memory, address, old_value)

        rejected_before = memory.stats.rejected_writes
        adversary = BusAdversary()

        def corrupt_write(transaction: WriteTransaction) -> Optional[WriteTransaction]:
            if transaction.command.address != address:
                return transaction
            corrupted_row = (transaction.command.row + self.row_offset) % memory.mapping.rows
            return transaction.with_command(transaction.command.redirected(row=corrupted_row))

        adversary.write_hook = corrupt_write
        memory.attach_adversary(adversary)
        # The victim updates the line; the adversary steers it to another row.
        memory.write(address, new_value)
        memory.detach_adversary()

        detected_at_write = memory.stats.rejected_writes > rejected_before
        if detected_at_write:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="ECC-chip encrypted-eWCRC check before the write commits",
                details="the chip decoded a different row than the OTP encodes",
            )

        # Without eWCRC the stale pair is still in place; the victim's next
        # read returns old data with a MAC that still verifies.
        try:
            value = memory.read(address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="processor MAC verification on the following read",
                details=str(violation),
            )

        if value == old_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="victim read the stale value; the update was silently lost",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="the redirected write still ended up visible to the victim",
        )
