"""Data-relocation (splicing) attack.

A weaker cousin of the replay attack: instead of replaying an *old* value of
the same address, the attacker copies a currently valid (data, MAC) pair from
address ``B`` over address ``A`` (either at rest, via a malicious buffer, or
by redirecting a read on the bus).  Any MAC that binds the physical address
-- as SGX/TDX-style MACs and SecDDR's stored MACs do -- defeats this, because
the pair only verifies at the address it was produced for.

The attack is included in the extended campaign to demonstrate that SecDDR
keeps (rather than weakens) this existing guarantee while adding replay
protection.
"""

from __future__ import annotations

from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation

__all__ = ["DataRelocationAttack"]


class DataRelocationAttack:
    """Copy a valid (data, MAC) pair from one address over another at rest."""

    name = "data_relocation"

    def __init__(self, victim_address: int = 0x20000, donor_address: int = 0x24000) -> None:
        self.victim_address = victim_address
        self.donor_address = donor_address

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        victim_value = b"\x11" * 64
        donor_value = b"\x99" * 64
        memory.write(self.victim_address, victim_value)
        memory.write(self.donor_address, donor_value)
        check_read(memory, self.victim_address, victim_value)

        # Splice the donor's stored (ciphertext, MAC) tuple over the victim's
        # location -- a physical at-rest manipulation (malicious buffer chip
        # or interposer with write access to the array).
        donor_line = memory.storage.read_line(self.donor_address)
        memory.storage.write_line(self.victim_address, donor_line.data, donor_line.ecc_payload)

        try:
            value = memory.read(self.victim_address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="address-bound MAC verification",
                details=str(violation),
            )
        if value != victim_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="spliced data accepted at the victim address",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="splice had no effect on the victim's view",
        )
