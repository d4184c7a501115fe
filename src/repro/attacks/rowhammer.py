"""Data-at-rest corruption attacks: row-hammer bit flips and read tampering.

These are not replay attacks; they are the class of active attacks that plain
per-line MACs already catch (the paper's baseline integrity guarantee).  They
are included so the attack campaign shows the full detection matrix:
bit-flips and man-in-the-middle data tampering are caught by *any*
MAC-protected configuration, while replay-style attacks require SecDDR (or a
tree / authenticated channel).
"""

from __future__ import annotations

from repro.attacks.adversary import BusAdversary
from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation, ReadCommand, ReadResponse

__all__ = ["RowHammerAttack", "ReadTamperAttack"]


class RowHammerAttack:
    """Flip a few bits of the stored line (row-hammer style disturbance)."""

    name = "rowhammer_bitflips"

    def __init__(self, target_address: int = 0x18000, bit_flips: int = 3) -> None:
        self.target_address = target_address
        self.bit_flips = bit_flips

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        value = b"\x99" * 64
        memory.write(address, value)
        check_read(memory, address, value)

        # Disturbance errors flip bits directly in the array.
        memory.storage.corrupt_line(address, bit_flips=self.bit_flips)

        try:
            read_back = memory.read(address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="per-line MAC verification",
                details=str(violation),
            )
        if read_back != value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="corrupted data was consumed without detection",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="bit flips did not change the observed value",
        )


class ReadTamperAttack:
    """Man-in-the-middle modification of a read response's data burst."""

    name = "read_data_tamper"

    def __init__(self, target_address: int = 0x1C000) -> None:
        self.target_address = target_address

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        value = b"\xab" * 64
        memory.write(address, value)

        adversary = BusAdversary()

        def tamper(command: ReadCommand, response: ReadResponse) -> ReadResponse:
            if command.address != address:
                return response
            flipped = bytearray(response.ciphertext)
            flipped[0] ^= 0xFF
            return ReadResponse(
                command=response.command,
                ciphertext=bytes(flipped),
                ecc_payload=response.ecc_payload,
            )

        adversary.read_response_hook = tamper
        memory.attach_adversary(adversary)
        try:
            read_back = memory.read(address)
        except IntegrityViolation as violation:
            memory.detach_adversary()
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="per-line MAC verification",
                details=str(violation),
            )
        memory.detach_adversary()
        if read_back != value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="tampered data accepted by the processor",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="tampering had no observable effect",
        )
