"""DIMM-substitution (cold-boot style) replay attack (Section III-C).

The attacker freezes and removes the DIMM while the system sleeps/crashes,
preserving the victim's state (data remanence), lets the system continue on
the original module, and later swaps the preserved module back in so the
victim resumes from an old state.  SecDDR defeats this because the swapped-in
module's ECC chip carries the transaction-counter value from the time of the
snapshot, which no longer matches the processor's counter; every read after
the swap fails MAC verification.
"""

from __future__ import annotations

from typing import Dict

from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation

__all__ = ["DimmSubstitutionAttack"]


class DimmSubstitutionAttack:
    """Snapshot the module state and swap it back in later."""

    name = "dimm_substitution"

    def __init__(self, target_address: int = 0x14000) -> None:
        self.target_address = target_address

    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        address = self.target_address
        old_value = b"\x77" * 64
        new_value = b"\x88" * 64

        # The victim is mid-execution with `old_value` in memory.
        memory.write(address, old_value)
        check_read(memory, address, old_value)

        # Step 1: the attacker freezes the module -- capture the full DRAM
        # image *and* the on-DIMM counter registers of the frozen module.
        frozen_image = memory.storage.snapshot()
        frozen_counters: Dict[int, dict] = {
            rank: chip.counter.snapshot() if memory.config.emac_enabled else {}
            for rank, chip in memory.ecc_chips.items()
        }

        # Step 2: the victim keeps running on the original module and makes
        # forward progress (new writes, new reads, counters advance).
        memory.write(address, new_value)
        check_read(memory, address, new_value)

        # Step 3: the attacker swaps the frozen module back in.  The restored
        # module carries the old data image and the old counter values.
        memory.storage.restore(frozen_image)
        if memory.config.emac_enabled:
            for rank, chip in memory.ecc_chips.items():
                chip.counter.restore(frozen_counters[rank])

        # Step 4: the victim resumes and reads its state.
        try:
            value = memory.read(address)
        except IntegrityViolation as violation:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="transaction-counter mismatch after module swap",
                details=str(violation),
            )
        if value == old_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="victim resumed from the pre-swap (stale) state",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="swap happened but the victim still observed fresh data",
        )
