"""Bus replay attack (paper Figure 1).

The attacker records the (data, MAC) pair returned for an address at time
``t0``, lets the victim update the line at ``t1``, and substitutes the
recorded pair when the victim reads the line again at ``t2``.  Without replay
protection the stale pair carries a valid MAC and is silently accepted; with
SecDDR the recorded pair was encrypted under an older transaction counter, so
the processor recovers a garbage MAC and flags the violation.
"""

from __future__ import annotations


from repro.attacks.adversary import RecordingAdversary
from repro.attacks.results import AttackOutcome, AttackResult, check_read
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation, ReadCommand, ReadResponse

__all__ = ["BusReplayAttack"]


class BusReplayAttack:
    """Record an old read response and replay it on a later read."""

    name = "bus_replay"

    def __init__(self, target_address: int = 0x4000) -> None:
        self.target_address = target_address

    # ------------------------------------------------------------------
    def run(self, memory: FunctionalMemorySystem, configuration: str = "secddr") -> AttackResult:
        """Execute the full replay timeline against ``memory``."""
        address = self.target_address
        old_value = b"\x11" * 64
        new_value = b"\x22" * 64

        adversary = RecordingAdversary()
        memory.attach_adversary(adversary)

        # t0: victim writes and reads the line; the adversary records the
        # response (ciphertext + MAC/E-MAC) as it crosses the bus.
        memory.write(address, old_value)
        check_read(memory, address, old_value)

        # t1: victim updates the line.
        memory.write(address, new_value)

        # t2: the adversary substitutes the recorded stale pair on the next
        # read response.
        recorded = adversary.recorded_response(address)
        if recorded is None:
            raise RuntimeError("the adversary recorded no read response for 0x%x" % address)

        def replay_hook(command: ReadCommand, response: ReadResponse) -> ReadResponse:
            if command.address == address:
                return response.replayed_with(recorded)
            return response

        adversary.read_response_hook = replay_hook

        try:
            value = memory.read(address)
        except IntegrityViolation as violation:
            memory.detach_adversary()
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.DETECTED,
                detection_point="processor MAC verification on the replayed read",
                details=str(violation),
            )
        memory.detach_adversary()

        if value == old_value:
            return AttackResult(
                attack=self.name,
                configuration=configuration,
                outcome=AttackOutcome.SUCCEEDED,
                details="victim silently consumed the stale value from t0",
            )
        return AttackResult(
            attack=self.name,
            configuration=configuration,
            outcome=AttackOutcome.NEUTRALIZED,
            details="replayed pair was not accepted but no violation was raised",
        )
