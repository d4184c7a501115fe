"""Security oracles: execute one scenario and judge the outcome.

:func:`run_scenario` replays a scenario's victim schedule against a copy of
a provisioned :class:`~repro.core.memory_system.FunctionalMemorySystem` with
the compiled :class:`~repro.fuzz.adversary.TamperAdversary` on the bus,
maintaining a **golden shadow memory** (address -> last written plaintext).
Three properties are checked on every step:

1. **Detection before consumption** -- if the victim ever consumes a value
   different from the shadow without an alarm (MAC violation, ECC-chip
   write-time alert, or bus timeout), the tampering was *missed*;
2. **No false alarms** -- an alarm before any tamper action has modified
   traffic (in particular, in a benign scenario) is a false alarm;
3. **Functional correctness** -- a benign scenario must complete with every
   read (including a final sweep over the shadow) returning exactly the
   shadow value.

Whether a *miss* violates the security property depends on what the
configuration claims: :func:`~repro.fuzz.actions.expected_detected` encodes
the paper's analysis (plain MACs catch data corruption and splicing, replay
needs the E-MAC channel, misdirected writes additionally need the eWCRC), so
a replay miss is an expected finding on the TDX-like baseline and an oracle
violation on SecDDR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.config import SecDDRConfig
from repro.core.memory_system import FunctionalMemorySystem
from repro.core.protocol import IntegrityViolation
from repro.fuzz.actions import expected_detected
from repro.fuzz.adversary import TamperAdversary
from repro.fuzz.scenario import FuzzScenario, value_bytes

__all__ = ["FuzzOutcome", "ScenarioResult", "run_scenario"]

LINE_BYTES = 64


class FuzzOutcome:
    """Scenario outcome labels (plain strings so results serialize as-is)."""

    #: Benign scenario completed with full functional correctness.
    BENIGN_OK = "benign_ok"
    #: An alarm fired although no tampering had touched the bus.
    FALSE_ALARM = "false_alarm"
    #: A read returned a wrong value although no tampering had occurred.
    FUNCTIONAL_MISMATCH = "functional_mismatch"
    #: Tampering happened and an alarm fired before wrong data was consumed.
    DETECTED = "detected"
    #: The victim consumed tampered/stale data with no alarm.
    MISSED = "missed"
    #: Tampering happened but never produced a consumable effect.
    NEUTRALIZED = "neutralized"
    #: The tamper program never modified any traffic (generator defect).
    NO_TRIGGER = "no_trigger"


@dataclass(frozen=True)
class ScenarioResult:
    """Judged outcome of one (scenario, configuration) execution.

    Every field is JSON-primitive so results round-trip through the on-disk
    cache and the corpus unchanged.
    """

    scenario_id: str
    configuration: str
    outcome: str
    seed: int
    action_kinds: Tuple[str, ...] = ()
    fired_kinds: Tuple[str, ...] = ()
    detection_point: Optional[str] = None
    detection_step: Optional[int] = None
    corrupted_address: Optional[int] = None
    missed_kind: Optional[str] = None
    violation: bool = False
    details: str = ""
    steps_executed: int = 0

    @property
    def detected(self) -> bool:
        return self.outcome == FuzzOutcome.DETECTED

    @property
    def missed(self) -> bool:
        return self.outcome == FuzzOutcome.MISSED

    def describe(self) -> str:
        """One-line human-readable summary."""
        extras = []
        if self.detection_point:
            extras.append("at %s (step %s)" % (self.detection_point, self.detection_step))
        if self.missed_kind:
            extras.append("missed %s" % self.missed_kind)
        if self.violation:
            extras.append("ORACLE VIOLATION")
        suffix = (" " + ", ".join(extras)) if extras else ""
        return "%-8s vs %-22s -> %s%s" % (
            self.scenario_id, self.configuration, self.outcome, suffix,
        )


@dataclass
class _Execution:
    """Mutable bookkeeping while a scenario is replayed."""

    detection_point: Optional[str] = None
    detection_step: Optional[int] = None
    corrupted_address: Optional[int] = None
    corruption_step: Optional[int] = None
    details: str = ""
    steps: int = 0
    shadow: dict = field(default_factory=dict)

    @property
    def alarmed(self) -> bool:
        return self.detection_point is not None

    @property
    def corrupted(self) -> bool:
        return self.corrupted_address is not None


def _attribute_miss(scenario: FuzzScenario, address: int) -> Optional[str]:
    """The action kind responsible for corrupting ``address``, if attributable."""
    for action in scenario.actions:
        if address in action.addresses():
            return action.kind
    return None


def run_scenario(
    scenario: FuzzScenario,
    provisioned: FunctionalMemorySystem,
    configuration: str = "secddr",
) -> ScenarioResult:
    """Execute ``scenario`` on a copy of ``provisioned`` and judge it.

    ``provisioned`` itself is left untouched, so one attested system serves
    every scenario of its configuration.
    """
    memory = provisioned.copy()
    adversary = TamperAdversary(scenario.actions, memory.mapping)
    memory.attach_adversary(adversary)
    state = _Execution()

    completed = _replay_schedule(scenario, memory, state)
    if completed and scenario.benign:
        _final_sweep(memory, state)
    memory.detach_adversary()

    return _judge(scenario, memory.config, configuration, adversary, state)


def _replay_schedule(
    scenario: FuzzScenario, memory: FunctionalMemorySystem, state: _Execution
) -> bool:
    """Replay ops until the first alarm/corruption; True when all ops ran."""
    zeros = bytes(LINE_BYTES)
    for step, op in enumerate(scenario.ops):
        state.steps = step + 1
        if op.op == "write":
            value = value_bytes(scenario.seed, op.value_id)
            rejected_before = memory.stats.rejected_writes
            memory.write(op.address, value)
            state.shadow[op.address] = value
            if memory.stats.rejected_writes > rejected_before:
                state.detection_point = "ecc_chip_alert"
                state.detection_step = step
                state.details = "ECC chip rejected the write to 0x%x" % op.address
                return False
        else:
            expected = state.shadow.get(op.address, zeros)
            try:
                value = memory.read(op.address)
            except IntegrityViolation as violation:
                state.detection_point = "mac_verification"
                state.detection_step = step
                state.details = str(violation)
                return False
            except TimeoutError as timeout:
                state.detection_point = "bus_timeout"
                state.detection_step = step
                state.details = str(timeout)
                return False
            if value != expected:
                state.corrupted_address = op.address
                state.corruption_step = step
                state.details = (
                    "read of 0x%x returned tampered data at step %d" % (op.address, step)
                )
                return False
    return True


def _final_sweep(memory: FunctionalMemorySystem, state: _Execution) -> None:
    """Benign-only golden sweep: every written line must read back exactly."""
    for address in sorted(state.shadow):
        try:
            value = memory.read(address)
        except (IntegrityViolation, TimeoutError) as alarm:
            state.detection_point = (
                "bus_timeout" if isinstance(alarm, TimeoutError) else "mac_verification"
            )
            state.detection_step = state.steps
            state.details = "final sweep: %s" % alarm
            return
        if value != state.shadow[address]:
            state.corrupted_address = address
            state.corruption_step = state.steps
            state.details = "final sweep: 0x%x diverged from the shadow" % address
            return


def _judge(
    scenario: FuzzScenario,
    functional_config: SecDDRConfig,
    configuration: str,
    adversary: TamperAdversary,
    state: _Execution,
) -> ScenarioResult:
    fired_kinds = tuple(
        sorted({scenario.actions[index].kind for index in adversary.fired_actions})
    )
    common = dict(
        scenario_id=scenario.scenario_id,
        configuration=configuration,
        seed=scenario.seed,
        action_kinds=scenario.action_kinds,
        fired_kinds=fired_kinds,
        detection_point=state.detection_point,
        detection_step=state.detection_step,
        corrupted_address=state.corrupted_address,
        details=state.details,
        steps_executed=state.steps,
    )

    if state.alarmed:
        if adversary.fired:
            return ScenarioResult(outcome=FuzzOutcome.DETECTED, violation=False, **common)
        return ScenarioResult(outcome=FuzzOutcome.FALSE_ALARM, violation=True, **common)

    if state.corrupted:
        if not adversary.fired:
            return ScenarioResult(
                outcome=FuzzOutcome.FUNCTIONAL_MISMATCH, violation=True, **common
            )
        missed_kind = _attribute_miss(scenario, state.corrupted_address)
        # A miss we cannot attribute to a specific action is judged like the
        # strongest claim any present action carries: being conservative here
        # means generator defects surface as violations instead of vanishing.
        violation = (
            expected_detected(functional_config, missed_kind)
            if missed_kind is not None
            else True
        )
        return ScenarioResult(
            outcome=FuzzOutcome.MISSED, missed_kind=missed_kind, violation=violation, **common
        )

    if scenario.benign:
        return ScenarioResult(outcome=FuzzOutcome.BENIGN_OK, violation=False, **common)
    if adversary.fired:
        return ScenarioResult(outcome=FuzzOutcome.NEUTRALIZED, violation=False, **common)
    return ScenarioResult(outcome=FuzzOutcome.NO_TRIGGER, violation=True, **common)
