"""Scenario shrinking: minimize a failing scenario to its essence.

Given a scenario whose execution produces an interesting outcome (an oracle
violation, or any outcome worth a minimal reproducer), :func:`shrink_scenario`
searches for the smallest derived scenario that still reproduces it:

1. **action minimization** -- greedily drop tamper actions (and their
   scripted victim operations) while the outcome survives, to a fixpoint;
2. **background minimization** -- delta-debugging-style chunked removal of
   background operations, halving the chunk size down to single ops.

Every candidate is judged by re-executing it through the same oracle as the
campaign (:func:`~repro.fuzz.oracles.run_scenario`), on a copy of the same
provisioned system, so a minimized scenario is a true standalone reproducer:
replaying it from the corpus yields the same outcome.  For a *missed* outcome
the predicate also pins the missed action class, so shrinking cannot drift
onto a different bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.memory_system import FunctionalMemorySystem
from repro.fuzz.oracles import run_scenario
from repro.fuzz.scenario import FuzzScenario

__all__ = ["ShrinkResult", "shrink_scenario"]

#: Safety valve: a shrink never re-executes more scenarios than this.
DEFAULT_MAX_EXECUTIONS = 400


@dataclass
class ShrinkResult:
    """A minimized reproducer plus bookkeeping about the search."""

    configuration: str
    outcome: str
    original: FuzzScenario
    minimized: FuzzScenario
    executions: int

    @property
    def ops_removed(self) -> int:
        return len(self.original.ops) - len(self.minimized.ops)

    @property
    def actions_removed(self) -> int:
        return len(self.original.actions) - len(self.minimized.actions)

    def describe(self) -> str:
        return (
            "%s on %s: %d->%d action(s), %d->%d op(s) in %d execution(s)"
            % (
                self.outcome,
                self.configuration,
                len(self.original.actions),
                len(self.minimized.actions),
                len(self.original.ops),
                len(self.minimized.ops),
                self.executions,
            )
        )


def shrink_scenario(
    scenario: FuzzScenario,
    provisioned: FunctionalMemorySystem,
    configuration: str = "secddr",
    target_outcome: Optional[str] = None,
    max_executions: int = DEFAULT_MAX_EXECUTIONS,
) -> ShrinkResult:
    """Minimize ``scenario`` while it keeps reproducing ``target_outcome``.

    Every execution runs on a copy of ``provisioned``, so the search
    attests nothing.  ``target_outcome`` defaults to whatever the scenario
    produces as-is; a :class:`ValueError` is raised when an explicit target
    does not reproduce (shrinking a non-failing scenario is a caller bug
    worth surfacing).
    """
    baseline = run_scenario(scenario, provisioned, configuration)
    target = target_outcome or baseline.outcome
    if baseline.outcome != target:
        raise ValueError(
            "scenario %s produces %r, not the requested %r"
            % (scenario.scenario_id, baseline.outcome, target)
        )
    pinned_kind = baseline.missed_kind
    state = {"executions": 1}

    def reproduces(candidate: FuzzScenario) -> bool:
        # A removal that orphans a read (no dominating write left) would
        # manufacture an alarm the adversary never caused -- such a
        # candidate could masquerade as e.g. a false-alarm reproducer, so it
        # is rejected before execution.
        if not candidate.well_formed():
            return False
        if state["executions"] >= max_executions:
            return False
        state["executions"] += 1
        result = run_scenario(candidate, provisioned, configuration)
        if result.outcome != target:
            return False
        return pinned_kind is None or result.missed_kind == pinned_kind

    current = _minimize_actions(scenario, reproduces)
    current = _minimize_background(current, reproduces)

    return ShrinkResult(
        configuration=configuration,
        outcome=target,
        original=scenario,
        minimized=current,
        executions=state["executions"],
    )


def _minimize_actions(scenario: FuzzScenario, reproduces) -> FuzzScenario:
    """Greedy single-action removal to a fixpoint."""
    current = scenario
    changed = True
    while changed and current.actions:
        changed = False
        for index in range(len(current.actions)):
            candidate = current.without_action(index)
            if reproduces(candidate):
                current = candidate
                changed = True
                break
    return current


def _minimize_background(scenario: FuzzScenario, reproduces) -> FuzzScenario:
    """Chunked background-op removal, halving chunks down to single ops."""
    current = scenario
    chunk = len(current.background_positions())
    while chunk > 0:
        positions = current.background_positions()
        if not positions:
            break
        chunk = min(chunk, len(positions))
        removed = False
        for start in range(0, len(positions), chunk):
            candidate = current.without_background(positions[start:start + chunk])
            if reproduces(candidate):
                current = candidate
                removed = True
                break  # positions shifted; recompute before the next attempt
        if not removed:
            if chunk == 1:
                break
            chunk //= 2
    return current
