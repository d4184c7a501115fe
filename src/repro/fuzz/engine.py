"""The fuzz campaign engine: fan scenarios across configurations, cached.

A campaign is ``budget`` generated scenarios executed against every selected
configuration through the same :class:`~repro.sim.runner.ParallelRunner` the
performance experiments use.  Each (configuration, scenario) pair is one
self-contained, deterministic :class:`FuzzJob`; results land in a
:class:`FuzzResultCache` keyed by the scenario's full content plus the
functional configuration, so re-running a campaign (or widening it to more
configurations) re-executes nothing that already ran, and interrupted
campaigns resume from disk.

Each run attests a configuration at most once, and only when one of its
scenarios executes or is shrunk.  Every scenario then runs on a copy of that
provisioned system (same ``Kt``, data and MAC keys, counters at 0, memory
cleared); pool workers receive the system with the job and attest nothing.

Determinism is end to end: the same ``(seed, budget, configurations)`` always
produces the same scenarios, the same per-scenario outcomes (scenario
execution never consults ambient randomness -- the keys are fresh random
values each run, but they only shift ciphertexts, not verdicts), and
therefore the same detection matrix -- serial, parallel, or cache-warm.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks.campaign import (
    STANDARD_CONFIGURATIONS,
    AttackConfigurationLike,
    resolve_attack_configurations,
)
from repro.core.config import SecDDRConfig
from repro.core.memory_system import FunctionalMemorySystem
from repro.fuzz.actions import TAMPER_ACTIONS
from repro.fuzz.oracles import FuzzOutcome, ScenarioResult, run_scenario
from repro.fuzz.scenario import FuzzScenario, ScenarioGenerator
from repro.fuzz.shrink import ShrinkResult, shrink_scenario
from repro.sim.runner import JobEvent, ParallelRunner, ProgressHook, ResultCache

__all__ = [
    "FUZZ_CACHE_SCHEMA_VERSION",
    "FuzzResultCache",
    "FuzzJob",
    "FuzzReport",
    "FuzzCampaign",
    "run_fuzz_campaign",
]

#: Bump when scenario semantics, the oracles, or the result layout change;
#: entries written under another version are treated as misses.
FUZZ_CACHE_SCHEMA_VERSION = 1

#: Campaign default: the same three functional profiles the standard attack
#: battery compares.
DEFAULT_FUZZ_CONFIGURATIONS: Tuple[str, ...] = tuple(STANDARD_CONFIGURATIONS)

#: How many oracle-violating scenarios are shrunk per configuration.
MAX_SHRINKS_PER_CONFIGURATION = 5


class FuzzResultCache(ResultCache):
    """On-disk cache of :class:`ScenarioResult` records (same file machinery)."""

    schema_version = FUZZ_CACHE_SCHEMA_VERSION

    def _decode(self, payload: Dict) -> ScenarioResult:
        data = dict(payload)
        data["action_kinds"] = tuple(data.get("action_kinds") or ())
        data["fired_kinds"] = tuple(data.get("fired_kinds") or ())
        return ScenarioResult(**data)

    def _encode(self, result: ScenarioResult) -> Dict:
        payload = asdict(result)
        payload["action_kinds"] = list(result.action_kinds)
        payload["fired_kinds"] = list(result.fired_kinds)
        return payload


@dataclass(frozen=True)
class FuzzJob:
    """One (configuration, scenario) execution -- self-contained and picklable.

    ``provisioned``, the run's attested system for the configuration, is
    attached just before the job executes; it is not part of the cache key.
    """

    name: str
    functional: SecDDRConfig
    scenario: FuzzScenario
    provisioned: Optional[FunctionalMemorySystem] = field(
        default=None, compare=False, repr=False
    )

    @property
    def configuration_name(self) -> str:
        return self.name

    @property
    def workload_name(self) -> str:
        # The runner's progress events label jobs (configuration, workload);
        # for fuzz jobs the scenario id is the natural second coordinate.
        return self.scenario.scenario_id

    def cache_key(self) -> str:
        """Stable SHA-256 key over (schema, configuration, scenario content)."""
        payload = {
            "fuzz_schema": FUZZ_CACHE_SCHEMA_VERSION,
            "configuration": self.name,
            "functional": asdict(self.functional),
            "scenario": self.scenario.to_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _execute_fuzz_job(job: FuzzJob) -> Tuple[ScenarioResult, float]:
    """Worker entry point: run one scenario, returning (result, seconds)."""
    started = time.perf_counter()
    result = run_scenario(job.scenario, job.provisioned, configuration=job.name)
    return result, time.perf_counter() - started


@dataclass
class FuzzReport:
    """Everything one campaign produced, plus the derived summaries."""

    seed: int
    budget: int
    configurations: List[str]
    scenarios: List[FuzzScenario]
    results: Dict[str, List[ScenarioResult]]
    shrunk: List[ShrinkResult] = field(default_factory=list)
    executed_jobs: int = 0
    cached_jobs: int = 0
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    def violations(self) -> List[ScenarioResult]:
        """Every oracle-violating result, campaign order."""
        return [
            result
            for name in self.configurations
            for result in self.results[name]
            if result.violation
        ]

    def missed_kinds(self, configuration: str) -> List[str]:
        """Action classes the configuration failed to detect (sorted)."""
        return sorted(
            {
                result.missed_kind
                for result in self.results[configuration]
                if result.missed and result.missed_kind
            }
        )

    def detection_matrix(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """``{configuration: {action kind: {detected, missed, neutralized,
        inconclusive, scenarios}}}``.

        Attribution is conservative: a *detection* is charged only to the
        classes that actually modified traffic before the alarm
        (``fired_kinds``), a *miss* only to the class whose target address
        was consumed, and ``inconclusive`` absorbs a multi-action scenario's
        remaining classes (e.g. an action that never fired because an
        earlier action's alarm halted the schedule).  Without this, a
        configuration would appear to "detect" classes it never even faced.
        """
        matrix: Dict[str, Dict[str, Dict[str, int]]] = {}
        for name in self.configurations:
            per_kind: Dict[str, Dict[str, int]] = {
                kind: {
                    "detected": 0, "missed": 0, "neutralized": 0,
                    "inconclusive": 0, "scenarios": 0,
                }
                for kind in TAMPER_ACTIONS
            }
            for result in self.results[name]:
                fired = set(result.fired_kinds)
                for kind in set(result.action_kinds):
                    bucket = per_kind[kind]
                    bucket["scenarios"] += 1
                    if result.outcome == FuzzOutcome.DETECTED and kind in fired:
                        bucket["detected"] += 1
                    elif result.outcome == FuzzOutcome.MISSED and result.missed_kind == kind:
                        bucket["missed"] += 1
                    elif result.outcome == FuzzOutcome.NEUTRALIZED and kind in fired:
                        bucket["neutralized"] += 1
                    else:
                        bucket["inconclusive"] += 1
            matrix[name] = per_kind
        return matrix

    def benign_summary(self) -> Dict[str, Dict[str, int]]:
        """Per configuration: benign scenarios that passed / raised false alarms."""
        summary: Dict[str, Dict[str, int]] = {}
        for name in self.configurations:
            counts = {"ok": 0, "false_alarm": 0, "functional_mismatch": 0}
            for result in self.results[name]:
                if result.outcome == FuzzOutcome.BENIGN_OK:
                    counts["ok"] += 1
                elif result.outcome == FuzzOutcome.FALSE_ALARM:
                    counts["false_alarm"] += 1
                elif result.outcome == FuzzOutcome.FUNCTIONAL_MISMATCH:
                    counts["functional_mismatch"] += 1
            summary[name] = counts
        return summary

    # ------------------------------------------------------------------
    def format_matrix(self) -> str:
        """Deterministic text rendering of the detection matrix.

        Cells read ``detected/missed/neutralized``, counting each scenario
        only toward the classes it actually exercised (see
        :meth:`detection_matrix`); the trailing rows summarize benign
        scenarios and oracle violations.
        """
        matrix = self.detection_matrix()
        benign = self.benign_summary()
        kinds = list(TAMPER_ACTIONS)
        width = max(len(kind) for kind in kinds + ["oracle violations"]) + 2
        lines = ["".ljust(width) + "  ".join(c.ljust(20) for c in self.configurations)]
        for kind in kinds:
            cells = []
            for name in self.configurations:
                bucket = matrix[name][kind]
                cells.append(
                    ("%d/%d/%d" % (bucket["detected"], bucket["missed"], bucket["neutralized"]))
                    .ljust(20)
                )
            lines.append(kind.ljust(width) + "  ".join(cells))
        lines.append(
            "benign (ok/alarm)".ljust(width)
            + "  ".join(
                ("%d/%d" % (benign[name]["ok"], benign[name]["false_alarm"])).ljust(20)
                for name in self.configurations
            )
        )
        violations_per_config = {
            name: sum(1 for result in self.results[name] if result.violation)
            for name in self.configurations
        }
        lines.append(
            "oracle violations".ljust(width)
            + "  ".join(
                str(violations_per_config[name]).ljust(20) for name in self.configurations
            )
        )
        return "\n".join(lines)


class FuzzCampaign:
    """A configured campaign: generator + configurations + runner knobs."""

    def __init__(
        self,
        seed: int = 1,
        budget: int = 200,
        configurations: Union[
            Mapping[str, AttackConfigurationLike],
            Iterable[AttackConfigurationLike],
            None,
        ] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        cache_dir=None,
        progress: Optional[ProgressHook] = None,
        shrink_violations: bool = True,
        workloads: Optional[Sequence[str]] = None,
        background_ops: Tuple[int, int] = (12, 40),
        benign_fraction: float = 0.2,
        max_actions: int = 3,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.seed = seed
        self.budget = budget
        self.configurations = self._resolve_configurations(configurations)
        self.jobs = max(1, int(jobs))
        self.cache = self._resolve_cache(cache, cache_dir)
        self.progress = progress
        self.shrink_violations = shrink_violations
        self.generator = ScenarioGenerator(
            seed,
            workloads=workloads,
            background_ops=background_ops,
            benign_fraction=benign_fraction,
            max_actions=max_actions,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_configurations(configurations) -> List[Tuple[str, SecDDRConfig]]:
        if configurations is None:
            configurations = list(DEFAULT_FUZZ_CONFIGURATIONS)
        # Same normalization (and duplicate-name rejection) as the attack
        # campaign; dicts preserve insertion order, so the campaign order is
        # the caller's order.
        return list(resolve_attack_configurations(configurations).items())

    @staticmethod
    def _resolve_cache(cache, cache_dir) -> Optional[FuzzResultCache]:
        if cache is not None:
            if isinstance(cache, FuzzResultCache):
                return cache
            # A simulation-result cache cannot hold scenario results; nest a
            # fuzz cache next to it instead of corrupting either keyspace.
            return FuzzResultCache(cache.directory / "fuzz")
        if cache_dir is not None:
            return FuzzResultCache(cache_dir)
        return None

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        """Generate, execute (cached/parallel), judge, and optionally shrink."""
        started = time.perf_counter()
        scenarios = self.generator.generate_many(self.budget)
        job_list = [
            FuzzJob(name=name, functional=config, scenario=scenario)
            for name, config in self.configurations
            for scenario in scenarios
        ]

        counters = {"executed": 0, "cached": 0}
        functional = dict(self.configurations)
        systems: Dict[str, FunctionalMemorySystem] = {}

        def provisioned(name: str) -> FunctionalMemorySystem:
            # Attest each configuration once per run, on first need.
            if name not in systems:
                systems[name] = FunctionalMemorySystem(
                    config=functional[name], initial_counter=0
                )
            return systems[name]

        def count_events(event: JobEvent) -> None:
            # "failed" jobs executed too (in capture mode they ran and
            # raised); counting only "done" would under-report executed work.
            if event.status in ("done", "failed"):
                counters["executed"] += 1
            elif event.status == "cached":
                counters["cached"] += 1
            if self.progress is not None:
                self.progress(event)

        runner = ParallelRunner(
            jobs=self.jobs,
            cache=self.cache,
            progress=count_events,
            executor=_execute_fuzz_job,
            prepare=lambda pending: [
                replace(job, provisioned=provisioned(job.name)) for job in pending
            ],
        )
        outcomes = runner.run(job_list)

        results: Dict[str, List[ScenarioResult]] = {name: [] for name, _ in self.configurations}
        for job, result in zip(job_list, outcomes):
            results[job.name].append(result)

        report = FuzzReport(
            seed=self.seed,
            budget=self.budget,
            configurations=[name for name, _ in self.configurations],
            scenarios=scenarios,
            results=results,
            executed_jobs=counters["executed"],
            cached_jobs=counters["cached"],
        )
        if self.shrink_violations:
            report.shrunk = self._shrink_violations(report, scenarios, provisioned)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _shrink_violations(
        report: FuzzReport,
        scenarios: List[FuzzScenario],
        provisioned: Callable[[str], FunctionalMemorySystem],
    ) -> List[ShrinkResult]:
        """Minimize the first few oracle-violating scenarios per configuration."""
        by_id = {scenario.scenario_id: scenario for scenario in scenarios}
        shrunk: List[ShrinkResult] = []
        for name in report.configurations:
            violating = [result for result in report.results[name] if result.violation]
            for result in violating[:MAX_SHRINKS_PER_CONFIGURATION]:
                shrunk.append(
                    shrink_scenario(
                        by_id[result.scenario_id],
                        provisioned(name),
                        configuration=name,
                        target_outcome=result.outcome,
                    )
                )
        return shrunk


def run_fuzz_campaign(seed: int = 1, budget: int = 200, **kwargs) -> FuzzReport:
    """Convenience wrapper: configure and run one campaign."""
    return FuzzCampaign(seed=seed, budget=budget, **kwargs).run()
