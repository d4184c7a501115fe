"""Experiment runner: simulate (workload, configuration) pairs and compare.

This module is the entry point the benchmark harness and the examples build
on (the documented user-facing facade is :class:`repro.api.Session`).
``run_simulation`` simulates one workload under one secure-memory
configuration; a :class:`Comparison` is a set of configurations over a set
of workloads, normalized to the TDX-like baseline, which is exactly how the
paper presents Figures 6, 8, 10 and 12; ``run_comparison`` runs one, and
``run_comparisons`` runs several in one pass that runs each distinct job once.

Configurations may be registry names or :class:`SystemConfiguration` values
(including unregistered ``derive()``-d variants); workloads may be registry
names or pre-built :class:`MemoryTrace` instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.cpu.trace import MemoryTrace
from repro.errors import AmbiguousConfigurationError
from repro.secure.configs import ConfigurationLike, resolve_configuration
from repro.sim.engines import EngineLike, resolve_engine
from repro.sim.results import ComparisonResult, SimulationResult
from repro.sim.runner import (
    JobFailedError,
    JobFailure,
    ParallelRunner,
    ProgressHook,
    ResultCache,
    SimulationJob,
    resolve_cache,
    workload_cache_token,
    workload_profile_token,
)
from repro.workloads.registry import build_workload

__all__ = [
    "Comparison",
    "ComparisonPass",
    "ExperimentConfig",
    "run_simulation",
    "run_comparison",
    "run_comparisons",
    "default_system_parameters",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all simulations in one experiment."""

    num_accesses: int = 3000
    num_cores: int = 4
    seed: int = 1
    enable_prefetcher: bool = True
    metadata_cache_bytes: int = 128 * 1024
    cpu_freq_mhz: float = 3200.0
    issue_width: int = 6
    rob_entries: int = 224
    mshr_entries: int = 16


@lru_cache(maxsize=4)
def _build_workload_cached(
    name: str, num_accesses: int, seed: int, profile_token: str
) -> MemoryTrace:
    # Trace construction is deterministic and traces are never mutated, so
    # one instance can be shared by every configuration in a comparison (and
    # by repeated jobs in one process) without rebuilding it per job.
    # ``Comparison.jobs`` lists a matrix workload-major and
    # ``run_comparisons`` sorts a pass's unique jobs the same way, so a
    # tiny LRU suffices; keeping it small bounds
    # how many (potentially huge) traces stay pinned for the process life.
    # ``profile_token`` keys the memo to the workload's generator profile so
    # an in-process profile edit rebuilds the trace instead of serving the
    # old one (which would then be stored in the disk cache under the new,
    # profile-aware key).
    return build_workload(name, num_accesses=num_accesses, seed=seed)


def _resolve_workload(workload: Union[str, MemoryTrace], config: ExperimentConfig) -> MemoryTrace:
    if not isinstance(workload, str):
        # Pre-built trace values (in-memory MemoryTraces *and* streamed
        # ChunkedTrace views) pass through untouched; only registry names
        # are built -- and memoized -- here.
        return workload
    return _build_workload_cached(
        workload, config.num_accesses, config.seed, workload_profile_token(workload)
    )


def run_simulation(
    workload: Union[str, MemoryTrace],
    configuration: ConfigurationLike,
    experiment: Optional[ExperimentConfig] = None,
    engine: Optional[EngineLike] = None,
) -> SimulationResult:
    """Simulate ``workload`` under secure-memory ``configuration``.

    ``configuration`` may be a registry name or any ``SystemConfiguration``
    value.  The core clock is fixed at the paper's 3.2 GHz; the DRAM clock
    comes from the configuration (1600 MHz, or 1200 MHz for the realistic
    InvisiMem variants), so frequency-derating effects are captured
    automatically.

    ``engine`` selects the executor: ``"batch"`` (the default; the
    vectorized chunk engine) or ``"reference"`` (the per-access object
    model the batch engine reproduces bit for bit), or any
    :class:`~repro.sim.engines.Engine` registered via
    :func:`~repro.sim.engines.register_engine`.
    """
    experiment = experiment or ExperimentConfig()
    resolved_engine = resolve_engine(engine)
    trace = _resolve_workload(workload, experiment)
    spec = resolve_configuration(configuration)
    return resolved_engine.simulate(trace, spec, experiment)


def _unique_by_name(entries: Iterable, identity: Callable, conflict: str) -> Dict[str, object]:
    """``{name: entry}``, first seen first: exact duplicates collapse, and two
    entries sharing a name but not ``identity`` raise ``conflict % name``."""
    unique: Dict[str, object] = {}
    for entry in entries:
        name = entry if isinstance(entry, str) else entry.name
        if name not in unique:
            unique[name] = entry
        elif identity(entry) != identity(unique[name]):
            raise AmbiguousConfigurationError(conflict % name)
    return unique


class Comparison:
    """A set of configurations over a set of workloads, normalized to a baseline.

    This is how the paper presents Figures 6, 8, 10 and 12, and the unit a
    figure declares (:attr:`repro.figures.spec.FigureSpec.comparisons`).
    Construction applies the matrix rules once:

    * the baseline is prepended unless a configuration already has its name
      -- and a *different* spec under that name is rejected, since
      normalizing it to itself would print a meaningless all-1.0 table;
    * exact duplicates collapse to one entry;
    * two different specs, or two different traces, sharing one name are
      rejected, because names key the result table.

    ``configurations`` and ``workloads`` then map each name to its entry
    (registry name, ``SystemConfiguration``, or trace value), baseline
    first.  :meth:`jobs` lists the matrix workload-major and
    :meth:`normalize` turns the jobs' outcomes into a
    :class:`~repro.sim.results.ComparisonResult`.
    """

    def __init__(
        self,
        configurations: Iterable[ConfigurationLike],
        workloads: Iterable[Union[str, MemoryTrace]],
        baseline: ConfigurationLike = "tdx_baseline",
        experiment: Optional[ExperimentConfig] = None,
    ) -> None:
        self.experiment = experiment or ExperimentConfig()
        baseline_spec = resolve_configuration(baseline)
        self.baseline = baseline_spec.name
        configs = _unique_by_name(
            configurations, resolve_configuration,
            "two different configurations share the name %r; give derived "
            "specs distinct names (derive(name=...))",
        )
        if self.baseline not in configs:
            configs = {self.baseline: baseline, **configs}
        elif resolve_configuration(configs[self.baseline]) != baseline_spec:
            raise AmbiguousConfigurationError(
                "configuration named %r differs from the %r baseline spec; "
                "rename the derived configuration (derive(name=...)) or pass "
                "it as the baseline" % (self.baseline, self.baseline)
            )
        self.configurations = configs
        # Named workloads stay unresolved: trace construction is a pure
        # function of (name, profile, experiment knobs), so every
        # configuration still replays the exact same access stream -- which
        # the normalization depends on -- while jobs satisfied by the cache
        # never build their trace at all.
        self.workloads = _unique_by_name(
            workloads, workload_cache_token,
            "two different workloads share the name %r; rename one "
            "(trace.with_name(...) or register it under a distinct name)",
        )

    def jobs(self, engine: Optional[EngineLike] = None) -> List[SimulationJob]:
        """One job per (workload, configuration) pair, workload-major."""
        return [
            SimulationJob(
                configuration=config, workload=workload, experiment=self.experiment, engine=engine
            )
            for workload in self.workloads.values()
            for config in self.configurations.values()
        ]

    def normalize(self, outcomes: Sequence[object]) -> ComparisonResult:
        """The normalized table of ``outcomes``, given in :meth:`jobs` order.

        Raises :class:`~repro.sim.runner.JobFailedError` when any outcome is
        a :class:`~repro.sim.runner.JobFailure`: a normalized table cannot
        be built from a partial matrix.
        """
        cells = iter(outcomes)
        results: Dict[str, Dict[str, SimulationResult]] = {c: {} for c in self.configurations}
        for workload in self.workloads:
            for config in self.configurations:
                results[config][workload] = next(cells)
        failed = [
            value
            for per_workload in results.values()
            for value in per_workload.values()
            if isinstance(value, JobFailure)
        ]
        if failed:
            raise JobFailedError(failed)
        raw: Dict[str, Dict[str, float]] = {
            config: {workload: result.total_ipc for workload, result in per_workload.items()}
            for config, per_workload in results.items()
        }
        normalized: Dict[str, Dict[str, float]] = {c: {} for c in self.configurations}
        for workload in self.workloads:
            base_ipc = raw[self.baseline][workload]
            for config in self.configurations:
                normalized[config][workload] = (
                    raw[config][workload] / base_ipc if base_ipc > 0 else 0.0
                )
        return ComparisonResult(
            baseline=self.baseline,
            workloads=list(self.workloads),
            configurations=list(self.configurations),
            raw_ipc=raw,
            normalized=normalized,
            results=results,
        )


def run_comparison(
    configurations: Iterable[ConfigurationLike],
    workloads: Iterable[Union[str, MemoryTrace]],
    baseline: ConfigurationLike = "tdx_baseline",
    experiment: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
    engine: Optional[EngineLike] = None,
    failures: str = "raise",
) -> ComparisonResult:
    """Run every configuration over every workload and normalize to ``baseline``.

    This is the canonical comparison signature (mirrored by
    :meth:`repro.api.Session.compare` and documented in
    ``docs/architecture.md``): ``(configurations, workloads, baseline=...,
    experiment=..., jobs=..., cache=..., cache_dir=..., progress=...,
    engine=...)``.  It builds a :class:`Comparison`, runs its jobs, and
    normalizes their outcomes.

    Configurations (and the baseline) may be registry names or
    ``SystemConfiguration`` values.  ``jobs`` fans the (workload,
    configuration) cross product out over a process pool; results are
    identical to the serial path because every job is deterministic and
    self-contained.  Passing ``cache`` (or a ``cache_dir`` to build one
    from) reuses previously simulated pairs from disk, so one warm cache
    serves repeated comparisons and sweeps.  ``engine`` selects the
    simulation engine for every job (see :func:`run_simulation`).

    ``failures="capture"`` changes what happens when a simulation raises:
    instead of aborting the run at the failing job, the rest of the matrix
    finishes (and is cached), and a :class:`~repro.sim.runner.JobFailedError`
    carrying one structured :class:`~repro.sim.runner.JobFailure` per failed
    pair is raised afterwards -- a normalized table cannot be built from a
    partial matrix, but a retry only re-runs the failing pairs.  The
    experiment service maps this onto a ``failed`` job with error detail.
    """
    comparison = Comparison(configurations, workloads, baseline, experiment)
    runner = ParallelRunner(
        jobs=jobs, cache=resolve_cache(cache, cache_dir), progress=progress, failures=failures
    )
    return comparison.normalize(runner.run(comparison.jobs(engine)))


@dataclass(frozen=True)
class ComparisonPass:
    """What :func:`run_comparisons` produced."""

    #: Per comparison, in the order given, its jobs' outcomes in
    #: :meth:`Comparison.jobs` order, for :meth:`Comparison.normalize`.
    outcomes: List[List[object]]
    #: Distinct jobs across every comparison.
    unique_jobs: int
    #: How many of those the cache did not hold (all of them without a cache).
    simulated_jobs: int


def _trace_identity(job: SimulationJob):
    """Sorting on this runs each distinct trace's jobs together (stably, so
    declaration order breaks ties), and the runner builds each trace once."""
    return job.workload_name, job.experiment.num_accesses, job.experiment.seed


def run_comparisons(
    comparisons: Iterable[Comparison],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressHook] = None,
    engine: Optional[EngineLike] = None,
) -> ComparisonPass:
    """Run several comparisons in one pass that runs each distinct job once.

    Equal declared jobs are one job, keyed once, and equal cache keys are
    one job too, so comparisons that share a baseline or a configuration
    share its runs -- with or without a cache.  The unique jobs run
    workload-major through one :class:`~repro.sim.runner.ParallelRunner`,
    which reuses their keys, builds each trace once and runs each distinct
    replay once.  ``repro reproduce`` and the Figure 8 sweeps run this way,
    and normalize each comparison's outcomes when they use its table.
    """
    comparisons = list(comparisons)
    keyed: Dict[SimulationJob, str] = {}
    unique: Dict[str, SimulationJob] = {}
    declared: List[List[str]] = []
    for comparison in comparisons:
        keys = []
        for job in comparison.jobs(engine):
            key = keyed.get(job)
            if key is None:
                key = keyed[job] = job.cache_key()
                unique.setdefault(key, job)
            keys.append(key)
        declared.append(keys)
    order = sorted(unique, key=lambda key: _trace_identity(unique[key]))
    misses_before = cache.misses if cache is not None else 0
    runner = ParallelRunner(jobs=jobs, cache=cache, progress=progress)
    results = dict(zip(order, runner.run([unique[key] for key in order], keys=order)))
    return ComparisonPass(
        outcomes=[[results[key] for key in keys] for keys in declared],
        unique_jobs=len(order),
        simulated_jobs=len(order) if cache is None else cache.misses - misses_before,
    )


def default_system_parameters() -> Dict[str, str]:
    """The paper's Table I configuration, as printable rows."""
    return {
        "Core": "6-wide fetch/retire out-of-order, 224-entry ROB, 3.2 GHz, 4 cores",
        "L1 Cache": "Private 32KB d- & 32KB i-cache, 64B line, 4-way",
        "Last Level Cache": "Shared 4MB, 64B line, 16-way",
        "Prefetcher": "Stream prefetcher",
        "Metadata Cache": "Shared 128KB, 64B line, 8-way",
        "Security Mechanisms": "40 processor-cycle encryption and MAC",
        "Main Memory": "16GB DRAM, 1 channel, 2 ranks, 4 bank-groups, 16 banks, 8Gb x8; "
        "64 read- and 64 write-entry memory controller queues",
        "Memory Timings": "DDR4-3200 at 1600MHz, tCL/tCCDS/tCCDL/tCWL/tWTRS/tWTRL/tRP/tRCD/tRAS"
        " = 22/4/10/16/4/12/22/22/56 cycles",
    }
