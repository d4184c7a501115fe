"""The reproduction pipeline: one deduplicated parallel pass over all figures.

:func:`reproduce` is what ``repro reproduce`` runs:

1. resolve the selected :class:`~repro.figures.spec.FigureSpec` keys;
2. union every spec's simulation jobs and **deduplicate across specs** by
   result-cache key (Figure 7 shares all of its jobs with Figure 6, the
   scalability measurements are a subset of Figure 6, the Figure 8 packing
   sweep reuses the arity sweep's configurations, ...);
3. fan the unique jobs out through one
   :class:`~repro.sim.runner.ParallelRunner` into the shared
   :class:`~repro.sim.runner.ResultCache`;
4. build every artifact against the now-warm cache -- by construction the
   build phase performs **zero** additional simulations, and a second
   invocation against the same cache re-simulates nothing at all.

When the caller provides no cache, an ephemeral one is created for the
duration of the pass so step 4 still reads step 3's results.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro import obs
from repro.figures.registry import resolve_figures
from repro.figures.spec import FigureArtifact, FigureContext, FigureSpec
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import (
    ParallelRunner,
    ProgressHook,
    ResultCache,
    SimulationJob,
    resolve_cache,
)

__all__ = ["FigureOutcome", "ReproductionReport", "collect_jobs", "reproduce"]


@dataclass
class FigureOutcome:
    """One built artifact plus how long its build (post-processing) took."""

    spec: FigureSpec
    artifact: FigureArtifact
    elapsed_seconds: float


@dataclass
class ReproductionReport:
    """Everything one reproduction pass produced and measured."""

    outcomes: List[FigureOutcome]
    experiment: ExperimentConfig
    jobs: int
    #: Deduplicated simulation jobs across every selected figure.
    unique_jobs: int
    #: How many of those actually ran (the rest were warm-cache hits).
    simulated_jobs: int
    #: Simulations performed while building artifacts -- always 0 when every
    #: spec's declared job matrix covers its build (enforced by tests).
    build_misses: int
    elapsed_seconds: float
    cache_directory: Optional[str] = None
    workload_filter: Optional[List[str]] = field(default=None)
    #: :meth:`repro.obs.MetricsRegistry.summary` of the pass, when metrics
    #: were enabled; rendered as an "Observability" section in REPORT.md.
    metrics_summary: Optional[dict] = field(default=None)
    #: :meth:`repro.obs.TimelineRecorder.to_payload` of the pass, when a
    #: timeline recorder was active; ``write_artifacts`` renders it as
    #: ``dashboard.html`` + ``timeline.json``.
    timeline: Optional[dict] = field(default=None)

    @property
    def artifacts(self) -> List[FigureArtifact]:
        return [outcome.artifact for outcome in self.outcomes]

    @property
    def failed_trends(self) -> List[str]:
        """``"key: description"`` for every expected trend that failed."""
        return [
            "%s: %s" % (outcome.artifact.key, trend.description)
            for outcome in self.outcomes
            for trend in outcome.artifact.failed_trends
        ]


def collect_jobs(specs: Iterable[FigureSpec], ctx: FigureContext) -> List[SimulationJob]:
    """The union of every spec's job matrix, deduplicated by cache key.

    The cache key fingerprints the full configuration spec, the workload
    identity, and every experiment knob, so two specs requesting the same
    (workload, configuration, budget) triple collapse to one job even when
    one names the configuration and the other passes a derived value.
    """
    unique: List[SimulationJob] = []
    seen = set()
    for spec in specs:
        for job in spec.jobs(ctx):
            key = job.cache_key()
            if key not in seen:
                seen.add(key)
                unique.append(job)
    return unique


def reproduce(
    figures: Optional[Iterable[str]] = None,
    experiment: Optional[ExperimentConfig] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
    workload_filter: Optional[List[str]] = None,
    engine: Optional[str] = None,
) -> ReproductionReport:
    """Reproduce the selected figures (default: all) in one cached pass.

    ``engine`` selects the simulation engine for every job in the pass (see
    :mod:`repro.sim.engines`); engines share cache keys, so a pass run on
    the batch engine warms exactly the entries a later reference pass would
    read.
    """
    specs = resolve_figures(list(figures) if figures is not None else None)
    started = time.perf_counter()
    cache = resolve_cache(cache, cache_dir)
    ephemeral: Optional[tempfile.TemporaryDirectory] = None
    if cache is None:
        # Without a shared cache the build phase could not see the fan-out
        # phase's results; an ephemeral cache keeps the pipeline's "simulate
        # once, render many" contract without persisting anything.
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-figures-cache-")
        cache = ResultCache(ephemeral.name)
    ctx = FigureContext(
        experiment=experiment or ExperimentConfig(),
        cache=cache,
        jobs=jobs,
        progress=progress,
        workload_filter=list(workload_filter) if workload_filter else None,
        engine=engine,
    )
    try:
        with obs.span("reproduce", figures=len(specs)):
            unique = collect_jobs(specs, ctx)
            misses_before = cache.misses
            runner = ParallelRunner(jobs=ctx.jobs, cache=cache, progress=progress)
            runner.run(unique)
            simulated = cache.misses - misses_before

            outcomes: List[FigureOutcome] = []
            build_misses_before = cache.misses
            for spec in specs:
                build_started = time.perf_counter()
                with obs.span("figure", key=spec.key):
                    artifact = spec.build(ctx)
                outcomes.append(
                    FigureOutcome(spec, artifact, time.perf_counter() - build_started)
                )
            build_misses = cache.misses - build_misses_before
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()

    registry = obs.current().registry
    recorder = obs.current().timeline
    return ReproductionReport(
        outcomes=outcomes,
        experiment=ctx.experiment,
        jobs=ctx.jobs,
        unique_jobs=len(unique),
        simulated_jobs=simulated,
        build_misses=build_misses,
        elapsed_seconds=time.perf_counter() - started,
        cache_directory=None if ephemeral is not None else str(cache.directory),
        workload_filter=ctx.workload_filter,
        metrics_summary=None if registry is obs.NULL_REGISTRY else registry.summary(),
        timeline=recorder.to_payload() if recorder is not None else None,
    )
