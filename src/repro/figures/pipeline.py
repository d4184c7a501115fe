"""The reproduction pipeline: one deduplicated parallel pass over all figures.

:func:`reproduce` is what ``repro reproduce`` runs:

1. resolve the selected :class:`~repro.figures.spec.FigureSpec` keys;
2. run every spec's declared comparisons in one
   :func:`~repro.sim.experiment.run_comparisons` pass, which keys each
   distinct job once and **deduplicates across specs** by that result-cache
   key (Figure 7 shares all of its jobs with Figure 6, the scalability
   measurements are a subset of Figure 6, the Figure 8 packing comparisons
   reuse the arity comparisons' configurations, ...), then runs the unique
   jobs once, workload-major, through one
   :class:`~repro.sim.runner.ParallelRunner` and the result cache, when
   there is one -- a second invocation against the same cache re-simulates
   nothing at all;
3. normalize each declared comparison from those in-memory results and
   build every artifact from them: the build phase runs and reads nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro import obs
from repro.figures.registry import resolve_figures
from repro.figures.spec import FigureArtifact, FigureContext, FigureSpec
from repro.sim.experiment import ExperimentConfig, run_comparisons
from repro.sim.runner import ProgressHook, ResultCache, resolve_cache

__all__ = ["FigureOutcome", "ReproductionReport", "reproduce"]


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
    #: How many of those the cache did not hold (the rest were warm-cache hits).
    simulated_jobs: int
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
    read.  Without a cache, jobs still dedup by key within the pass and
    every unique job is simulated.
    """
    specs = resolve_figures(list(figures) if figures is not None else None)
    started = time.perf_counter()
    cache = resolve_cache(cache, cache_dir)
    ctx = FigureContext(
        experiment=experiment or ExperimentConfig(),
        workload_filter=list(workload_filter) if workload_filter else None,
    )
    with obs.span("reproduce", figures=len(specs)):
        declared = [(spec, spec.comparisons(ctx) if spec.simulated else {}) for spec in specs]
        run = run_comparisons(
            [comparison for _, comparisons in declared for comparison in comparisons.values()],
            jobs=jobs, cache=cache, progress=progress, engine=engine,
        )
        cells = iter(run.outcomes)
        outcomes: List[FigureOutcome] = []
        for spec, comparisons in declared:
            build_started = time.perf_counter()
            with obs.span("figure", key=spec.key):
                runs = {
                    name: comparison.normalize(next(cells))
                    for name, comparison in comparisons.items()
                }
                artifact = spec.build(ctx, runs)
            outcomes.append(
                FigureOutcome(spec, artifact, time.perf_counter() - build_started)
            )

    registry = obs.current().registry
    recorder = obs.current().timeline
    return ReproductionReport(
        outcomes=outcomes,
        experiment=ctx.experiment,
        jobs=jobs,
        unique_jobs=run.unique_jobs,
        simulated_jobs=run.simulated_jobs,
        elapsed_seconds=time.perf_counter() - started,
        cache_directory=None if cache is None else str(cache.directory),
        workload_filter=ctx.workload_filter,
        metrics_summary=None if registry is obs.NULL_REGISTRY else registry.summary(),
        timeline=recorder.to_payload() if recorder is not None else None,
    )
