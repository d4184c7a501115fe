"""Declarative figure specifications: what one paper artifact *is*.

A :class:`FigureSpec` captures everything needed to regenerate one figure or
table of the paper in one place:

* its **comparisons** -- the baseline-normalized
  :class:`~repro.sim.experiment.Comparison` matrices the artifact is made
  of, declared once, so the reproduction pipeline can union and deduplicate
  their jobs *across* figures before running anything (Figure 7 reuses
  every tree simulation Figure 6 already needs, the scalability spec reuses
  Figure 6's SecDDR runs, and so on);
* its **post-processing** -- the ``build`` callable that turns those
  comparisons' results and the analytical models into a
  :class:`FigureArtifact`: tabular rows, summary metrics,
  reproduced-vs-paper deltas, and expected-trend checks.

The ``repro reproduce`` CLI subcommand, the experiment service, and
``docs/reproducing-the-paper.md`` all key off the same registered specs, so
a figure's definition lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Union

from repro.cpu.trace import MemoryTrace
from repro.sim.experiment import Comparison, ExperimentConfig
from repro.sim.results import ComparisonResult
from repro.traces.streaming import ChunkedTrace
from repro.workloads.registry import memory_intensive_workloads, workload_names

#: A workload entry in a figure's comparisons: a registry name or a pre-built
#: trace value (in-memory or streamed -- jobs carry either verbatim).
WorkloadLike = Union[str, MemoryTrace, ChunkedTrace]

__all__ = [
    "CellValue",
    "FigureArtifact",
    "FigureContext",
    "FigureSpec",
    "PaperDelta",
    "TrendResult",
    "WorkloadLike",
]

#: A single table cell: figures mix names, counts, and measurements.
CellValue = Union[str, int, float, None]


@dataclass(frozen=True)
class PaperDelta:
    """One reproduced-vs-paper headline number.

    ``reproduced`` is what this run measured, ``paper`` is the value the
    paper reports for the same quantity, and ``unit`` labels both (``"%"``,
    ``"mW"``, ``"days"``, ...).  The artifact writer renders these as the
    "reproduced vs paper" table of ``REPORT.md``.
    """

    metric: str
    reproduced: float
    paper: float
    unit: str = ""

    @property
    def delta(self) -> float:
        return self.reproduced - self.paper


@dataclass(frozen=True)
class TrendResult:
    """Outcome of one expected-trend assertion (e.g. "SecDDR beats the tree").

    Trends encode the paper's qualitative claims; they are evaluated during
    ``build`` and recorded -- the pipeline reports failures without aborting,
    while ``repro reproduce --strict`` turns any failure into exit code 1.
    """

    description: str
    passed: bool


@dataclass
class FigureArtifact:
    """The reproduced artifact for one figure/table: data plus verdicts."""

    key: str
    title: str
    paper_ref: str
    columns: List[str]
    rows: List[Dict[str, CellValue]]
    summary: Dict[str, float] = field(default_factory=dict)
    deltas: List[PaperDelta] = field(default_factory=list)
    trends: List[TrendResult] = field(default_factory=list)

    @property
    def failed_trends(self) -> List[TrendResult]:
        return [trend for trend in self.trends if not trend.passed]

    def cell(self, value: CellValue, precision: int = 3) -> str:
        """Render one cell for the text table ('' for holes in the matrix)."""
        if value is None:
            return "-"
        if isinstance(value, float):
            return "%.*f" % (precision, value)
        return str(value)

    def format_text(self) -> str:
        """Paper-style text rendering of the title and rows."""
        lines = ["=" * 78, "%s   [%s]" % (self.title, self.paper_ref), "=" * 78]
        cells = [self.columns] + [
            [self.cell(row.get(column)) for column in self.columns] for row in self.rows
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if self.summary:
            lines.append("")
            for name, value in self.summary.items():
                lines.append("%-52s %.3f" % (name, value))
        if self.deltas:
            lines.append("")
            lines.append("reproduced vs paper:")
            for d in self.deltas:
                lines.append("  %-50s %.3f%s  [paper: %g%s]"
                             % (d.metric, d.reproduced, d.unit, d.paper, d.unit))
        if self.trends:
            lines.append("")
            for trend in self.trends:
                lines.append("  [%s] %s" % ("ok" if trend.passed else "FAIL", trend.description))
        return "\n".join(lines)


@dataclass
class FigureContext:
    """What a spec reads to declare its comparisons and build its artifact.

    One context is shared by every spec in a reproduction pass, so all
    figures run under the same experiment budget and workload selection --
    which is what makes cross-figure job deduplication sound (equal budgets
    produce equal cache keys).  The pipeline, not the context, owns the
    engine, the result cache and the degree of parallelism.
    """

    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: Optional workload restriction (e.g. CI smoke runs): replaces the
    #: "all workloads" / "memory intensive" sets a spec would otherwise use.
    #: Entries may be registry names or pre-built trace values (streamed
    #: traces included); trace values flow into the comparisons verbatim.
    #: Specs with a *fixed* workload list (the ablations) ignore it, so
    #: their assertions keep operating on the workloads they reason about.
    workload_filter: Optional[List[WorkloadLike]] = None

    def all_workloads(self) -> List[WorkloadLike]:
        if self.workload_filter:
            return list(self.workload_filter)
        return workload_names()

    def memory_intensive(self) -> List[WorkloadLike]:
        if self.workload_filter:
            return list(self.workload_filter)
        return memory_intensive_workloads()

    def experiment_with(self, **overrides) -> ExperimentConfig:
        """The shared budget with some fields replaced (ablation sweeps)."""
        return replace(self.experiment, **overrides)


#: Declares the comparisons an artifact is made of, by name.
ComparisonsBuilder = Callable[[FigureContext], Dict[str, Comparison]]
#: Turns those comparisons' results and the analytic models into the artifact.
ArtifactBuilder = Callable[[FigureContext, Dict[str, ComparisonResult]], "FigureArtifact"]


@dataclass(frozen=True)
class FigureSpec:
    """One registered paper figure/table.

    ``comparisons(ctx)`` declares, by name, every simulation the artifact
    depends on; analytic specs declare none.  The pipeline runs the union of
    all specs' jobs once, then calls ``build(ctx, runs)`` with ``runs``
    mapping each declared name to its
    :class:`~repro.sim.results.ComparisonResult` (empty for analytic specs).
    """

    key: str
    title: str
    paper_ref: str
    description: str
    build: ArtifactBuilder
    comparisons: Optional[ComparisonsBuilder] = None

    @property
    def simulated(self) -> bool:
        """Whether the artifact depends on timing simulations at all."""
        return self.comparisons is not None
