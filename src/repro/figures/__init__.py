"""Paper-artifact pipeline: figure specs, the registry, and ``reproduce``.

This package owns the "one command, every figure" path of the reproduction:

* :mod:`repro.figures.spec` -- :class:`FigureSpec` (the comparisons a
  figure is made of, its post-processing, and its expected-trend checks),
  :class:`FigureContext` (the shared budget and workload selection), and
  :class:`FigureArtifact` (the reproduced rows, summary metrics,
  reproduced-vs-paper deltas, trends).
* :mod:`repro.figures.registry` -- the name -> spec registry that the CLI,
  the experiment service, and ``docs/reproducing-the-paper.md`` all key off.
* :mod:`repro.figures.paper` -- the registered specs for every artifact of
  the SecDDR paper (Tables I-II, Figures 6/7/8/10/12, the attack matrix,
  the security arithmetic, scalability, and the ablations).
* :mod:`repro.figures.pipeline` -- :func:`reproduce`: dedup the jobs of
  every selected spec's comparisons across figures, run them in one cached
  parallel pass, then build all artifacts from those results.
* :mod:`repro.figures.report` -- per-figure CSV/JSON artifacts and the
  combined ``REPORT.md``.

Quick start::

    from repro.figures import reproduce, write_artifacts

    report = reproduce(figures=["fig6", "table2"], jobs=4, cache_dir=".simcache")
    write_artifacts(report, "artifact/")

which is exactly what ``repro reproduce --figures fig6,table2`` does.
"""

from repro.figures.spec import (
    FigureArtifact,
    FigureContext,
    FigureSpec,
    PaperDelta,
    TrendResult,
)
from repro.figures.registry import (
    FIGURES,
    figure_names,
    get_figure,
    register_figure,
    resolve_figures,
)
from repro.figures.pipeline import (
    FigureOutcome,
    ReproductionReport,
    reproduce,
)
from repro.figures.report import (
    ARTIFACT_SCHEMA_VERSION,
    figure_payload,
    render_report_markdown,
    write_artifacts,
)
from repro.figures import paper as _paper  # noqa: F401  (registers the specs)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "FIGURES",
    "FigureArtifact",
    "FigureContext",
    "FigureOutcome",
    "FigureSpec",
    "PaperDelta",
    "ReproductionReport",
    "TrendResult",
    "figure_names",
    "figure_payload",
    "get_figure",
    "register_figure",
    "render_report_markdown",
    "reproduce",
    "resolve_figures",
    "write_artifacts",
]
