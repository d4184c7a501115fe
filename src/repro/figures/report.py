"""Artifact writers: per-figure CSV + JSON and the combined ``REPORT.md``.

The on-disk layout under ``repro reproduce --out DIR`` is::

    DIR/
      REPORT.md        # combined markdown report (tables, deltas, trends)
      <key>.csv        # one tabular file per figure (schema-stable columns)
      <key>.json       # the same data plus summary/deltas/trends, versioned

The JSON payloads carry :data:`ARTIFACT_SCHEMA_VERSION` so downstream
tooling can detect layout changes; CSV columns come verbatim from each
:class:`~repro.figures.spec.FigureArtifact`, whose column sets are fixed by
the specs (and pinned by tests).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.figures.pipeline import ReproductionReport
from repro.figures.spec import CellValue, FigureArtifact

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "figure_payload",
    "write_figure_csv",
    "write_figure_json",
    "render_report_markdown",
    "write_artifacts",
]

#: Bump when the JSON payload layout or the CSV cell formatting changes.
ARTIFACT_SCHEMA_VERSION = 1


def _format_cell(value: CellValue) -> str:
    """Stable text form for CSV cells ('' for holes, %.6g for floats)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def figure_payload(artifact: FigureArtifact) -> Dict[str, object]:
    """The versioned JSON payload for one figure artifact."""
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "key": artifact.key,
        "title": artifact.title,
        "paper_ref": artifact.paper_ref,
        "columns": list(artifact.columns),
        "rows": [
            {column: row.get(column) for column in artifact.columns}
            for row in artifact.rows
        ],
        "summary": dict(artifact.summary),
        "deltas": [
            {
                "metric": d.metric,
                "reproduced": d.reproduced,
                "paper": d.paper,
                "delta": d.delta,
                "unit": d.unit,
            }
            for d in artifact.deltas
        ],
        "trends": [
            {"description": t.description, "passed": t.passed} for t in artifact.trends
        ],
    }


def write_figure_csv(artifact: FigureArtifact, path: Union[str, Path]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(artifact.columns)
        for row in artifact.rows:
            writer.writerow([_format_cell(row.get(column)) for column in artifact.columns])
    return path


def write_figure_json(artifact: FigureArtifact, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(figure_payload(artifact), indent=2, sort_keys=True) + "\n")
    return path


def _md_table(columns: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _md_cell(value: CellValue) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def render_figure_markdown(artifact: FigureArtifact) -> List[str]:
    """The ``REPORT.md`` section for one figure."""
    # Explicit anchor: the index table links to #<key>, which the
    # title-derived auto-slug would never match.
    lines = ['<a id="%s"></a>' % artifact.key, ""]
    lines += ["## %s (`%s`)" % (artifact.title, artifact.key), ""]
    lines.append("*Paper reference: %s.*" % artifact.paper_ref)
    lines.append("")
    lines += _md_table(
        artifact.columns,
        [[_md_cell(row.get(column)) for column in artifact.columns] for row in artifact.rows],
    )
    if artifact.summary:
        lines += ["", "**Summary metrics**", ""]
        lines += _md_table(
            ["metric", "value"],
            [[name, "%.3f" % value] for name, value in artifact.summary.items()],
        )
    if artifact.deltas:
        lines += ["", "**Reproduced vs. paper**", ""]
        lines += _md_table(
            ["metric", "reproduced", "paper", "delta"],
            [
                [
                    d.metric,
                    "%.3f%s" % (d.reproduced, d.unit),
                    "%g%s" % (d.paper, d.unit),
                    "%+.3f%s" % (d.delta, d.unit),
                ]
                for d in artifact.deltas
            ],
        )
    if artifact.trends:
        lines += ["", "**Expected trends**", ""]
        lines += [
            "- [%s] %s" % ("x" if t.passed else " ", t.description) for t in artifact.trends
        ]
        failed = artifact.failed_trends
        if failed:
            lines += ["", "⚠ %d expected trend(s) FAILED at this budget." % len(failed)]
    lines.append("")
    return lines


def render_report_markdown(report: ReproductionReport) -> str:
    """The combined ``REPORT.md`` for one reproduction pass."""
    experiment = report.experiment
    lines = [
        "# SecDDR paper reproduction report",
        "",
        "Reproduced artifacts of *SecDDR: Enabling Low-Cost Secure Memories by",
        "Protecting the DDR Interface* (DSN 2023), generated by `repro reproduce`.",
        "",
        "## Run summary",
        "",
    ]
    workloads = ", ".join(report.workload_filter) if report.workload_filter else "per figure (full sets)"
    lines += _md_table(
        ["setting", "value"],
        [
            ["experiment budget", "%d LLC accesses x %d core(s) (seed %d)"
             % (experiment.num_accesses, experiment.num_cores, experiment.seed)],
            ["workloads", workloads],
            ["worker processes", str(report.jobs)],
            ["unique simulation jobs (deduplicated across figures)", str(report.unique_jobs)],
            ["jobs computed this pass (rest were cache hits)", str(report.simulated_jobs)],
            ["wall time", "%.1f s" % report.elapsed_seconds],
            ["result cache", report.cache_directory or "none"],
        ],
    )
    if report.timeline and report.timeline.get("series"):
        lines += ["", "## Timeline", ""]
        lines += [
            "Windowed telemetry was recorded for %d series (window: %d "
            "accesses); open `dashboard.html` for sparklines and event "
            "markers, or read the raw payload in `timeline.json`."
            % (len(report.timeline["series"]), report.timeline.get("window", 0)),
        ]
    if report.metrics_summary:
        lines += ["", "## Observability", ""]
        lines += [
            "Metrics collected during this pass (see `docs/observability.md`).",
            "",
        ]
        metric_rows = []
        for name in sorted(report.metrics_summary):
            value = report.metrics_summary[name]
            if isinstance(value, dict):
                rendered = "count=%s sum=%s" % (value.get("count"), value.get("sum"))
            else:
                rendered = "%g" % value
            metric_rows.append(["`%s`" % name, rendered])
        lines += _md_table(["metric", "value"], metric_rows)
    lines += ["", "## Figures", ""]
    index_rows = []
    for outcome in report.outcomes:
        artifact = outcome.artifact
        passed = sum(1 for t in artifact.trends if t.passed)
        index_rows.append([
            "[`%s`](#%s)" % (artifact.key, artifact.key),
            artifact.paper_ref,
            "%d/%d" % (passed, len(artifact.trends)) if artifact.trends else "–",
            "`%s.csv` / `%s.json`" % (artifact.key, artifact.key),
        ])
    lines += _md_table(["figure", "paper artifact", "trends passed", "files"], index_rows)
    lines.append("")
    for outcome in report.outcomes:
        lines += render_figure_markdown(outcome.artifact)
    return "\n".join(lines) + "\n"


def write_artifacts(report: ReproductionReport, out_dir: Union[str, Path]) -> List[Path]:
    """Write every per-figure CSV/JSON plus ``REPORT.md``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for artifact in report.artifacts:
        paths.append(write_figure_csv(artifact, out / ("%s.csv" % artifact.key)))
        paths.append(write_figure_json(artifact, out / ("%s.json" % artifact.key)))
    report_path = out / "REPORT.md"
    report_path.write_text(render_report_markdown(report))
    paths.append(report_path)
    if report.timeline and report.timeline.get("series"):
        from repro.obs.dashboard import render_dashboard

        timeline_path = out / "timeline.json"
        timeline_path.write_text(
            json.dumps(report.timeline, indent=1, sort_keys=True) + "\n"
        )
        paths.append(timeline_path)
        dashboard_path = out / "dashboard.html"
        dashboard_path.write_text(render_dashboard(report.timeline))
        paths.append(dashboard_path)
    return paths
