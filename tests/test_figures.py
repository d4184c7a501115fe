"""Tests for the figure registry, the reproduction pipeline, and artifacts."""

import collections
import csv
import json

import pytest

from repro.errors import UnknownFigureError
from repro.figures import (
    ARTIFACT_SCHEMA_VERSION,
    FIGURES,
    FigureArtifact,
    FigureContext,
    PaperDelta,
    TrendResult,
    collect_jobs,
    figure_names,
    figure_payload,
    get_figure,
    reproduce,
    resolve_figures,
    write_artifacts,
)
from repro.figures.report import write_figure_csv, write_figure_json
from repro.cli import main
from repro.secure.configs import resolve_configuration
from repro.sim import experiment as experiment_module
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import ResultCache, SimulationJob
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY

#: Every artifact of the paper, in registry (paper) order.
EXPECTED_KEYS = [
    "table1", "table2", "fig6", "fig7", "fig8", "fig10", "fig12",
    "attacks", "security", "scalability", "ablation_cache", "ablation_burst",
]

TINY = ExperimentConfig(num_accesses=80, num_cores=1)
TINY_WORKLOADS = ["mcf", "pr"]


def tiny_context(**kwargs):
    kwargs.setdefault("experiment", TINY)
    kwargs.setdefault("workload_filter", list(TINY_WORKLOADS))
    return FigureContext(**kwargs)


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert figure_names() == EXPECTED_KEYS

    def test_unknown_key_suggests_closest_match(self):
        with pytest.raises(UnknownFigureError) as excinfo:
            get_figure("fig66")
        assert "closest match: 'fig6'" in str(excinfo.value)

    def test_resolve_none_returns_all(self):
        assert [spec.key for spec in resolve_figures()] == EXPECTED_KEYS


class TestJobMatrices:
    @pytest.mark.parametrize("key", EXPECTED_KEYS)
    def test_spec_builds_a_valid_job_matrix(self, key):
        """Every declared job resolves and has a computable cache key."""
        spec = get_figure(key)
        jobs = spec.jobs(tiny_context())
        assert (len(jobs) > 0) == spec.simulated
        for job in jobs:
            assert isinstance(job, SimulationJob)
            resolve_configuration(job.configuration)
            if isinstance(job.workload, str):
                WORKLOAD_REGISTRY[job.workload]
            assert len(job.cache_key()) == 64

    def test_job_matrices_overlap_across_figures(self):
        """Dedup matters: fig7's jobs are a strict subset of fig6's."""
        ctx = tiny_context()
        fig6_keys = {job.cache_key() for job in get_figure("fig6").jobs(ctx)}
        fig7_keys = {job.cache_key() for job in get_figure("fig7").jobs(ctx)}
        assert fig7_keys < fig6_keys
        scalability_keys = {job.cache_key() for job in get_figure("scalability").jobs(ctx)}
        assert scalability_keys <= fig6_keys

    def test_collect_jobs_deduplicates(self):
        ctx = tiny_context()
        specs = [get_figure("fig6"), get_figure("fig7"), get_figure("scalability")]
        unique = collect_jobs(specs, ctx)
        assert len(unique) == len(get_figure("fig6").jobs(ctx))


class TestPipeline:
    def test_all_figures_build_from_their_declared_jobs(self, tmp_path):
        """End-to-end over every spec: the fan-out phase must cover every
        simulation the build phase performs (zero build-phase cache misses).
        """
        report = reproduce(
            experiment=TINY,
            workload_filter=TINY_WORKLOADS,
            cache=ResultCache(tmp_path / "cache"),
        )
        assert [o.artifact.key for o in report.outcomes] == EXPECTED_KEYS
        assert report.unique_jobs > 0
        assert report.build_misses == 0, (
            "some spec simulates jobs its jobs() matrix does not declare"
        )
        for outcome in report.outcomes:
            assert outcome.artifact.rows, outcome.artifact.key
            assert outcome.artifact.columns, outcome.artifact.key
        # A figure that silently drops a trend check fails here; fig7 checks
        # nothing unless a high-locality workload is in the set.
        assert {o.artifact.key: len(o.artifact.trends) for o in report.outcomes} == {
            "table1": 2, "table2": 4, "fig6": 4, "fig7": 0, "fig8": 4, "fig10": 3,
            "fig12": 3, "attacks": 4, "security": 6, "scalability": 3,
            "ablation_cache": 3, "ablation_burst": 3,
        }

    def test_each_distinct_trace_is_built_once(self, tmp_path, monkeypatch):
        """A full pass runs its jobs workload-major, so the small trace LRU
        builds each of its many distinct traces exactly once."""
        builds = collections.Counter()
        build_workload = experiment_module.build_workload

        def counting_build(name, num_accesses, seed):
            builds[name, num_accesses, seed] += 1
            return build_workload(name, num_accesses=num_accesses, seed=seed)

        monkeypatch.setattr(experiment_module, "build_workload", counting_build)
        experiment_module._build_workload_cached.cache_clear()
        reproduce(
            experiment=ExperimentConfig(num_accesses=40, num_cores=1),
            cache=ResultCache(tmp_path / "cache"),
        )
        assert len(builds) > experiment_module._build_workload_cached.cache_info().maxsize
        assert set(builds.values()) == {1}

    def test_warm_cache_second_run_simulates_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = reproduce(
            figures=["fig7"], experiment=TINY, workload_filter=TINY_WORKLOADS,
            cache=ResultCache(cache_dir),
        )
        assert first.simulated_jobs == first.unique_jobs > 0
        second = reproduce(
            figures=["fig7"], experiment=TINY, workload_filter=TINY_WORKLOADS,
            cache=ResultCache(cache_dir),
        )
        assert second.unique_jobs == first.unique_jobs
        assert second.simulated_jobs == 0
        assert second.artifacts[0].rows == first.artifacts[0].rows

    def test_fig8_parallel_equals_serial(self, tmp_path):
        serial = reproduce(
            figures=["fig8"], experiment=TINY, workload_filter=TINY_WORKLOADS,
            jobs=1, cache=ResultCache(tmp_path / "serial"),
        )
        parallel = reproduce(
            figures=["fig8"], experiment=TINY, workload_filter=TINY_WORKLOADS,
            jobs=2, cache=ResultCache(tmp_path / "parallel"),
        )
        assert parallel.artifacts[0].rows == serial.artifacts[0].rows
        assert parallel.artifacts[0].summary == serial.artifacts[0].summary

    def test_ephemeral_cache_still_feeds_the_build_phase(self):
        report = reproduce(
            figures=["fig7"], experiment=TINY, workload_filter=TINY_WORKLOADS,
        )
        assert report.cache_directory is None
        assert report.build_misses == 0


def sample_artifact():
    return FigureArtifact(
        key="sample",
        title="Sample figure",
        paper_ref="Figure 0",
        columns=["workload", "value", "note"],
        rows=[
            {"workload": "mcf", "value": 0.25, "note": None},
            {"workload": "pr", "value": 1, "note": "text"},
        ],
        summary={"gmean": 0.5},
        deltas=[PaperDelta("metric", 9.0, 9.6, "%")],
        trends=[TrendResult("holds", True), TrendResult("fails", False)],
    )


class TestArtifactWriter:
    def test_csv_is_schema_stable(self, tmp_path):
        path = write_figure_csv(sample_artifact(), tmp_path / "sample.csv")
        rows = list(csv.reader(path.open()))
        assert rows == [
            ["workload", "value", "note"],
            ["mcf", "0.25", ""],
            ["pr", "1", "text"],
        ]

    def test_json_payload_is_versioned_and_complete(self, tmp_path):
        path = write_figure_json(sample_artifact(), tmp_path / "sample.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == ARTIFACT_SCHEMA_VERSION
        assert set(payload) == {
            "schema", "key", "title", "paper_ref", "columns", "rows",
            "summary", "deltas", "trends",
        }
        assert payload["rows"][0] == {"workload": "mcf", "value": 0.25, "note": None}
        assert payload["deltas"][0] == {
            "metric": "metric", "reproduced": 9.0, "paper": 9.6,
            "delta": pytest.approx(-0.6), "unit": "%",
        }
        assert payload["trends"][1] == {"description": "fails", "passed": False}
        assert figure_payload(sample_artifact()) == payload

    def test_write_artifacts_emits_csv_json_and_report(self, tmp_path):
        report = reproduce(figures=["table1", "security"], experiment=TINY)
        paths = write_artifacts(report, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == sorted([
            "table1.csv", "table1.json", "security.csv", "security.json", "REPORT.md",
        ])
        report_md = (tmp_path / "out" / "REPORT.md").read_text()
        assert "# SecDDR paper reproduction report" in report_md
        assert "`table1`" in report_md and "`security`" in report_md
        assert "Reproduced vs. paper" in report_md


class TestCli:
    def test_reproduce_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert main([
            "reproduce", "--figures", "table1,table2,security",
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "simulated 0 of 0 unique simulation job(s)" in printed
        for name in ("table1", "table2", "security"):
            assert (out / ("%s.csv" % name)).exists()
            assert (out / ("%s.json" % name)).exists()
        assert (out / "REPORT.md").exists()

    def test_reproduce_simulated_figure_with_smoke_budget(self, tmp_path, capsys):
        out = tmp_path / "artifact"
        assert main([
            "reproduce", "--figures", "fig7", "--smoke", "-w", "mcf",
            "--out", str(out), "--jobs", "2",
        ]) == 0
        assert (out / "fig7.csv").exists()
        # The default cache lives under --out: a second invocation hits it.
        capsys.readouterr()
        assert main([
            "reproduce", "--figures", "fig7", "--smoke", "-w", "mcf",
            "--out", str(out),
        ]) == 0
        assert "simulated 0 of" in capsys.readouterr().out

    def test_reproduce_unknown_figure_is_a_clean_error(self, capsys):
        assert main(["reproduce", "--figures", "fig66"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure 'fig66'" in err
        assert "closest match: 'fig6'" in err
