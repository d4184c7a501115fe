"""Tests for the figure registry, the reproduction pipeline, and artifacts."""

import collections
import csv
import json

import pytest

from repro import obs
from repro.errors import UnknownFigureError
from repro.figures import (
    ARTIFACT_SCHEMA_VERSION,
    FIGURES,
    FigureArtifact,
    PaperDelta,
    TrendResult,
    figure_names,
    figure_payload,
    get_figure,
    reproduce,
    resolve_figures,
    write_artifacts,
)
from repro.figures.report import write_figure_csv, write_figure_json
from repro.cli import main
from repro.sim import experiment as experiment_module
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import ResultCache, SimulationJob

#: Every artifact of the paper, in registry (paper) order.
EXPECTED_KEYS = [
    "table1", "table2", "fig6", "fig7", "fig8", "fig10", "fig12",
    "attacks", "security", "scalability", "ablation_cache", "ablation_burst",
]

TINY = ExperimentConfig(num_accesses=80, num_cores=1)
TINY_WORKLOADS = ["mcf", "pr"]

#: Unique simulation jobs of each figure alone at the TINY budget; the
#: analytic specs simulate nothing.
UNIQUE_JOBS = {
    "table1": 0, "table2": 0, "fig6": 12, "fig7": 2, "fig8": 20, "fig10": 10,
    "fig12": 10, "attacks": 0, "security": 0, "scalability": 8,
    "ablation_cache": 36, "ablation_burst": 30,
}
#: All twelve together: the figures share many of their jobs.
ALL_UNIQUE_JOBS = 87
#: Batch-engine runs for those jobs: 23 of them replay a system another job
#: replays (encrypt-only XTS is the TDX-like baseline, and a system without
#: a metadata path ignores the ablation's cache sizes) and take its result.
ALL_BATCH_RUNS = 64


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        assert figure_names() == EXPECTED_KEYS

    def test_unknown_key_suggests_closest_match(self):
        with pytest.raises(UnknownFigureError) as excinfo:
            get_figure("fig66")
        assert "closest match: 'fig6'" in str(excinfo.value)

    def test_resolve_none_returns_all(self):
        assert [spec.key for spec in resolve_figures()] == EXPECTED_KEYS


class TestWhatThePipelineRuns:
    @pytest.mark.parametrize("key", EXPECTED_KEYS)
    def test_each_figure_alone_runs_its_jobs_once_on_the_chosen_engine(self, key):
        """Without a cache every unique job is simulated exactly once, each
        on the pass's engine, and only the specs that declare comparisons
        count as simulated."""
        observation = obs.Observation(registry=obs.MetricsRegistry())
        with obs.observing(observation):
            report = reproduce(
                figures=[key], experiment=TINY, workload_filter=TINY_WORKLOADS,
                engine="reference",
            )
        assert report.unique_jobs == UNIQUE_JOBS[key]
        assert report.simulated_jobs == report.unique_jobs
        assert report.cache_directory is None
        assert get_figure(key).simulated == (UNIQUE_JOBS[key] > 0)
        engines = {
            name: value for name, value in observation.registry.summary().items()
            if name.startswith("engine_jobs_total")
        }
        expected = {"engine_jobs_total{engine=reference}": report.unique_jobs}
        assert engines == (expected if report.unique_jobs else {})

    def test_figures_share_their_jobs(self):
        """fig7's and the scalability spec's jobs are all among fig6's."""
        report = reproduce(
            figures=["fig6", "fig7", "scalability"], experiment=TINY,
            workload_filter=TINY_WORKLOADS,
        )
        assert report.unique_jobs == UNIQUE_JOBS["fig6"]

    def test_scalability_summary_orders_the_measured_mechanisms(self):
        report = reproduce(
            figures=["scalability"], experiment=TINY, workload_filter=TINY_WORKLOADS,
        )
        summary = report.artifacts[0].summary
        assert summary["measured_gmean/tdx_baseline"] == pytest.approx(1.0)
        # The analytic model's claim holds empirically: the tree pays for its
        # extra accesses, SecDDR+XTS does not.
        assert summary["measured_gmean/secddr_xts"] > summary["measured_gmean/integrity_tree_64"]


class TestPipeline:
    def test_all_figures_read_each_job_once(self, tmp_path):
        """End-to-end over every spec: a cold pass looks each unique job up
        once (all misses), a warm pass reads each once (all hits), and the
        build phase reads nothing back."""
        cache = ResultCache(tmp_path / "cache")
        report = reproduce(experiment=TINY, workload_filter=TINY_WORKLOADS, cache=cache)
        assert [o.artifact.key for o in report.outcomes] == EXPECTED_KEYS
        assert report.unique_jobs == report.simulated_jobs == ALL_UNIQUE_JOBS
        assert (cache.hits, cache.misses) == (0, ALL_UNIQUE_JOBS)
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

        warm_cache = ResultCache(tmp_path / "cache")
        warm = reproduce(experiment=TINY, workload_filter=TINY_WORKLOADS, cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (ALL_UNIQUE_JOBS, 0)
        assert (warm.unique_jobs, warm.simulated_jobs) == (ALL_UNIQUE_JOBS, 0)
        assert [figure_payload(a) for a in warm.artifacts] == [
            figure_payload(a) for a in report.artifacts
        ]

    def test_each_unique_job_is_keyed_once(self, tmp_path, monkeypatch):
        """Equal declared jobs collapse before keying, and the runner reuses
        the pipeline's keys: one cache_key call per unique job."""
        calls = []
        cache_key = SimulationJob.cache_key

        def counting_cache_key(job):
            calls.append(job)
            return cache_key(job)

        monkeypatch.setattr(SimulationJob, "cache_key", counting_cache_key)
        report = reproduce(
            experiment=TINY, workload_filter=TINY_WORKLOADS, cache=ResultCache(tmp_path / "cache")
        )
        assert len(calls) == report.unique_jobs == ALL_UNIQUE_JOBS

    def test_each_distinct_replay_runs_once(self, tmp_path):
        """The runner replays each distinct system once per trace; the other
        jobs still count as computed, and each is cached under its own key."""
        cache = ResultCache(tmp_path / "cache")
        observation = obs.Observation(registry=obs.MetricsRegistry())
        with obs.observing(observation):
            report = reproduce(experiment=TINY, workload_filter=TINY_WORKLOADS, cache=cache)
        summary = observation.registry.summary()
        assert summary["engine_jobs_total{engine=batch}"] == ALL_BATCH_RUNS
        assert report.simulated_jobs == len(cache) == ALL_UNIQUE_JOBS

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
