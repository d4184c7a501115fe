"""Tests for ``repro.bench``: the continuous-evaluation harness.

Covers the registry (the committed baseline records every registered
spec), the measurement contract (identical metric keys across warm runs,
second pass all cache hits), the regression gate (``repro bench --check``
fails on a perturbed baseline and passes against its own record), the
on-disk ``BENCH_<date>.json`` schema round-trip, and the file-locked merge
writer raced from two OS processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    BenchContext,
    MetricSpec,
    bench_names,
    compare_records,
    default_record_path,
    environment_fingerprint,
    environments_match,
    find_baseline,
    get_bench,
    load_record,
    merge_bench_record,
    render_bench_report,
    resolve_benches,
    run_benches,
    violations,
)
from repro.cli import main
from repro.errors import UnknownBenchError

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"

#: A cheap subset used wherever the tests actually run specs; fuzz runs
#: cache-keyed jobs, engines times two short simulations outside the cache.
FAST_BENCHES = ["fuzz", "engines"]


# ---------------------------------------------------------------------------
# Registry completeness
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_committed_baseline_covers_every_bench_at_the_smoke_scenario(self):
        """``repro bench --check --smoke`` gates every bench: none is ``new``
        or ``scenario-mismatch`` against the newest committed baseline."""
        baseline = max(BENCHMARKS_DIR.glob("BENCH_*.json"), key=lambda path: path.name)
        benches = load_record(baseline)["benches"]
        assert sorted(benches) == sorted(bench_names()), baseline.name
        smoke = BenchContext.smoke().scenario()
        for key, entry in benches.items():
            assert entry["scenario"] == smoke, (baseline.name, key)

    def test_no_bench_duplicates_a_figure(self):
        """A figure is built and trend-checked by ``repro reproduce`` alone."""
        from repro.figures import figure_names

        assert not set(bench_names()) & set(figure_names())

    def test_unknown_bench_suggests_closest(self):
        with pytest.raises(UnknownBenchError) as excinfo:
            get_bench("trace_streming")
        assert excinfo.value.suggestion == "trace_streaming"

    def test_resolve_defaults_to_all_in_registration_order(self):
        specs = resolve_benches(None)
        assert [spec.key for spec in specs] == bench_names()

    def test_every_spec_declares_at_least_one_gated_metric(self):
        for name in bench_names():
            spec = get_bench(name)
            gated = [m for m in spec.metrics if m.max_regression is not None]
            assert gated, "bench %r has no regression policy at all" % name


# ---------------------------------------------------------------------------
# Metric policy semantics
# ---------------------------------------------------------------------------
class TestMetricSpec:
    def test_informational_metric_never_violates(self):
        metric = MetricSpec("x", max_regression=None)
        assert not metric.violated(100.0, 0.0)

    def test_zero_tolerance_fails_any_drop(self):
        metric = MetricSpec("rate", max_regression=0.0)
        assert metric.violated(1.0, 0.999)
        assert not metric.violated(1.0, 1.0)
        assert not metric.violated(1.0, 1.5)

    def test_relative_tolerance(self):
        metric = MetricSpec("throughput", max_regression=0.10)
        assert not metric.violated(1000.0, 950.0)  # -5% is inside the band
        assert metric.violated(1000.0, 850.0)  # -15% is not

    def test_lower_is_better_inverts_direction(self):
        metric = MetricSpec("latency", higher_is_better=False, max_regression=0.10)
        assert not metric.violated(1.0, 0.5)  # got faster: fine
        assert metric.violated(1.0, 1.5)  # got slower: regression


# ---------------------------------------------------------------------------
# Warm-run determinism (the headline acceptance criterion)
# ---------------------------------------------------------------------------
class TestWarmRuns:
    def test_two_smoke_passes_share_keys_and_second_is_all_hits(self, tmp_path):
        """Back-to-back smoke passes: identical metric keys, zero re-simulation."""
        from repro.sim.runner import ResultCache

        cache = ResultCache(tmp_path / "cache")
        first = run_benches(FAST_BENCHES, smoke=True, cache=cache)
        second = run_benches(FAST_BENCHES, smoke=True, cache=cache)

        assert first.profile == second.profile == "smoke"
        assert first.simulated_jobs > 0
        assert second.simulated_jobs == 0
        assert second.cached_jobs > 0

        for before, after in zip(first.entries, second.entries):
            assert before.key == after.key
            assert sorted(before.metrics) == sorted(after.metrics)
            assert before.scenario == after.scenario
            spec = get_bench(before.key)
            for metric in spec.metrics:
                if not metric.noisy:
                    assert before.metrics[metric.name] == after.metrics[metric.name], (
                        "deterministic metric %s.%s drifted between warm runs"
                        % (before.key, metric.name)
                    )

    def test_entries_carry_the_smoke_scenario(self, tmp_path):
        from repro.sim.runner import ResultCache

        report = run_benches(["engines"], smoke=True, cache=ResultCache(tmp_path / "c"))
        (entry,) = report.entries
        assert entry.scenario["timing_accesses"] == 2000
        assert entry.scenario["rounds"] == 1
        assert entry.metrics["parity_exact"] == 1.0

    def test_measure_rejects_undeclared_metrics(self):
        spec = get_bench("engines")
        broken = type(spec)(
            key=spec.key, title=spec.title, description=spec.description,
            metrics=spec.metrics, run=lambda ctx: {"surprise": 1.0},
        )
        with pytest.raises(ValueError, match="declares"):
            broken.measure(BenchContext.smoke())


# ---------------------------------------------------------------------------
# Record schema round-trip
# ---------------------------------------------------------------------------
class TestRecordRoundTrip:
    def _payload(self, value=1.0):
        return {
            "scenario": {"fuzz_budget": 12, "fuzz_seed": 7},
            "metrics": {"detection_rate": value, "scenarios": value},
            "elapsed_seconds": 0.5,
        }

    def test_merge_then_load_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"fuzz": self._payload()}, profile="smoke")
        record = load_record(path)
        assert record["schema"] == 1
        assert record["profile"] == "smoke"
        assert record["benches"]["fuzz"] == self._payload()
        assert record["environment"] == environment_fingerprint()

    def test_merge_preserves_other_keys(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"fuzz": self._payload(1.0)})
        merge_bench_record(path, {"obs": self._payload(2.0)})
        record = load_record(path)
        assert set(record["benches"]) == {"fuzz", "obs"}
        assert record["benches"]["fuzz"]["metrics"]["detection_rate"] == 1.0

    def test_merge_overwrites_stale_entry_for_same_key(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        merge_bench_record(path, {"fuzz": self._payload(1.0)})
        merge_bench_record(path, {"fuzz": self._payload(3.0)})
        record = load_record(path)
        assert record["benches"]["fuzz"]["metrics"]["detection_rate"] == 3.0

    def test_corrupt_record_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_2026-01-01.json"
        path.write_text("{not json")
        merge_bench_record(path, {"fuzz": self._payload()})
        assert "fuzz" in load_record(path)["benches"]

    def test_default_record_path_is_dated(self, tmp_path):
        path = default_record_path(tmp_path)
        assert path.parent == Path(tmp_path)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"

    def test_legacy_record_layout_upgrades(self, tmp_path):
        """Pre-registry BENCH files (flat engines + nested server) still load."""
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({
            "scenario": {"accesses": 20000},
            "engines": {
                "reference": {"accesses_per_second": 1000.0},
                "batch": {"accesses_per_second": 14000.0},
            },
            "speedup": 14.0,
            "parity": "exact",
            "python": "3.11.1",
            "machine": "x86_64",
            "server": {
                "submissions_per_second": 300.0,
                "warm_e2e_seconds": 0.05,
                "transport_overhead_seconds": 0.04,
                "result_parity": "byte-identical",
            },
        }))
        record = load_record(path)
        benches = record["benches"]
        assert benches["engines"]["metrics"]["speedup"] == 14.0
        assert benches["engines"]["metrics"]["parity_exact"] == 1.0
        assert benches["server"]["metrics"]["result_parity"] == 1.0


# ---------------------------------------------------------------------------
# Baseline comparison + report
# ---------------------------------------------------------------------------
class TestCompare:
    def _record(self, detected=1.0, throughput=1000.0, env=None, accesses=2000):
        return {
            "schema": 1,
            "profile": "smoke",
            "environment": env or environment_fingerprint(),
            "benches": {
                "fuzz": {
                    "scenario": {"timing_accesses": accesses, "fuzz_budget": 12},
                    "metrics": {
                        "detection_rate": detected,
                        "false_alarms": 0.0,
                        "oracle_violations": 0.0,
                        "scenarios": 12.0,
                    },
                    "elapsed_seconds": 1.0,
                },
                "engines": {
                    "scenario": {"timing_accesses": accesses},
                    "metrics": {
                        "reference_accesses_per_second": throughput / 10.0,
                        "batch_accesses_per_second": throughput,
                        "speedup": 10.0,
                        "parity_exact": 1.0,
                    },
                    "elapsed_seconds": 1.0,
                },
            },
        }

    def test_identical_records_have_no_violations(self):
        record = self._record()
        deltas = compare_records(record, self._record())
        assert violations(deltas) == []
        assert all(d.status in ("ok", "info") for d in deltas)

    def test_deterministic_drop_is_a_violation(self):
        deltas = compare_records(self._record(detected=0.9), self._record(detected=1.0))
        failed = violations(deltas)
        assert [(d.bench, d.metric) for d in failed] == [("fuzz", "detection_rate")]
        assert failed[0].status == "regressed"

    def test_noisy_drop_fails_only_under_matching_environment(self):
        current = self._record(throughput=500.0)  # -50%, way past the 10% band
        baseline = self._record(throughput=1000.0)
        same_env = compare_records(current, baseline)
        assert any(d.status == "regressed" and d.metric == "batch_accesses_per_second"
                   for d in same_env)

        other = dict(baseline, environment={"python": "0.0", "cpu_count": 1})
        assert not environments_match(current, other)
        flagged = compare_records(current, other)
        assert violations(flagged) == []
        assert any(d.status == "flagged" and d.metric == "batch_accesses_per_second"
                   for d in flagged)

    def test_scenario_mismatch_never_gates(self):
        """A smoke run is not compared against a full-budget baseline."""
        deltas = compare_records(
            self._record(detected=0.0, accesses=2000),
            self._record(detected=1.0, accesses=20000),
        )
        assert violations(deltas) == []
        assert all(d.status == "scenario-mismatch" for d in deltas)

    def test_report_renders_deltas_and_summary(self):
        record = self._record(detected=0.9)
        deltas = compare_records(record, self._record(detected=1.0))
        text = render_bench_report(record, deltas, baseline_path="old.json")
        assert "| `fuzz` | `detection_rate` |" in text
        assert "1 policy violation(s)" in text

    def test_report_without_baseline_says_so(self):
        text = render_bench_report(self._record(), None)
        assert "No baseline record found" in text

    def test_find_baseline_picks_the_newest_other_record(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert find_baseline() is None
        committed = tmp_path / "benchmarks"
        committed.mkdir()
        for name in ("BENCH_2026-01-02.json", "BENCH_2026-01-10.json", "BENCH_2026-02-01.json.lock"):
            (committed / name).write_text("{}")
        assert find_baseline() == Path("benchmarks/BENCH_2026-01-10.json")
        own = committed / "BENCH_2026-01-10.json"
        assert find_baseline(exclude=own) == Path("benchmarks/BENCH_2026-01-02.json")


# ---------------------------------------------------------------------------
# The CLI gate (`repro bench --check`)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="class")
def gate_cache(tmp_path_factory):
    """One fuzz scenario cache for the gate tests: only the first run is cold."""
    return tmp_path_factory.mktemp("gate-cache")


class TestCliGate:
    def _run(self, out, cache, *extra):
        return main([
            "bench", "--smoke", "-b", "fuzz", "-o", str(out),
            "--cache-dir", str(cache), *extra,
        ])

    def test_check_passes_against_own_identical_record(self, tmp_path, capsys, gate_cache):
        out, cache = tmp_path / "out", gate_cache
        assert self._run(out, cache) == 0
        record_path = default_record_path(out)
        assert record_path.is_file()
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_text(record_path.read_text())
        assert self._run(out, cache, "--check", str(baseline)) == 0
        assert "regression gate passed" in capsys.readouterr().out
        assert (out / "BENCH_REPORT.md").is_file()

    def test_check_fails_on_perturbed_baseline(self, tmp_path, capsys, gate_cache):
        """ISSUE acceptance: a synthetic regression makes --check exit non-zero."""
        out, cache = tmp_path / "out", gate_cache
        assert self._run(out, cache) == 0
        record = load_record(default_record_path(out))
        # Pretend the baseline raised one false alarm fewer than we do now:
        # any rise of a deterministic zero-tolerance metric must fail the gate.
        record["benches"]["fuzz"]["metrics"]["false_alarms"] -= 1.0
        baseline = tmp_path / "BENCH_perturbed.json"
        baseline.write_text(json.dumps(record))
        assert self._run(out, cache, "--check", str(baseline)) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.err
        assert "policy violation" in captured.err

    def test_check_without_any_baseline_is_a_pass(self, tmp_path, capsys, monkeypatch, gate_cache):
        # chdir away from the checkout so the committed benchmarks/BENCH_*
        # baseline is out of reach and auto-discovery genuinely finds nothing.
        monkeypatch.chdir(tmp_path)
        out, cache = tmp_path / "out", gate_cache
        assert self._run(out, cache, "--check") == 0
        assert "no baseline" in capsys.readouterr().out.lower()

    def test_unknown_bench_key_is_a_clean_registry_error(self, tmp_path, capsys):
        code = main(["bench", "-b", "engnes", "-o", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err.lower()
        assert "engines" in err  # closest match

    def test_list_includes_the_bench_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Bench registry" in out
        assert "trace_streaming" in out


# ---------------------------------------------------------------------------
# The file-locked writer, raced from two OS processes (satellite 1)
# ---------------------------------------------------------------------------
REPO_SRC = str(REPO_ROOT / "src")

#: Merges its own key into a shared BENCH record many times in a row; the
#: lock serializes whole read-merge-write cycles, so concurrent writers can
#: lose neither their own key nor anyone else's.
MERGE_WORKER = """
import json, sys
sys.path.insert(0, %r)
from repro.bench import merge_bench_record

path, key, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
for index in range(rounds):
    merge_bench_record(path, {key: {
        "scenario": {"round": index},
        "metrics": {"value": float(index)},
        "elapsed_seconds": 0.0,
    }}, profile="race")
print(json.dumps({"key": key, "rounds": rounds}))
""" % REPO_SRC


def _spawn_merger(path, key, rounds=40):
    return subprocess.Popen(
        [sys.executable, "-c", MERGE_WORKER, str(path), key, str(rounds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process):
    stdout, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    return json.loads(stdout)


class TestLockedWriterRace:
    def test_two_processes_merging_distinct_keys_lose_nothing(self, tmp_path):
        path = tmp_path / "BENCH_race.json"
        rounds = 40
        workers = [
            _spawn_merger(path, "engines", rounds),
            _spawn_merger(path, "server", rounds),
        ]
        for worker in workers:
            _finish(worker)
        record = load_record(path)  # also proves the file is valid JSON
        assert set(record["benches"]) == {"engines", "server"}
        for key in ("engines", "server"):
            assert record["benches"][key]["metrics"]["value"] == float(rounds - 1)

    def test_lock_file_does_not_linger_as_registry_state(self, tmp_path):
        path = tmp_path / "BENCH_one.json"
        merge_bench_record(path, {"engines": {"scenario": {}, "metrics": {},
                                              "elapsed_seconds": 0.0}})
        # The .lock sidecar may exist, but the record itself must be the
        # only BENCH_*.json — find_baseline must never pick up lock files.
        assert [p.name for p in tmp_path.glob("BENCH_*.json")] == ["BENCH_one.json"]
