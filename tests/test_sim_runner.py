"""Tests for the parallel experiment runner and its on-disk result cache."""

import dataclasses
import hashlib
import json

import pytest

from repro import obs
from repro.secure.configs import configuration_names
from repro.sim.experiment import Comparison, ExperimentConfig, run_comparison, run_simulation
from repro.sim.runner import (
    CACHE_SCHEMA_VERSION,
    GRID_DIGESTS,
    JobEvent,
    JobFailedError,
    JobFailure,
    ParallelRunner,
    ResultCache,
    SimulationJob,
    workload_cache_token,
)
from repro.workloads.registry import build_workload, workload_names

FAST = ExperimentConfig(num_accesses=300, num_cores=2)

CONFIGS = ["secddr_xts", "integrity_tree_64"]
WORKLOADS = ["gcc", "mcf"]


class TestParallelMatchesSerial:
    def test_run_comparison_parallel_identical_to_serial(self):
        serial = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, jobs=1)
        parallel = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, jobs=4)
        assert serial.raw_ipc == parallel.raw_ipc
        assert serial.normalized == parallel.normalized
        assert serial.workloads == parallel.workloads
        assert serial.configurations == parallel.configurations

    def test_parallel_results_match_run_simulation(self):
        runner = ParallelRunner(jobs=2)
        jobs = [SimulationJob(c, w, FAST) for w in WORKLOADS for c in CONFIGS]
        outcomes = runner.run(jobs)
        for job, outcome in zip(jobs, outcomes):
            direct = run_simulation(job.workload, job.configuration, FAST)
            assert outcome.total_ipc == direct.total_ipc
            assert outcome.memory_stats == direct.memory_stats

    def test_results_preserve_job_order(self):
        runner = ParallelRunner(jobs=2)
        jobs = [SimulationJob(c, w, FAST) for w in WORKLOADS for c in CONFIGS]
        outcomes = runner.run(jobs)
        assert [(r.configuration, r.workload) for r in outcomes] == [
            (j.configuration, j.workload_name) for j in jobs
        ]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        job = SimulationJob("secddr_xts", "gcc", FAST)

        first = runner.run([job])[0]
        assert cache.hits == 0
        assert cache.misses == 1
        assert len(cache) == 1

        second = runner.run([job])[0]
        assert cache.hits == 1
        assert second == first  # dataclass equality covers every field

    def test_cached_result_round_trips_all_fields(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimulationJob("integrity_tree_64", "mcf", FAST)
        fresh = ParallelRunner(cache=cache).run([job])[0]
        cached = cache.get(job.cache_key())
        assert cached is not None
        assert dataclasses.asdict(cached) == dataclasses.asdict(fresh)

    def test_experiment_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        runner.run([SimulationJob("secddr_xts", "gcc", FAST)])

        changed = dataclasses.replace(FAST, metadata_cache_bytes=64 * 1024)
        runner.run([SimulationJob("secddr_xts", "gcc", changed)])
        # The changed experiment may not reuse the first entry.
        assert cache.hits == 0
        assert cache.misses == 2
        assert len(cache) == 2

    def test_every_experiment_field_is_part_of_the_key(self):
        base = SimulationJob("secddr_xts", "gcc", FAST)
        for field in dataclasses.fields(ExperimentConfig):
            current = getattr(FAST, field.name)
            bumped = current + 1 if not isinstance(current, bool) else not current
            changed = dataclasses.replace(FAST, **{field.name: bumped})
            assert SimulationJob("secddr_xts", "gcc", changed).cache_key() != base.cache_key()

    def test_configuration_and_workload_are_part_of_the_key(self):
        base = SimulationJob("secddr_xts", "gcc", FAST)
        assert SimulationJob("secddr_ctr", "gcc", FAST).cache_key() != base.cache_key()
        assert SimulationJob("secddr_xts", "mcf", FAST).cache_key() != base.cache_key()

    def test_configuration_spec_change_invalidates(self, monkeypatch):
        # Editing a configuration's parameters (not just its name) must
        # change the cache key, or stale results would be served silently.
        from repro.secure.configs import CONFIGURATIONS

        base = SimulationJob("secddr_xts", "gcc", FAST).cache_key()
        spec = CONFIGURATIONS["secddr_xts"]
        monkeypatch.setitem(
            CONFIGURATIONS, "secddr_xts",
            dataclasses.replace(spec, description=spec.description + " (edited)"),
        )
        assert SimulationJob("secddr_xts", "gcc", FAST).cache_key() != base

    def test_workload_profile_change_invalidates(self, monkeypatch):
        # Same for workload-generator profiles: tuning one must not let the
        # cache serve traces generated by the old profile.
        from repro.workloads.spec_like import SPEC_PROFILES

        base = SimulationJob("secddr_xts", "gcc", FAST).cache_key()
        profile = SPEC_PROFILES["gcc"]
        monkeypatch.setitem(
            SPEC_PROFILES, "gcc", dataclasses.replace(profile, mpki=profile.mpki + 1.0)
        )
        assert SimulationJob("secddr_xts", "gcc", FAST).cache_key() != base

    def test_profile_change_also_rebuilds_the_memoized_trace(self, monkeypatch):
        # The in-process trace memo must be keyed by the profile too, or an
        # edited profile's new cache key would be filled with a result
        # simulated from the old trace.
        from repro.sim.experiment import _resolve_workload
        from repro.workloads.spec_like import SPEC_PROFILES

        before = _resolve_workload("gcc", FAST)
        profile = SPEC_PROFILES["gcc"]
        monkeypatch.setitem(
            SPEC_PROFILES, "gcc", dataclasses.replace(profile, mpki=profile.mpki * 4)
        )
        after = _resolve_workload("gcc", FAST)
        assert after is not before
        assert after.total_instructions != before.total_instructions

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(cache=cache).run([SimulationJob("secddr_xts", "gcc", FAST)])
        (tmp_path / "deadbeef.json.tmp.1234").write_text("{partial")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimulationJob("secddr_xts", "gcc", FAST)
        ParallelRunner(cache=cache).run([job])
        path = cache.directory / ("%s.json" % job.cache_key())
        path.write_text(path.read_text().replace(
            '"schema": %d' % CACHE_SCHEMA_VERSION, '"schema": %d' % (CACHE_SCHEMA_VERSION + 1)
        ))
        assert cache.get(job.cache_key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SimulationJob("secddr_xts", "gcc", FAST)
        ParallelRunner(cache=cache).run([job])
        (cache.directory / ("%s.json" % job.cache_key())).write_text("{not json")
        assert cache.get(job.cache_key()) is None

    @pytest.mark.parametrize("payload", [
        "[1, 2, 3]",                                          # valid JSON, not a dict
        '{"schema": %d}' % CACHE_SCHEMA_VERSION,              # no result payload
        '{"schema": %d, "result": {"bogus": 1}}' % CACHE_SCHEMA_VERSION,  # wrong fields
        '{"schema": %d, "result": [1]}' % CACHE_SCHEMA_VERSION,           # wrong type
    ])
    def test_wrong_shape_entry_is_a_miss(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        job = SimulationJob("secddr_xts", "gcc", FAST)
        (cache.directory).mkdir(exist_ok=True)
        (cache.directory / ("%s.json" % job.cache_key())).write_text(payload)
        assert cache.get(job.cache_key()) is None
        assert cache.misses == 1

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(cache=cache).run([SimulationJob("secddr_xts", "gcc", FAST)])
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_named_and_prebuilt_trace_tokens_differ(self):
        trace = build_workload("gcc", num_accesses=300, seed=1)
        assert workload_cache_token("gcc") != workload_cache_token(trace)
        # But the trace token itself is deterministic (and memoized on the
        # instance, so repeated calls don't re-hash the records).
        again = build_workload("gcc", num_accesses=300, seed=1)
        assert workload_cache_token(trace) == workload_cache_token(again)
        assert workload_cache_token(trace) is workload_cache_token(trace)


class TestGridDigest:
    def test_the_schema_version_pins_the_result_bytes(self):
        # The one-core third of CI's batch grid digest.
        experiment = ExperimentConfig(
            num_accesses=300, num_cores=1, enable_prefetcher=False, metadata_cache_bytes=32 * 1024
        )
        digest, count = hashlib.sha256(), 0
        for workload in workload_names():
            trace = build_workload(workload, num_accesses=300, seed=experiment.seed)
            for configuration in configuration_names():
                result = run_simulation(trace, configuration, experiment, engine="batch")
                digest.update(json.dumps(dataclasses.asdict(result), sort_keys=True).encode())
                count += 1
        assert count == 580
        assert digest.hexdigest()[:16] == GRID_DIGESTS[CACHE_SCHEMA_VERSION], (
            "the simulator's results moved (grid digest %s): a model change needs a new "
            "CACHE_SCHEMA_VERSION and a new GRID_DIGESTS entry for it; never edit an entry"
            % digest.hexdigest()[:16]
        )


class TestComparisonMatrix:
    def test_comparison_covers_the_cross_product(self):
        comparison = run_comparison(CONFIGS, WORKLOADS, experiment=FAST)
        assert comparison.configurations == ["tdx_baseline"] + CONFIGS
        assert list(comparison.results) == comparison.configurations
        for config in comparison.configurations:
            assert list(comparison.results[config]) == WORKLOADS
            for workload in WORKLOADS:
                result = comparison.results[config][workload]
                assert result.configuration == config
                assert result.workload == workload
                assert result.total_ipc > 0

    def test_jobs_are_workload_major(self):
        comparison = Comparison(CONFIGS, WORKLOADS, experiment=FAST)
        assert [(job.workload_name, job.configuration_name) for job in comparison.jobs()] == [
            (workload, config)
            for workload in WORKLOADS
            for config in ["tdx_baseline"] + CONFIGS
        ]


class TestRunComparisonCaching:
    def test_second_comparison_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, cache=cache)
        simulated = cache.misses
        assert simulated == len(WORKLOADS) * (len(CONFIGS) + 1)  # + baseline

        second = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, cache=cache)
        assert cache.misses == simulated  # no new simulations
        assert cache.hits == simulated
        assert second.raw_ipc == first.raw_ipc

    def test_cache_dir_argument_builds_a_cache(self, tmp_path):
        cache_dir = tmp_path / "simcache"
        run_comparison(["secddr_xts"], ["gcc"], experiment=FAST, cache_dir=cache_dir)
        assert len(list(cache_dir.glob("*.json"))) == 2

    def test_cached_comparison_identical_under_parallelism(self, tmp_path):
        cache = ResultCache(tmp_path)
        warm = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, jobs=2, cache=cache)
        cold = run_comparison(CONFIGS, WORKLOADS, experiment=FAST, jobs=2)
        assert warm.raw_ipc == cold.raw_ipc


class TestProgressHooks:
    def test_events_cover_every_job(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        run_comparison(["secddr_xts"], ["gcc"], experiment=FAST, cache=cache,
                       progress=events.append)
        assert [e.status for e in events] == ["start", "start", "done", "done"]
        assert all(isinstance(e, JobEvent) for e in events)
        assert {(e.configuration, e.workload) for e in events} == {
            ("tdx_baseline", "gcc"), ("secddr_xts", "gcc"),
        }
        done = [e for e in events if e.status == "done"]
        assert all(e.elapsed_seconds > 0 for e in done)

        events.clear()
        run_comparison(["secddr_xts"], ["gcc"], experiment=FAST, cache=cache,
                       progress=events.append)
        assert [e.status for e in events] == ["cached", "cached"]


class TestSweepCaching:
    def test_arity_sweep_reuses_baseline_across_arities(self, tmp_path):
        from repro.sim.sweep import arity_sweep

        cache = ResultCache(tmp_path)
        arity_sweep(workloads=["mcf"], arities=(8, 64), experiment=FAST, cache=cache)
        # 2 arities x (3 group configs + baseline) = 8 jobs, but the
        # arities run in one pass that keys the baseline once: 7 misses,
        # and nothing is read back.
        assert cache.misses == 7
        assert cache.hits == 0


def _raising_builder(num_accesses=0, seed=0):
    """Module-level so worker processes can pickle jobs that reference it."""
    raise ValueError("synthetic workload failure (accesses=%d)" % num_accesses)


@pytest.fixture
def failing_workload():
    from repro.workloads.registry import REGISTRY

    REGISTRY.register("boom", _raising_builder, cache_token="boom-v1", mpki=50.0)
    try:
        yield "boom"
    finally:
        REGISTRY.unregister("boom")


class TestFailureCapture:
    def test_raise_mode_propagates_the_exception(self, failing_workload):
        with pytest.raises(ValueError, match="synthetic workload failure"):
            run_comparison(["secddr_xts"], [failing_workload], experiment=FAST)

    def test_capture_mode_finishes_the_matrix_and_raises_structured(
        self, failing_workload, tmp_path
    ):
        cache = ResultCache(tmp_path)
        events = []
        with pytest.raises(JobFailedError) as excinfo:
            run_comparison(
                ["secddr_xts"], [failing_workload, "gcc"], experiment=FAST,
                cache=cache, progress=events.append, failures="capture",
            )
        failures = excinfo.value.failures
        # Both the baseline and the evaluated configuration hit the bad
        # workload; the healthy workload still completes under both.
        assert [f.workload for f in failures] == [failing_workload, failing_workload]
        assert {f.configuration for f in failures} == {"tdx_baseline", "secddr_xts"}
        assert failures[0].error_type == "ValueError"
        assert "synthetic workload failure" in failures[0].error_message
        assert "ValueError" in failures[0].traceback
        assert failures[0].payload() == {
            "configuration": failures[0].configuration,
            "workload": failing_workload,
            "error_type": "ValueError",
            "error_message": failures[0].error_message,
            "traceback": failures[0].traceback,
        }
        # The healthy pairs finished and were cached; the failure was not.
        statuses = {(e.configuration, e.workload): e.status for e in events
                    if e.status != "start"}
        assert statuses[("secddr_xts", "gcc")] == "done"
        assert statuses[("tdx_baseline", "gcc")] == "done"
        assert statuses[("secddr_xts", failing_workload)] == "failed"
        assert statuses[("tdx_baseline", failing_workload)] == "failed"
        done = [s for s in statuses.values() if s == "done"]
        assert len(cache) == len(done)

    def test_capture_mode_carries_picklable_exceptions_in_parallel(
        self, failing_workload
    ):
        with pytest.raises(JobFailedError) as excinfo:
            run_comparison(
                ["secddr_xts"], [failing_workload, "gcc"], experiment=FAST,
                jobs=2, failures="capture",
            )
        failure = excinfo.value.failures[0]
        assert isinstance(failure.exception, ValueError)

    def test_failed_pairs_rerun_after_the_fix(self, tmp_path):
        from repro.workloads.registry import REGISTRY

        cache = ResultCache(tmp_path)
        REGISTRY.register("flaky", _raising_builder, cache_token="flaky-v1", mpki=50.0)
        try:
            with pytest.raises(JobFailedError):
                run_comparison(["secddr_xts"], ["flaky", "gcc"], experiment=FAST,
                               cache=cache, failures="capture")
            healthy = len(cache)
            # "Fix" the workload: same name, new builder + token.
            REGISTRY.unregister("flaky")
            REGISTRY.register(
                "flaky",
                lambda num_accesses=0, seed=0: build_workload(
                    "gcc", num_accesses=num_accesses, seed=seed
                ),
                cache_token="flaky-v2", mpki=50.0,
            )
            events = []
            run_comparison(["secddr_xts"], ["flaky", "gcc"], experiment=FAST,
                           cache=cache, progress=events.append, failures="capture")
            cached = [e for e in events if e.status == "cached"]
            # Only the previously-failing pairs simulate; the healthy ones hit.
            assert len(cached) == healthy
        finally:
            REGISTRY.unregister("flaky")

    def test_failed_events_carry_elapsed_like_done_events(self, failing_workload):
        events = []
        with pytest.raises(JobFailedError):
            run_comparison(
                ["secddr_xts"], [failing_workload, "gcc"], experiment=FAST,
                progress=events.append, failures="capture",
            )
        timed = [e for e in events if e.status in ("done", "failed")]
        assert {e.status for e in timed} == {"done", "failed"}
        # Failure latency is as real as success latency: both event kinds
        # report the measured wall time of the attempt.
        assert all(e.elapsed_seconds > 0 for e in timed)

    def test_invalid_failures_mode_is_rejected(self):
        with pytest.raises(ValueError, match="failures"):
            ParallelRunner(failures="ignore")


# ---------------------------------------------------------------------------
# Replay sharing: one engine run per distinct replay
# ---------------------------------------------------------------------------
#: The grid's three experiments (the engine-parity digest's), at 300 accesses.
GRID_EXPERIMENTS = [
    ExperimentConfig(num_accesses=300, num_cores=cores, enable_prefetcher=prefetch,
                     metadata_cache_bytes=kib * 1024)
    for cores, prefetch, kib in ((1, False, 32), (2, True, 128), (3, True, 512))
]
SHARED = ["tdx_baseline", "encrypt_only_xts", "secddr_xts"]


def _replay_groups(jobs):
    """The jobs grouped by replay key, groups of two or more only."""
    groups = {}
    for job in jobs:
        key = job.replay_key()
        assert key is not None, job
        groups.setdefault(key, []).append(job)
    return [group for group in groups.values() if len(group) > 1]


def _cache_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


class TestReplayKeys:
    def test_equal_keys_give_results_equal_but_for_the_name(self):
        from repro.secure.configs import configuration_names

        jobs = [
            SimulationJob(configuration, workload, experiment)
            for experiment in GRID_EXPERIMENTS
            for workload in ("gcc", "mcf", "lbm", "pr")
            for configuration in configuration_names()
        ]
        groups = _replay_groups(jobs)
        assert {frozenset(job.configuration_name for job in group) for group in groups} == {
            frozenset({"tdx_baseline", "encrypt_only_xts"}),
            frozenset({"tdx_baseline_ddr5", "encrypt_only_xts_ddr5"}),
        }
        assert len(groups) == 2 * 4 * len(GRID_EXPERIMENTS)
        for group in groups:
            results = [
                dataclasses.replace(
                    run_simulation(job.workload, job.configuration, job.experiment, engine=engine),
                    configuration="",
                )
                for job in group
                for engine in ("batch", "reference")
            ]
            assert all(result == results[0] for result in results[1:]), group

    def test_the_reproduce_default_shares_exactly_the_twins(self):
        from collections import Counter

        from repro.figures.registry import resolve_figures
        from repro.figures.spec import FigureContext

        context = FigureContext(experiment=ExperimentConfig(num_accesses=1000, num_cores=2))
        unique = {}
        for spec in resolve_figures():
            for comparison in (spec.comparisons(context) if spec.simulated else {}).values():
                for job in comparison.jobs():
                    unique.setdefault(job.cache_key(), job)
        assert len(unique) == 407
        groups = _replay_groups(unique.values())
        assert sum(len(group) - 1 for group in groups) == 46
        assert all(len({job.workload_name for job in group}) == 1 for group in groups)
        shapes = Counter(
            frozenset(
                (job.configuration_name, job.experiment.metadata_cache_bytes // 1024)
                for job in group
            )
            for group in groups
        )
        xts = {("tdx_baseline", 128), ("encrypt_only_xts", 128)}
        assert shapes == {
            frozenset(xts): 26,
            frozenset({("tdx_baseline_ddr5", 128), ("encrypt_only_xts_ddr5", 128)}): 5,
            # The metadata-cache ablation's workloads: 32 and 512 KiB too.
            frozenset(xts | {("tdx_baseline", 32), ("tdx_baseline", 512)}): 3,
            frozenset({("secddr_xts", 32), ("secddr_xts", 128), ("secddr_xts", 512)}): 3,
        }

    def test_every_replay_input_changes_the_key(self, clean_registries):
        from repro.controller.memory_controller import MemoryController
        from repro.dram.timing import DDR4_2400
        from repro.secure.base import SecureMemorySystem
        from repro.secure.configs import REGISTRY, metadata_path, resolve_configuration

        def memory_side(latency):
            def factory(spec, controller, metadata_cache, layout, crypto_latency, protected_bytes):
                config = dataclasses.replace(controller.config, memory_side_read_latency=latency)
                path = metadata_path(resolve_configuration("encrypt_only_ctr"))
                return SecureMemorySystem(MemoryController(config), metadata_cache, layout, path)
            name = "memory_side_%d" % latency
            REGISTRY.register_mechanism(name, factory, cache_token=name + "/v1")
            return resolve_configuration("encrypt_only_ctr").derive(name=name, mechanism=name)

        def key(configuration, experiment=FAST):
            return SimulationJob(configuration, "gcc", experiment).replay_key()

        counter = resolve_configuration("encrypt_only_ctr")
        assert key(counter.derive(name="renamed")) == key(counter)
        assert key(memory_side(0)) == key(counter)
        for variant in (
            counter.derive(write_burst_cycles=7),
            counter.derive(timing=DDR4_2400),
            memory_side(3),
        ):
            assert key(variant) != key(counter), variant.name
        smaller = dataclasses.replace(FAST, metadata_cache_bytes=64 * 1024)
        assert key(counter, smaller) != key(counter)
        # A system without a metadata path never reads the cache size.
        assert key("tdx_baseline", smaller) == key("tdx_baseline")
        assert SimulationJob("secddr_xts", "mcf", FAST).replay_key() != key("secddr_xts")

    def test_the_reference_and_a_timeline_never_share(self):
        assert SimulationJob("tdx_baseline", "gcc", FAST, engine="reference").replay_key() is None
        job = SimulationJob("tdx_baseline", "gcc", FAST)
        assert job.replay_key() is not None
        with obs.observing(obs.Observation(timeline=obs.TimelineRecorder(window=32))):
            assert job.replay_key() is None


class TestRunnerSharesReplays:
    def _jobs(self, engine=None, workloads=("gcc", "mcf")):
        return [
            SimulationJob(configuration, workload, FAST, engine=engine)
            for workload in workloads
            for configuration in SHARED
        ]

    def test_each_replay_runs_once_and_each_job_ends_once(self, tmp_path):
        registry = obs.MetricsRegistry()
        events = []
        jobs = self._jobs()
        runner = ParallelRunner(cache=ResultCache(tmp_path), progress=events.append)
        with obs.observing(obs.Observation(registry=registry)):
            results = runner.run(jobs)
        summary = registry.summary()
        # tdx_baseline and encrypt_only_xts are one replay per workload.
        assert summary["engine_jobs_total{engine=batch}"] == 4
        assert summary["sim_jobs_total{state=done}"] == 6
        terminal = [(e.configuration, e.workload) for e in events if e.status != "start"]
        assert sorted(terminal) == sorted((j.configuration_name, j.workload_name) for j in jobs)
        assert {e.status for e in events} == {"start", "done"}
        for job, result in zip(jobs, results):
            assert result == run_simulation(job.workload, job.configuration, FAST)
        assert results[0].memory_stats is not results[1].memory_stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_cache_holds_what_each_job_alone_would_write(self, tmp_path, workers):
        jobs = self._jobs()
        ParallelRunner(jobs=workers, cache=ResultCache(tmp_path / "shared")).run(jobs)
        alone = ResultCache(tmp_path / "alone")
        for job in jobs:
            alone.put(job.cache_key(), run_simulation(job.workload, job.configuration, FAST))
        assert _cache_files(tmp_path / "shared") == _cache_files(tmp_path / "alone")

    def test_a_failed_replay_fails_its_copies(self, tmp_path, failing_workload):
        cache = ResultCache(tmp_path)
        events = []
        jobs = self._jobs(workloads=(failing_workload, "gcc"))
        runner = ParallelRunner(cache=cache, progress=events.append, failures="capture")
        results = runner.run(jobs)
        for job, result in zip(jobs, results):
            failed = job.workload_name == failing_workload
            assert isinstance(result, JobFailure) == failed
            assert result.configuration == job.configuration_name
        assert sorted(e.configuration for e in events if e.status == "failed") == sorted(SHARED)
        assert len(cache) == len(SHARED)  # only gcc's jobs were cached

    def test_the_reference_runs_every_job(self):
        registry = obs.MetricsRegistry()
        with obs.observing(obs.Observation(registry=registry)):
            ParallelRunner().run(self._jobs(engine="reference"))
        assert registry.summary()["engine_jobs_total{engine=reference}"] == 6
