"""Tests for the composable experiment API: derived configurations,
pluggable mechanisms/workloads, and the ``repro.api.Session`` facade."""

import dataclasses

import pytest

from repro.api import Session
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.errors import (
    UnknownConfigurationError,
    UnknownMechanismError,
    UnknownWorkloadError,
)
from repro.secure.baseline import EncryptOnlySystem
from repro.secure.configs import (
    CONFIGURATIONS,
    REGISTRY,
    SystemConfiguration,
    build_configuration,
)
from repro.sim.experiment import ExperimentConfig, run_comparison, run_simulation
from repro.sim.runner import ParallelRunner, ResultCache, SimulationJob
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY
from repro.workloads.registry import build_workload

FAST = ExperimentConfig(num_accesses=300, num_cores=2)


def _stream_builder(num_accesses=20000, seed=1):
    """A deterministic custom workload: a striding read/write mix."""
    records = []
    address = 64 * seed
    for index in range(num_accesses):
        records.append(TraceRecord(50, index % 4 == 0, address))
        address += 128
    return MemoryTrace("custom_stream", records)


class TestDerive:
    def test_derive_overrides_fields(self):
        base = CONFIGURATIONS["integrity_tree_64"]
        derived = base.derive(tree_arity=32, counters_per_line=32)
        assert derived.tree_arity == 32
        assert derived.counters_per_line == 32
        assert derived.mechanism == base.mechanism
        assert base.tree_arity == 64  # the base is untouched

    def test_derive_auto_name_mentions_overrides(self):
        derived = CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=8)
        assert derived.name == "secddr_ctr+counters_per_line=8"

    def test_derive_explicit_name_wins(self):
        derived = CONFIGURATIONS["secddr_ctr"].derive(name="mine", counters_per_line=8)
        assert derived.name == "mine"

    def test_renaming_cannot_flip_the_built_system_class(self):
        # Mechanism dispatch must key off the spec, never the name: renaming
        # the TDX baseline keeps TdxBaselineSystem, and naming an
        # encrypt-only spec "tdx_something" must not promote it.
        from repro.secure.baseline import TdxBaselineSystem

        renamed_tdx = CONFIGURATIONS["tdx_baseline"].derive(name="baseline_v2")
        assert isinstance(build_configuration(renamed_tdx), TdxBaselineSystem)
        impostor = CONFIGURATIONS["encrypt_only_xts"].derive(name="tdx_variant")
        built = build_configuration(impostor)
        assert not isinstance(built, TdxBaselineSystem)
        assert isinstance(built, EncryptOnlySystem)

    def test_derive_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown SystemConfiguration field"):
            CONFIGURATIONS["secddr_ctr"].derive(arity=32)

    def test_derived_config_builds_without_registration(self):
        derived = CONFIGURATIONS["encrypt_only_ctr"].derive(counters_per_line=16)
        system = build_configuration(derived)
        assert isinstance(system, EncryptOnlySystem)

    def test_unknown_configuration_suggests_closest(self):
        with pytest.raises(UnknownConfigurationError) as excinfo:
            build_configuration("secddr_xtz")
        assert excinfo.value.suggestion == "secddr_xts"
        assert "secddr_xts" in str(excinfo.value)

    def test_pickled_spec_builds_the_same_system(self):
        # Spec values travel pickled inside SimulationJobs; dispatch must
        # not depend on object identity (e.g. `spec.timing is DDR4_2400`).
        import pickle

        spec = CONFIGURATIONS["invisimem_realistic_xts"]
        original = build_configuration(spec)
        roundtripped = build_configuration(pickle.loads(pickle.dumps(spec)))
        assert type(roundtripped) is type(original)
        assert roundtripped.realistic == original.realistic


class TestDerivedCacheKeys:
    def test_each_override_changes_the_cache_key(self):
        base = CONFIGURATIONS["secddr_ctr"]
        base_key = SimulationJob(base, "gcc", FAST).cache_key()
        seen = {base_key}
        for overrides in (
            {"counters_per_line": 32},
            {"counters_per_line": 16},
            {"tree_arity": 32},
            {"write_burst_cycles": 7},
            {"replay_protection": False},
        ):
            key = SimulationJob(base.derive(**overrides), "gcc", FAST).cache_key()
            assert key not in seen, "override %r did not change the key" % overrides
            seen.add(key)

    def test_spec_value_and_name_share_cache_entries(self):
        # Passing the registered spec object is equivalent to its name.
        by_name = SimulationJob("secddr_ctr", "gcc", FAST).cache_key()
        by_value = SimulationJob(CONFIGURATIONS["secddr_ctr"], "gcc", FAST).cache_key()
        assert by_name == by_value

    def test_derived_field_change_invalidates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(cache=cache)
        derived = CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=32)
        runner.run([SimulationJob(derived, "gcc", FAST)])
        assert (cache.hits, cache.misses) == (0, 1)

        # Same derivation again: served from disk.
        runner.run([SimulationJob(derived, "gcc", FAST)])
        assert (cache.hits, cache.misses) == (1, 1)

        # Changing a derived field must miss (fresh simulation).
        changed = CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=16)
        runner.run([SimulationJob(changed, "gcc", FAST)])
        assert (cache.hits, cache.misses) == (1, 2)


class TestDerivedParallelEqualsSerial:
    def test_unnamed_derived_config_parallel_identical_to_serial(self):
        derived = CONFIGURATIONS["secddr_ctr"].derive(counters_per_line=32)
        serial = run_comparison([derived], ["gcc"], experiment=FAST, jobs=1)
        parallel = run_comparison([derived], ["gcc"], experiment=FAST, jobs=2)
        assert serial.raw_ipc == parallel.raw_ipc
        assert serial.normalized == parallel.normalized
        assert derived.name in serial.normalized

    def test_conflicting_duplicate_names_rejected(self):
        derived = CONFIGURATIONS["secddr_ctr"].derive(name="dup")
        other = CONFIGURATIONS["secddr_xts"].derive(name="dup")
        with pytest.raises(ValueError, match="share the name"):
            run_comparison([derived, other], ["gcc"], experiment=FAST)

    def test_exact_duplicates_collapse_and_run_once(self):
        events = []
        result = run_comparison(
            ["secddr_xts", "secddr_xts", CONFIGURATIONS["secddr_xts"]], ["gcc"],
            experiment=FAST, progress=events.append,
        )
        assert result.configurations == ["tdx_baseline", "secddr_xts"]
        assert list(result.results) == ["tdx_baseline", "secddr_xts"]
        assert [e.status for e in events].count("done") == 2
        assert result.results["secddr_xts"]["gcc"].total_ipc > 0

    def test_derived_config_shadowing_the_baseline_name_rejected(self):
        impostor = CONFIGURATIONS["secddr_xts"].derive(name="tdx_baseline")
        with pytest.raises(ValueError, match="differs from the 'tdx_baseline' baseline"):
            run_comparison([impostor], ["gcc"], experiment=FAST)

    def test_spec_equal_to_the_baseline_is_accepted_by_name_match(self):
        result = run_comparison(
            [CONFIGURATIONS["tdx_baseline"], "secddr_xts"], ["gcc"], experiment=FAST
        )
        assert result.configurations == ["tdx_baseline", "secddr_xts"]


class TestConfigurationRegistry:
    def test_register_and_unregister(self, clean_registries):
        spec = CONFIGURATIONS["secddr_ctr"].derive(name="my_secddr", counters_per_line=16)
        REGISTRY.register(spec)
        assert CONFIGURATIONS["my_secddr"] is spec
        assert run_simulation("gcc", "my_secddr", FAST).configuration == "my_secddr"
        REGISTRY.unregister("my_secddr")
        assert "my_secddr" not in CONFIGURATIONS

    def test_register_collision_rejected(self, clean_registries):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(CONFIGURATIONS["secddr_ctr"])

    def test_custom_mechanism_runs_through_simulation(self, clean_registries):
        built_specs = []

        def factory(spec, controller, metadata_cache, layout, crypto_latency, protected_bytes):
            built_specs.append(spec.name)
            return EncryptOnlySystem(
                controller, metadata_cache, layout, crypto_latency,
                encryption_mode=spec.encryption,
                counters_per_line=spec.counters_per_line,
            )

        REGISTRY.register_mechanism("null_protection", factory,
                                    cache_token="null_protection/v1")
        spec = CONFIGURATIONS["encrypt_only_ctr"].derive(
            name="null_prot", mechanism="null_protection"
        )
        result = run_simulation("gcc", spec, FAST)
        assert result.total_ipc > 0
        assert built_specs == ["null_prot"]
        # A stock system class runs on the batch default with exact parity.
        reference = run_simulation("gcc", spec, FAST, engine="reference")
        assert (reference.total_ipc, reference.memory_stats) == (
            result.total_ipc, result.memory_stats
        )

    def test_mechanism_cache_token_is_part_of_the_cache_key(self, clean_registries):
        def factory(spec, controller, metadata_cache, layout, crypto_latency, protected_bytes):
            return EncryptOnlySystem(
                controller, metadata_cache, layout, crypto_latency,
                encryption_mode=spec.encryption,
                counters_per_line=spec.counters_per_line,
            )

        REGISTRY.register_mechanism("custom_mech", factory, cache_token="custom/v1")
        spec = CONFIGURATIONS["encrypt_only_ctr"].derive(
            name="custom_cfg", mechanism="custom_mech"
        )
        key_v1 = SimulationJob(spec, "gcc", FAST).cache_key()
        # Re-registering an edited factory under a new token must change the
        # key, or the cache would serve the old factory's results.
        REGISTRY.register_mechanism("custom_mech", factory, cache_token="custom/v2",
                                    replace_existing=True)
        assert SimulationJob(spec, "gcc", FAST).cache_key() != key_v1
        # Built-in mechanisms have no token (schema-versioned instead).
        assert REGISTRY.mechanism_cache_token("secddr") is None

    def test_mechanism_registration_requires_cache_token(self, clean_registries):
        with pytest.raises(ValueError, match="cache_token"):
            REGISTRY.register_mechanism("tokenless", lambda *a: None, cache_token="")

    def test_unknown_mechanism_rejected(self):
        spec = CONFIGURATIONS["secddr_ctr"].derive(mechanism="warp_drive")
        with pytest.raises(UnknownMechanismError, match="warp_drive"):
            build_configuration(spec)


class TestWorkloadRegistry:
    def test_register_builder_and_build(self, clean_registries):
        WORKLOAD_REGISTRY.register(
            "custom_stream", _stream_builder, cache_token="custom_stream/v1", mpki=25.0
        )
        trace = build_workload("custom_stream", num_accesses=100, seed=3)
        assert len(trace) == 100
        assert "custom_stream" in WORKLOAD_REGISTRY.names(memory_intensive_only=True)
        assert WORKLOAD_REGISTRY.cache_token_for("custom_stream") == "custom_stream/v1"

    def test_register_builder_requires_cache_token(self, clean_registries):
        with pytest.raises(ValueError, match="cache_token"):
            WORKLOAD_REGISTRY.register("custom_stream", _stream_builder, cache_token="")

    def test_register_trace_by_content(self, clean_registries):
        trace = _stream_builder(num_accesses=50)
        WORKLOAD_REGISTRY.register_trace(trace, name="stream50")
        built = build_workload("stream50")
        assert built.name == "stream50"
        assert len(built) == 50
        token = WORKLOAD_REGISTRY.cache_token_for("stream50")
        assert token.startswith("trace:")

    def test_unknown_workload_suggests_closest(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            build_workload("mfc")
        assert excinfo.value.suggestion == "mcf"


class TestRegistryErrorsAcrossProcesses:
    def test_lookup_errors_pickle_round_trip(self):
        import pickle

        for error_cls in (UnknownConfigurationError, UnknownWorkloadError,
                          UnknownMechanismError):
            original = error_cls("mfc", ["mcf", "gcc"])
            restored = pickle.loads(pickle.dumps(original))
            assert type(restored) is error_cls
            assert restored.name == "mfc"
            assert restored.suggestion == "mcf"
            assert str(restored) == str(original)

    def test_unknown_workload_in_parallel_worker_propagates(self):
        # A worker-raised lookup error must reach the parent as the same
        # exception (unpicklable exceptions kill the pool's result-handler
        # thread and hang the run forever).  Two jobs force the pool path.
        with pytest.raises(UnknownWorkloadError, match="mfc"):
            run_comparison(["secddr_xts"], ["mfc", "gcc"], experiment=FAST, jobs=2)


class TestSession:
    def test_fluent_selection_and_compare(self, tmp_path):
        session = Session(cache_dir=tmp_path, experiment=FAST)
        result = (
            session.configs("secddr_xts").workloads("gcc").compare()
        )
        assert result.configurations == ["tdx_baseline", "secddr_xts"]
        assert result.workloads == ["gcc"]
        assert session.cache_stats == (0, 2)

    def test_compare_without_selection_raises(self):
        with pytest.raises(ValueError, match="no configurations"):
            Session(experiment=FAST).compare()
        with pytest.raises(ValueError, match="no workloads"):
            Session(experiment=FAST).configs("secddr_xts").compare()

    def test_configs_validates_names_eagerly(self):
        with pytest.raises(UnknownConfigurationError):
            Session().configs("secddr_xtz")
        with pytest.raises(UnknownWorkloadError):
            Session().workloads("mfc")

    def test_with_experiment_overrides_fields(self):
        session = Session(experiment=FAST).with_experiment(num_accesses=123)
        assert session.experiment.num_accesses == 123
        assert session.experiment.num_cores == FAST.num_cores

    def test_run_uses_the_session_cache(self, tmp_path):
        session = Session(cache_dir=tmp_path, experiment=FAST)
        first = session.run("gcc", "secddr_xts")
        assert session.cache_stats == (0, 1)
        second = session.run("gcc", "secddr_xts")
        assert session.cache_stats == (1, 1)
        assert dataclasses.asdict(second) == dataclasses.asdict(first)

    def test_acceptance_derived_and_custom_parallel_cached(
        self, tmp_path, clean_registries
    ):
        # The PR's acceptance scenario: an unnamed derived configuration and
        # a registered custom workload, run through Session.compare() with
        # jobs=2, identical to a serial run, and fully cached on a re-run.
        def make_session(jobs, cache_dir=None):
            session = Session(jobs=jobs, cache_dir=cache_dir, experiment=FAST)
            derived = session.derive("integrity_tree_64", tree_arity=32,
                                     counters_per_line=32)
            return session.configs("secddr_ctr", derived).workloads("custom_stream")

        WORKLOAD_REGISTRY.register(
            "custom_stream", _stream_builder, cache_token="custom_stream/v1"
        )

        serial = make_session(jobs=1).compare()
        cache_dir = tmp_path / "simcache"
        parallel = make_session(jobs=2, cache_dir=cache_dir).compare()
        assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)
        assert "integrity_tree_64+counters_per_line=32,tree_arity=32" in serial.normalized

        warm = make_session(jobs=2, cache_dir=cache_dir)
        rerun = warm.compare()
        hits, misses = warm.cache_stats
        assert misses == 0
        assert hits == 3  # baseline + secddr + derived tree, one workload
        assert dataclasses.asdict(rerun) == dataclasses.asdict(serial)

    def test_session_arity_sweep_with_derived_group(self, tmp_path):
        session = Session(cache_dir=tmp_path, experiment=FAST).workloads("gcc")
        summary = session.arity_sweep(arities=(16,))
        assert set(summary) == {16}
        assert set(summary[16]) == {"tree", "secddr", "encrypt_only"}
        for value in summary[16].values():
            assert value > 0
