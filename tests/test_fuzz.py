"""Tests for the property-based fuzzing subsystem (`repro.fuzz`).

These pin the acceptance properties of the fuzz engine: campaigns are
deterministic per seed (serial == parallel == cache-warm), SecDDR upholds
every claimed security property over randomized adversaries, the TDX-like
baseline demonstrably loses at least one replay-style class, and shrinking
reduces failing scenarios to minimal standalone reproducers.
"""

import json
import random
from dataclasses import asdict

import pytest

from repro.attacks import AttackCampaign, run_standard_campaign
from repro.core import FunctionalMemorySystem
from repro.core.config import SecDDRConfig
from repro.fuzz import (
    TAMPER_ACTIONS,
    FuzzCampaign,
    FuzzOutcome,
    FuzzScenario,
    ScenarioGenerator,
    expected_detected,
    read_corpus,
    run_fuzz_campaign,
    run_scenario,
    shrink_scenario,
    write_fuzz_artifacts,
)
from repro.fuzz.actions import DropWriteAction, ReplayAction, action_from_dict
from repro.fuzz.scenario import ATTACK_REGION_BASE, VictimOp
from repro.secure.configs import CONFIGURATIONS

SEED = 7
BUDGET = 14
#: The functional config of each default campaign configuration, in order.
DEFAULT_FUNCTIONAL = [config for _, config in FuzzCampaign().configurations]


@pytest.fixture(scope="module")
def campaign_report():
    """One serial campaign shared by the property tests (shrink off: the
    properties below assert there is nothing to shrink)."""
    return run_fuzz_campaign(seed=SEED, budget=BUDGET, shrink_violations=False)


class TestScenarioGenerator:
    def test_same_seed_same_scenarios(self):
        a = ScenarioGenerator(SEED).generate(3)
        b = ScenarioGenerator(SEED).generate(3)
        assert a == b

    def test_different_seeds_differ(self):
        a = ScenarioGenerator(1).generate_many(6)
        b = ScenarioGenerator(2).generate_many(6)
        assert a != b

    def test_background_reads_always_preceded_by_writes(self):
        for scenario in ScenarioGenerator(SEED).generate_many(10):
            written = set()
            for op in scenario.ops:
                if op.op == "write":
                    written.add(op.address)
                else:
                    assert op.address in written, scenario.scenario_id

    def test_action_addresses_disjoint_from_background(self):
        for scenario in ScenarioGenerator(SEED).generate_many(10):
            background = {
                op.address for op in scenario.ops if op.source == -1
            }
            for action in scenario.actions:
                for address in action.addresses():
                    assert address >= ATTACK_REGION_BASE
                    assert address not in background

    def test_scenario_roundtrips_through_dict(self):
        scenario = ScenarioGenerator(SEED).generate(5)
        assert FuzzScenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    def test_action_roundtrips_through_dict(self):
        for kind, cls in TAMPER_ACTIONS.items():
            action = cls.generate(random.Random(1), 0x1000, 0x1040)
            assert action_from_dict(action.to_dict()) == action

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown tamper action"):
            action_from_dict({"kind": "nope", "address": 0})

    def test_well_formed_detects_orphaned_reads(self):
        good = FuzzScenario(
            scenario_id="g", seed=1, workload="gcc",
            ops=(VictimOp("write", 0x40, 1), VictimOp("read", 0x40)), actions=(),
        )
        orphan = FuzzScenario(
            scenario_id="o", seed=1, workload="gcc",
            ops=(VictimOp("read", 0x40),), actions=(),
        )
        assert good.well_formed()
        assert not orphan.well_formed()
        assert all(s.well_formed() for s in ScenarioGenerator(SEED).generate_many(8))


def _payloads(report):
    """Every result of a campaign, as plain dicts, per configuration."""
    return {
        name: [asdict(result) for result in report.results[name]]
        for name in report.configurations
    }


class TestOracles:
    def test_benign_scenario_clean_everywhere(self, provisioned):
        scenario = FuzzScenario(
            scenario_id="benign", seed=11, workload="gcc",
            ops=(
                VictimOp("write", 0x4000, 1), VictimOp("read", 0x4000),
                VictimOp("write", 0x4000, 2), VictimOp("read", 0x4000),
            ),
            actions=(),
        )
        for config in (SecDDRConfig(), SecDDRConfig.baseline_no_rap()):
            result = run_scenario(scenario, provisioned(config))
            assert result.outcome == FuzzOutcome.BENIGN_OK
            assert not result.violation

    def test_replay_missed_on_baseline_detected_on_secddr(self, provisioned):
        action = ReplayAction(address=ATTACK_REGION_BASE)
        values = iter(range(1, 10))
        scenario = FuzzScenario(
            scenario_id="replay", seed=11, workload="gcc",
            ops=tuple(
                VictimOp(op.op, op.address, op.value_id, 0)
                for op in action.script(lambda: next(values))
            ),
            actions=(action,),
        )
        baseline = run_scenario(scenario, provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert baseline.outcome == FuzzOutcome.MISSED
        assert baseline.missed_kind == "replay"
        assert not baseline.violation  # the baseline never claimed replay protection
        secddr = run_scenario(scenario, provisioned(SecDDRConfig()), "secddr")
        assert secddr.outcome == FuzzOutcome.DETECTED
        assert secddr.detection_point == "mac_verification"

    def test_expected_detected_encodes_the_papers_claims(self):
        secddr = SecDDRConfig()
        baseline = SecDDRConfig.baseline_no_rap()
        no_ewcrc = SecDDRConfig(ewcrc_enabled=False)
        assert all(expected_detected(secddr, kind) for kind in TAMPER_ACTIONS)
        assert expected_detected(baseline, "bit_flip")
        assert not expected_detected(baseline, "replay")
        assert expected_detected(no_ewcrc, "replay")
        assert not expected_detected(no_ewcrc, "redirect_write")


class TestCampaignProperties:
    def test_deterministic_matrix(self, campaign_report):
        again = run_fuzz_campaign(seed=SEED, budget=BUDGET, shrink_violations=False)
        assert again.format_matrix() == campaign_report.format_matrix()

    def test_secddr_upholds_every_property(self, campaign_report):
        results = campaign_report.results["secddr"]
        assert not any(r.violation for r in results)
        assert campaign_report.missed_kinds("secddr") == []
        # And it detects, not just neutralizes: adversarial scenarios exist.
        assert any(r.outcome == FuzzOutcome.DETECTED for r in results)

    def test_baseline_misses_a_replay_style_class(self, campaign_report):
        missed = campaign_report.missed_kinds("baseline_no_rap")
        assert missed, "the TDX-like baseline should lose to replay-style attacks"
        assert all(not expected_detected(SecDDRConfig.baseline_no_rap(), kind)
                   for kind in missed)

    def test_no_violations_anywhere_on_standard_profiles(self, campaign_report):
        assert campaign_report.violations() == []

    def test_parallel_campaign_equals_serial(self, campaign_report, provisionings):
        parallel = run_fuzz_campaign(
            seed=SEED, budget=BUDGET, jobs=4, shrink_violations=False
        )
        assert parallel.format_matrix() == campaign_report.format_matrix()
        assert _payloads(parallel) == _payloads(campaign_report)
        # One attestation per configuration, in this process: the pool
        # workers judged every scenario on the system shipped with the job.
        assert provisionings == DEFAULT_FUNCTIONAL

    def test_fresh_system_per_scenario_oracle_agrees(self, campaign_report):
        # The behaviour before campaigns copied one provisioned system:
        # every scenario attested a system of its own.
        oracle = {
            name: [
                asdict(run_scenario(
                    scenario, FunctionalMemorySystem(config=config, initial_counter=0), name
                ))
                for scenario in campaign_report.scenarios
            ]
            for name, config in FuzzCampaign().configurations
        }
        assert oracle == _payloads(campaign_report)

    def test_one_provisioning_per_configuration_shrinking_included(
        self, provisionings, monkeypatch
    ):
        # Claim every layer everywhere, so the baseline's misses become
        # violations and the campaign shrinks them.
        monkeypatch.setattr("repro.fuzz.oracles.expected_detected", lambda config, kind: True)
        report = run_fuzz_campaign(seed=SEED, budget=6)
        assert report.shrunk
        assert provisionings == DEFAULT_FUNCTIONAL

    def test_warm_cache_executes_nothing(self, tmp_path, provisionings):
        cold = run_fuzz_campaign(
            seed=SEED, budget=6, cache_dir=tmp_path, shrink_violations=False
        )
        assert provisionings == DEFAULT_FUNCTIONAL
        provisionings.clear()
        warm = run_fuzz_campaign(
            seed=SEED, budget=6, cache_dir=tmp_path, shrink_violations=False
        )
        assert cold.executed_jobs == 18 and cold.cached_jobs == 0
        assert warm.executed_jobs == 0 and warm.cached_jobs == 18
        assert warm.format_matrix() == cold.format_matrix()
        assert provisionings == []

    def test_registry_names_and_derived_specs_fuzz_too(self):
        derived = CONFIGURATIONS["secddr_xts"].derive(name="secddr_variant")
        report = run_fuzz_campaign(
            seed=3, budget=4,
            configurations=["tdx_baseline", derived],
            shrink_violations=False,
        )
        assert report.configurations == ["tdx_baseline", "secddr_variant"]
        # tdx_baseline projects onto the no-RAP functional profile; the
        # SecDDR-mechanism spec onto full SecDDR.
        assert not any(r.violation for r in report.results["secddr_variant"])

    def test_duplicate_configuration_names_rejected(self):
        with pytest.raises(ValueError, match="resolve to the name"):
            FuzzCampaign(configurations=["secddr", "secddr"])


class TestShrinking:
    def test_injected_failure_shrinks_to_minimal_tamper_program(self, provisioned):
        # An artificially bloated failing scenario: eight replay-style
        # actions plus background noise, failing (missed) on the baseline.
        generator = ScenarioGenerator(SEED)
        background = generator.generate(0).ops  # benign-op prefix as noise
        values = iter(range(100, 200))
        ops = [VictimOp(op.op, op.address, op.value_id, -1)
               for op in background if op.source == -1]
        actions = []
        for slot in range(8):
            address = ATTACK_REGION_BASE + 0x100000 + slot * 0x1000
            action = (ReplayAction if slot % 2 else DropWriteAction)(address=address)
            script = [VictimOp(op.op, op.address, op.value_id, len(actions))
                      for op in action.script(lambda: next(values))]
            ops[len(ops) // 2:len(ops) // 2] = script
            actions.append(action)
        scenario = FuzzScenario(
            scenario_id="bloated", seed=23, workload="gcc",
            ops=tuple(ops), actions=tuple(actions),
        )
        baseline = provisioned(SecDDRConfig.baseline_no_rap())
        assert run_scenario(scenario, baseline).outcome == FuzzOutcome.MISSED

        shrunk = shrink_scenario(scenario, baseline, "baseline_no_rap")
        assert len(shrunk.minimized.actions) <= 5
        assert len(shrunk.minimized.ops) <= 8
        # The minimized scenario is a true standalone reproducer, and
        # shrinking never manufactures an orphaned read along the way.
        assert shrunk.minimized.well_formed()
        replay = run_scenario(shrunk.minimized, baseline, "baseline_no_rap")
        assert replay.outcome == FuzzOutcome.MISSED

    def test_shrink_rejects_non_reproducing_target(self, provisioned):
        scenario = ScenarioGenerator(SEED).generate(0)
        with pytest.raises(ValueError, match="does not|produces"):
            shrink_scenario(
                scenario, provisioned(SecDDRConfig()), target_outcome=FuzzOutcome.MISSED
            )


class TestCorpusAndArtifacts:
    def test_artifacts_roundtrip_and_are_deterministic(self, campaign_report, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        paths = write_fuzz_artifacts(campaign_report, first)
        names = {p.name for p in paths}
        assert {"corpus.jsonl", "fuzz_matrix.csv", "fuzz_matrix.json", "REPORT.md"} <= names
        write_fuzz_artifacts(campaign_report, second)
        for name in ("corpus.jsonl", "fuzz_matrix.csv", "fuzz_matrix.json", "REPORT.md"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_corpus_scenarios_reexecute_to_recorded_outcomes(
        self, campaign_report, tmp_path, provisioned
    ):
        write_fuzz_artifacts(campaign_report, tmp_path)
        entries = read_corpus(tmp_path / "corpus.jsonl")
        assert len(entries) == BUDGET
        scenario, outcomes = entries[0]
        result = run_scenario(scenario, provisioned(SecDDRConfig()), "secddr")
        assert result.outcome == outcomes["secddr"]["outcome"]

    def test_matrix_artifact_uses_figures_schema(self, campaign_report, tmp_path):
        from repro.figures.report import ARTIFACT_SCHEMA_VERSION

        write_fuzz_artifacts(campaign_report, tmp_path)
        payload = json.loads((tmp_path / "fuzz_matrix.json").read_text())
        assert payload["schema"] == ARTIFACT_SCHEMA_VERSION
        assert payload["key"] == "fuzz_matrix"
        assert payload["columns"][0] == "action"
        assert payload["summary"]["oracle_violations"] == 0.0


class TestAttackCampaignGeneralization:
    def test_standard_campaign_unchanged_by_default(self):
        results = run_standard_campaign()
        assert {r.configuration for r in results} == {
            "baseline_no_rap", "secddr_no_ewcrc", "secddr",
        }
        assert len(results) == 24

    def test_campaign_accepts_registry_names_and_derived_specs(self):
        derived = CONFIGURATIONS["secddr_ctr"].derive(name="my_secddr")
        campaign = AttackCampaign(configurations=["tdx_baseline", derived])
        results = campaign.run()
        configurations = {r.configuration for r in results}
        assert configurations == {"tdx_baseline", "my_secddr"}
        # tdx_baseline (no RAP) falls to replay; the SecDDR spec detects it.
        by_pair = {(r.configuration, r.attack): r for r in results}
        assert by_pair[("tdx_baseline", "bus_replay")].succeeded
        assert by_pair[("my_secddr", "bus_replay")].detected

    def test_two_raw_functional_configs_get_distinct_names(self):
        campaign = AttackCampaign(
            configurations=[SecDDRConfig(), SecDDRConfig.baseline_no_rap()]
        )
        names = list(campaign.configurations)
        assert len(names) == 2 and names[0] != names[1]
        assert all(name.startswith("custom_functional_") for name in names)

    def test_campaign_rejects_unknown_names_with_suggestion(self):
        from repro.errors import UnknownAttackConfigurationError

        with pytest.raises(UnknownAttackConfigurationError) as excinfo:
            AttackCampaign(configurations=["secddr_xtz"])
        assert "closest match: 'secddr_xts'" in str(excinfo.value)


class TestSessionFacade:
    def test_session_fuzz_runs_and_caches(self, tmp_path):
        from repro.api import Session

        session = Session(cache_dir=tmp_path)
        report = session.fuzz(seed=5, budget=4, shrink_violations=False)
        assert report.budget == 4
        assert report.executed_jobs == 12
        warm = session.fuzz(seed=5, budget=4, shrink_violations=False)
        assert warm.executed_jobs == 0 and warm.cached_jobs == 12


class TestFuzzCli:
    def test_fuzz_command_prints_matrix_and_writes_corpus(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        assert main([
            "fuzz", "--seed", "5", "--budget", "4", "--corpus", str(corpus),
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "oracle violations: 0" in out
        assert "delay_then_replay" in out
        assert (corpus / "REPORT.md").is_file()
        assert (corpus / "corpus.jsonl").is_file()

    def test_fuzz_unknown_configuration_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "2", "-c", "secddr_xtz"]) == 2
        err = capsys.readouterr().err
        assert "unknown attack configuration 'secddr_xtz'" in err
        assert "closest match: 'secddr_xts'" in err

    def test_fuzz_duplicate_configuration_exits_2(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "2", "-c", "secddr,secddr"]) == 2
        err = capsys.readouterr().err
        assert "resolve to the name 'secddr'" in err

    def test_compare_seed_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["compare", "--seed", "9"])
        assert args.seed == 9
        args = build_parser().parse_args(["reproduce"])
        assert args.seed == 1
        args = build_parser().parse_args(["sweep", "--seed", "4"])
        assert args.seed == 4
