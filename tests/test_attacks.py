"""Tests for the attack framework: the paper's security claims, executable.

The detection matrix these tests pin down is the core security result of the
paper: the TDX-like baseline (integrity but no replay protection) falls to
every replay-style attack, SecDDR detects all of them, and SecDDR without the
encrypted eWCRC is still vulnerable to misdirected-write (stale data) attacks
-- which is exactly why Section III-B introduces it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.attacks import (
    AddressCorruptionAttack,
    AttackCampaign,
    AttackOutcome,
    BusAdversary,
    BusReplayAttack,
    DataRelocationAttack,
    DimmSubstitutionAttack,
    ReadTamperAttack,
    RecordingAdversary,
    RowHammerAttack,
    WriteDropAttack,
    WriteToReadConversionAttack,
    run_standard_campaign,
    standard_attacks,
)
from repro.attacks.campaign import STANDARD_CONFIGURATIONS
from repro.core import FunctionalMemorySystem, SecDDRConfig


class TestBusReplay:
    def test_detected_under_secddr(self, provisioned):
        result = BusReplayAttack().run(provisioned(), "secddr")
        assert result.outcome is AttackOutcome.DETECTED

    def test_succeeds_against_baseline(self, provisioned):
        result = BusReplayAttack().run(provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert result.outcome is AttackOutcome.SUCCEEDED

    def test_detected_even_without_ewcrc(self, provisioned):
        result = BusReplayAttack().run(provisioned(SecDDRConfig(ewcrc_enabled=False)), "no_ewcrc")
        assert result.outcome is AttackOutcome.DETECTED


class TestAddressCorruption:
    def test_detected_at_write_time_under_secddr(self, provisioned):
        result = AddressCorruptionAttack().run(provisioned(), "secddr")
        assert result.outcome is AttackOutcome.DETECTED
        assert "eWCRC" in (result.detection_point or "")

    def test_succeeds_without_ewcrc(self, provisioned):
        # E-MACs alone cannot catch the stale-data attack (Section III-B).
        result = AddressCorruptionAttack().run(provisioned(SecDDRConfig(ewcrc_enabled=False)), "no_ewcrc")
        assert result.outcome is AttackOutcome.SUCCEEDED

    def test_succeeds_against_baseline(self, provisioned):
        result = AddressCorruptionAttack().run(provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert result.outcome is AttackOutcome.SUCCEEDED

    def test_column_corruption_also_detected(self, provisioned):
        attack = AddressCorruptionAttack()
        memory = provisioned()
        # Corrupt the column instead of the row by using a column offset.
        address = attack.target_address
        memory.write(address, b"\xaa" * 64)
        memory.read(address)
        from repro.core.protocol import WriteTransaction
        from repro.attacks.adversary import BusAdversary

        adversary = BusAdversary()

        def corrupt(txn):
            if txn.command.address != address:
                return txn
            return txn.with_command(txn.command.redirected(column=(txn.command.column + 1) % 128))

        adversary.write_hook = corrupt
        memory.attach_adversary(adversary)
        before = memory.stats.rejected_writes
        memory.write(address, b"\xbb" * 64)
        memory.detach_adversary()
        assert memory.stats.rejected_writes == before + 1


class TestWriteDropAndConversion:
    def test_drop_detected_under_secddr(self, provisioned):
        result = WriteDropAttack().run(provisioned(), "secddr")
        assert result.outcome is AttackOutcome.DETECTED

    def test_drop_succeeds_against_baseline(self, provisioned):
        result = WriteDropAttack().run(provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert result.outcome is AttackOutcome.SUCCEEDED

    def test_conversion_detected_with_parity_rule(self, provisioned):
        result = WriteToReadConversionAttack().run(provisioned(), "secddr")
        assert result.outcome is AttackOutcome.DETECTED
        assert result.observations.get("counters_diverged") == 1.0

    def test_conversion_succeeds_without_parity_rule(self, provisioned):
        # The exact gap the paper's even/odd counter assignment closes.
        config = SecDDRConfig(counter_parity_rule=False)
        result = WriteToReadConversionAttack().run(provisioned(config), "secddr_no_parity")
        assert result.outcome is AttackOutcome.SUCCEEDED

    def test_conversion_succeeds_against_baseline(self, provisioned):
        result = WriteToReadConversionAttack().run(provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert result.outcome is AttackOutcome.SUCCEEDED


class TestDimmSubstitution:
    def test_detected_under_secddr(self, provisioned):
        result = DimmSubstitutionAttack().run(provisioned(), "secddr")
        assert result.outcome is AttackOutcome.DETECTED

    def test_succeeds_against_baseline(self, provisioned):
        result = DimmSubstitutionAttack().run(provisioned(SecDDRConfig.baseline_no_rap()), "baseline")
        assert result.outcome is AttackOutcome.SUCCEEDED


class TestDataRelocation:
    def test_detected_by_address_bound_macs_everywhere(self, provisioned):
        # Splicing a valid (data, MAC) pair to another address is caught by
        # any configuration whose MAC binds the physical address -- including
        # the no-RAP baseline.
        for config, name in (
            (SecDDRConfig(), "secddr"),
            (SecDDRConfig.baseline_no_rap(), "baseline"),
        ):
            result = DataRelocationAttack().run(provisioned(config), name)
            assert result.outcome is AttackOutcome.DETECTED, name


class TestDataCorruptionAttacks:
    def test_rowhammer_detected_by_all_mac_configurations(self, provisioned):
        for config, name in (
            (SecDDRConfig(), "secddr"),
            (SecDDRConfig.baseline_no_rap(), "baseline"),
        ):
            result = RowHammerAttack().run(provisioned(config), name)
            assert result.outcome is AttackOutcome.DETECTED, name

    def test_read_tamper_detected_by_all_mac_configurations(self, provisioned):
        for config, name in (
            (SecDDRConfig(), "secddr"),
            (SecDDRConfig.baseline_no_rap(), "baseline"),
        ):
            result = ReadTamperAttack().run(provisioned(config), name)
            assert result.outcome is AttackOutcome.DETECTED, name


class TestRecordingAdversary:
    def test_records_per_address_history(self, provisioned):
        memory = provisioned()
        adversary = RecordingAdversary()
        memory.attach_adversary(adversary)
        memory.write(0x4000, b"\x01" * 64)
        memory.read(0x4000)
        memory.write(0x4000, b"\x02" * 64)
        memory.read(0x4000)
        memory.detach_adversary()
        assert len(adversary.response_history[0x4000]) == 2
        assert len(adversary.write_history[0x4000]) == 2
        assert adversary.recorded_response(0x4000) is adversary.response_history[0x4000][0]
        assert adversary.recorded_response(0x9999) is None

    def test_passthrough_does_not_break_operation(self, provisioned):
        memory = provisioned()
        memory.attach_adversary(RecordingAdversary())
        memory.write(0x4000, b"\x01" * 64)
        assert memory.read(0x4000) == b"\x01" * 64


class TestAdversaryHookEdgeCases:
    """The hook contract: None drops, exceptions propagate, replay is exact."""

    def test_write_hook_returning_none_drops_on_every_path(self, provisioned):
        memory = provisioned()
        adversary = BusAdversary()
        adversary.write_hook = lambda txn: None
        memory.attach_adversary(adversary)
        memory.write(0x4000, b"\x01" * 64)
        memory.detach_adversary()
        assert memory.stats.dropped_writes == 1
        # The drop never reached the DIMM: nothing was stored there.
        assert memory.storage.occupied_lines() == 0

    def test_read_command_hook_returning_none_times_out(self, provisioned):
        memory = provisioned()
        memory.write(0x4000, b"\x01" * 64)
        adversary = BusAdversary()
        adversary.read_command_hook = lambda cmd: None
        memory.attach_adversary(adversary)
        with pytest.raises(TimeoutError):
            memory.read(0x4000)
        memory.detach_adversary()
        assert memory.stats.dropped_reads == 1
        # The drop is a denial, not a desync: the channel still works.
        assert memory.counters_in_sync()
        assert memory.read(0x4000) == b"\x01" * 64

    def test_pass_through_hooks_leave_operation_intact(self, provisioned):
        memory = provisioned()
        adversary = BusAdversary()
        adversary.write_hook = lambda txn: txn
        adversary.read_command_hook = lambda cmd: cmd
        adversary.read_response_hook = lambda cmd, resp: resp
        memory.attach_adversary(adversary)
        memory.write(0x4000, b"\x5a" * 64)
        assert memory.read(0x4000) == b"\x5a" * 64
        memory.detach_adversary()

    @pytest.mark.parametrize("hook", ["write_hook", "read_command_hook", "read_response_hook"])
    def test_hook_exceptions_propagate_uncaught(self, hook, provisioned):
        # A crashing interposer model is a bug in the attack, not a
        # detection: the framework must surface it loudly, not classify it.
        class HookBug(RuntimeError):
            pass

        def explode(*_args):
            raise HookBug("buggy hook")

        memory = provisioned()
        if hook == "write_hook":
            adversary = BusAdversary()
            adversary.write_hook = explode
            memory.attach_adversary(adversary)
            with pytest.raises(HookBug):
                memory.write(0x4000, b"\x01" * 64)
        else:
            memory.write(0x4000, b"\x01" * 64)
            adversary = BusAdversary()
            setattr(adversary, hook, explode)
            memory.attach_adversary(adversary)
            with pytest.raises(HookBug):
                memory.read(0x4000)
        memory.detach_adversary()

    def test_recording_adversary_replays_with_byte_fidelity(self, provisioned):
        # Against the no-RAP baseline a recorded (data, MAC) pair must be
        # accepted verbatim when replayed -- the recording is exact.
        memory = provisioned(SecDDRConfig.baseline_no_rap())
        adversary = RecordingAdversary()
        memory.attach_adversary(adversary)
        memory.write(0x4000, b"\x0f" * 64)
        first = memory.read(0x4000)
        memory.write(0x4000, b"\xf0" * 64)
        recorded = adversary.recorded_response(0x4000)
        adversary.read_response_hook = (
            lambda cmd, resp: resp.replayed_with(recorded)
            if cmd.address == 0x4000 else resp
        )
        replayed = memory.read(0x4000)
        memory.detach_adversary()
        assert first == b"\x0f" * 64
        assert replayed == first  # stale value accepted byte-for-byte

    def test_recorded_write_history_preserves_order_and_content(self, provisioned):
        memory = provisioned()
        adversary = RecordingAdversary()
        memory.attach_adversary(adversary)
        memory.write(0x4000, b"\x01" * 64)
        memory.write(0x4000, b"\x02" * 64)
        memory.detach_adversary()
        first = adversary.recorded_write(0x4000, 0)
        second = adversary.recorded_write(0x4000, 1)
        assert first is not None and second is not None
        assert first.ciphertext != second.ciphertext
        assert adversary.recorded_write(0x9999) is None


class TestCampaign:
    @pytest.fixture(scope="class")
    def results(self):
        return run_standard_campaign()

    def test_campaign_covers_all_pairs(self, results):
        configurations = {r.configuration for r in results}
        attacks = {r.attack for r in results}
        assert configurations == {"baseline_no_rap", "secddr_no_ewcrc", "secddr"}
        assert len(attacks) == 8
        assert len(results) == 24

    def test_secddr_detects_every_attack(self, results):
        for result in results:
            if result.configuration == "secddr":
                assert result.outcome is AttackOutcome.DETECTED, result.attack

    def test_baseline_vulnerable_to_replay_style_attacks(self, results):
        replay_style = {
            "bus_replay",
            "address_corruption",
            "write_drop",
            "write_to_read_conversion",
            "dimm_substitution",
        }
        for result in results:
            if result.configuration == "baseline_no_rap" and result.attack in replay_style:
                assert result.outcome is AttackOutcome.SUCCEEDED, result.attack

    def test_no_ewcrc_vulnerable_only_to_address_corruption(self, results):
        for result in results:
            if result.configuration == "secddr_no_ewcrc":
                if result.attack == "address_corruption":
                    assert result.outcome is AttackOutcome.SUCCEEDED
                else:
                    assert result.outcome is AttackOutcome.DETECTED, result.attack

    def test_matrix_formatting(self, results):
        text = AttackCampaign.format_matrix(results)
        assert "bus_replay" in text
        assert "secddr" in text

    def test_result_describe(self, results):
        assert "->" in results[0].describe()

    def test_one_provisioning_per_configuration(self, provisionings):
        AttackCampaign().run()
        assert provisionings == list(STANDARD_CONFIGURATIONS.values())

    def test_fresh_system_per_attack_oracle_agrees(self, results):
        # The behaviour before campaigns copied one provisioned system:
        # every attack attested a system of its own.
        oracle = [
            attack.run(FunctionalMemorySystem(config=config, initial_counter=0), name)
            for name, config in STANDARD_CONFIGURATIONS.items()
            for attack in standard_attacks()
        ]
        assert oracle == results


def battery_reads():
    """``[configuration, attack, outcome, bus reads]`` for the standard battery.

    Each attack runs on a copy of one provisioned system per configuration,
    as a campaign does, and the copy's bus counts the reads it carried.
    """
    rows = []
    for name, config in STANDARD_CONFIGURATIONS.items():
        provisioned = FunctionalMemorySystem(config=config, initial_counter=0)
        for attack in standard_attacks():
            memory = provisioned.copy()
            outcome = attack.run(memory, name).outcome.value
            rows.append([name, attack.name, outcome, memory.bus.reads_observed])
    return rows


class TestWithoutAsserts:
    def test_battery_is_unchanged_under_python_O(self):
        # python -O strips assert statements, so no attack step may sit in one.
        here = Path(__file__).resolve().parent
        script = (
            "import json, sys; sys.path[:0] = [%r, %r]; import test_attacks; "
            "print(json.dumps([sys.flags.optimize, test_attacks.battery_reads()]))"
            % (str(here.parent / "src"), str(here))
        )
        process = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=300
        )
        assert process.returncode == 0, process.stderr
        optimize, optimized = json.loads(process.stdout)
        assert optimize == 1
        rows = battery_reads()
        assert optimized == rows
        reads = {(name, attack): count for name, attack, _, count in rows}
        # Two sanity reads before the module swap, and the victim's read after it.
        assert reads["secddr", "dimm_substitution"] == 3
