"""Tests for ``repro.overrides`` error paths and field targeting.

The happy path (``--set`` deriving configurations end-to-end) is covered by
the CLI and server suites; this file pins down the error vocabulary --
unknown keys must suggest their closest match, every coercion failure must
name the key and the expected shape -- and the split between
``SystemConfiguration`` and ``ExperimentConfig`` targets.
"""

import pytest

from repro.dram.timing import DDR5_4800
from repro.errors import UnknownOverrideError
from repro.overrides import (
    OverrideError,
    TIMING_PRESETS,
    coerce_override,
    derived_configurations,
    parse_overrides,
)
from repro.secure.configs import EncryptionMode


class TestUnknownKeys:
    def test_unknown_key_raises_with_closest_match(self):
        with pytest.raises(UnknownOverrideError) as excinfo:
            parse_overrides(["tree_aritty=32"])
        assert excinfo.value.suggestion == "tree_arity"
        assert "tree_arity" in str(excinfo.value)

    def test_unknown_experiment_like_key_suggests_experiment_field(self):
        with pytest.raises(UnknownOverrideError) as excinfo:
            parse_overrides(["num_acesses=500"])
        assert excinfo.value.suggestion == "num_accesses"

    def test_suggestion_vocabulary_spans_both_dataclasses(self):
        with pytest.raises(UnknownOverrideError) as excinfo:
            parse_overrides(["definitely_not_a_field=1"])
        valid = excinfo.value.available
        assert "tree_arity" in valid  # SystemConfiguration side
        assert "num_accesses" in valid  # ExperimentConfig side

    def test_hopeless_typo_has_no_suggestion(self):
        with pytest.raises(UnknownOverrideError) as excinfo:
            parse_overrides(["zzzzqqqq=1"])
        assert excinfo.value.suggestion is None


class TestMalformedPairs:
    def test_missing_separator(self):
        with pytest.raises(OverrideError, match="KEY=VALUE"):
            parse_overrides(["tree_arity"])

    def test_empty_key(self):
        with pytest.raises(OverrideError, match="KEY=VALUE"):
            parse_overrides(["=32"])


class TestCoercionFailures:
    def test_int_field_rejects_non_integer(self):
        with pytest.raises(OverrideError, match="must be an integer"):
            parse_overrides(["counters_per_line=many"])

    def test_float_field_rejects_non_number(self):
        with pytest.raises(OverrideError, match="must be a number"):
            parse_overrides(["cpu_freq_mhz=fast"])

    def test_bool_field_rejects_maybe(self):
        with pytest.raises(OverrideError, match="true/false"):
            parse_overrides(["replay_protection=maybe"])

    def test_encryption_mode_lists_valid_modes(self):
        with pytest.raises(OverrideError) as excinfo:
            parse_overrides(["encryption=rot13"])
        message = str(excinfo.value)
        for mode in EncryptionMode:
            assert mode.value in message

    def test_timing_preset_lists_presets(self):
        with pytest.raises(OverrideError) as excinfo:
            parse_overrides(["timing=ddr9_9000"])
        message = str(excinfo.value)
        for preset in TIMING_PRESETS:
            assert preset in message

    def test_error_names_the_offending_key(self):
        with pytest.raises(OverrideError, match="counters_per_line"):
            parse_overrides(["counters_per_line=x"])


class TestCoercionSuccess:
    def test_optional_int_accepts_none_and_integers(self):
        assert coerce_override("write_burst_cycles", "Optional[int]", "none") is None
        assert coerce_override("write_burst_cycles", "Optional[int]", "12") == 12

    def test_bool_accepts_the_usual_spellings(self):
        for raw, expected in (("true", True), ("YES", True), ("1", True),
                              ("false", False), ("No", False), ("0", False)):
            assert coerce_override("replay_protection", "bool", raw) is expected

    def test_timing_preset_is_case_and_dash_insensitive(self):
        assert coerce_override("timing", "DDRTimingParameters", "DDR5-4800") is DDR5_4800

    def test_encryption_mode_coerces_case_insensitively(self):
        assert (coerce_override("encryption", "EncryptionMode", "XTS")
                == EncryptionMode("xts"))


class TestFieldTargeting:
    def test_configuration_fields_land_on_the_spec_side(self):
        spec, experiment = parse_overrides(["tree_arity=32", "replay_protection=true"])
        assert spec == {"tree_arity": 32, "replay_protection": True}
        assert experiment == {}

    def test_experiment_fields_land_on_the_experiment_side(self):
        spec, experiment = parse_overrides(["num_accesses=500", "seed=9"])
        assert spec == {}
        assert experiment == {"num_accesses": 500, "seed": 9}

    def test_mixed_pairs_split_cleanly(self):
        spec, experiment = parse_overrides(
            ["tree_arity=16", "num_cores=2", "metadata_cache_bytes=4096"]
        )
        assert spec == {"tree_arity": 16}
        assert experiment == {"num_cores": 2, "metadata_cache_bytes": 4096}

    def test_values_are_stripped_of_whitespace(self):
        spec, _ = parse_overrides([" tree_arity = 32 "])
        assert spec == {"tree_arity": 32}


class TestDerivedConfigurations:
    def test_no_overrides_passes_names_through(self):
        assert derived_configurations(["secddr_ctr"], {}) == ["secddr_ctr"]

    def test_derivation_renames_the_variant(self):
        (derived,) = derived_configurations(["secddr_ctr"], {"tree_arity": 32})
        assert derived.tree_arity == 32
        assert derived.name != "secddr_ctr"
        assert "tree_arity" in derived.name

    def test_explicit_name_with_multiple_configs_is_rejected(self):
        with pytest.raises(OverrideError, match="name"):
            derived_configurations(
                ["secddr_ctr", "secddr_xts"], {"name": "mine", "tree_arity": 32}
            )
