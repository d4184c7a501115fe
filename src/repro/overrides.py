"""``--set key=value``-style override parsing, shared by the CLI and server.

A ``--set`` pair (or, over HTTP, one entry of a job spec's ``"set"`` map)
targets either a :class:`~repro.secure.configs.SystemConfiguration` field --
applied with ``derive()`` to every evaluated configuration -- or an
:class:`~repro.sim.experiment.ExperimentConfig` field, replacing that knob on
the whole run.  Values arrive as strings and are coerced from the dataclass
annotations themselves, so new fields gain override support (with the right
coercion) automatically.

Historically this lived inside :mod:`repro.cli`; it moved here when the
experiment service (:mod:`repro.server`) started accepting the same override
vocabulary in JSON job specs, so both front doors share one parser and one
error shape.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Mapping, Tuple

from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800
from repro.errors import UnknownOverrideError
from repro.secure.configs import (
    ConfigurationLike,
    EncryptionMode,
    SystemConfiguration,
    resolve_configuration,
)

__all__ = [
    "OverrideError",
    "TIMING_PRESETS",
    "parse_overrides",
    "derived_configurations",
]

#: Named timing presets accepted by ``--set timing=...``.
TIMING_PRESETS = {
    "ddr4_3200": DDR4_3200,
    "ddr4_2400": DDR4_2400,
    "ddr5_4800": DDR5_4800,
}


class OverrideError(ValueError):
    """A malformed or uncoercible ``--set`` override."""


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _field_types() -> Dict[str, str]:
    """Field name -> annotation string of ``SystemConfiguration``.

    Derived from the dataclass itself (annotations are strings under
    ``from __future__ import annotations``), so new fields get --set support
    with the right coercion automatically.
    """
    return {f.name: str(f.type) for f in fields(SystemConfiguration)}


def _experiment_field_types() -> Dict[str, str]:
    """Field name -> annotation string of ``ExperimentConfig``."""
    from repro.sim.experiment import ExperimentConfig

    return {f.name: str(f.type) for f in fields(ExperimentConfig)}


def coerce_override(key: str, annotation: str, raw: str) -> object:
    """Parse one ``--set`` value into the field's Python type."""
    if annotation == "EncryptionMode":
        try:
            return EncryptionMode(raw.lower())
        except ValueError:
            raise OverrideError(
                "%s must be one of %s, got %r"
                % (key, ", ".join(m.value for m in EncryptionMode), raw)
            ) from None
    if annotation == "DDRTimingParameters":
        preset = TIMING_PRESETS.get(raw.lower().replace("-", "_"))
        if preset is None:
            raise OverrideError(
                "%s must be one of %s, got %r" % (key, ", ".join(TIMING_PRESETS), raw)
            )
        return preset
    if annotation == "bool":
        value = _BOOL_VALUES.get(raw.lower())
        if value is None:
            raise OverrideError("%s must be true/false, got %r" % (key, raw))
        return value
    if annotation in ("int", "Optional[int]"):
        if annotation == "Optional[int]" and raw.lower() == "none":
            return None
        try:
            return int(raw)
        except ValueError:
            raise OverrideError("%s must be an integer, got %r" % (key, raw)) from None
    if annotation == "float":
        try:
            return float(raw)
        except ValueError:
            raise OverrideError("%s must be a number, got %r" % (key, raw)) from None
    # Remaining fields (name, description, mechanism, figure) are strings.
    return raw


def parse_overrides(pairs: List[str]) -> "Tuple[Dict[str, object], Dict[str, object]]":
    """Split ``--set key=value`` pairs into (configuration, experiment) overrides.

    Keys are resolved against ``SystemConfiguration`` first (they become
    ``derive()`` keywords applied to every evaluated configuration) and
    against ``ExperimentConfig`` second (they replace fields on the run's
    shared experiment budget).  A key found in neither raises
    :class:`~repro.errors.UnknownOverrideError`, which carries the full
    valid-field vocabulary and a closest-match suggestion — the same error
    shape unknown configuration/workload/engine names produce.
    """
    spec_types = _field_types()
    experiment_types = _experiment_field_types()
    spec_overrides: Dict[str, object] = {}
    experiment_overrides: Dict[str, object] = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        key = key.strip()
        if not separator or not key:
            raise OverrideError("--set expects KEY=VALUE, got %r" % pair)
        if key in spec_types:
            spec_overrides[key] = coerce_override(key, spec_types[key], raw.strip())
        elif key in experiment_types:
            experiment_overrides[key] = coerce_override(
                key, experiment_types[key], raw.strip()
            )
        else:
            raise UnknownOverrideError(
                key, sorted(spec_types) + sorted(experiment_types)
            )
    return spec_overrides, experiment_overrides


def derived_configurations(
    names: List[str], overrides: Mapping[str, object]
) -> List[ConfigurationLike]:
    """Apply ``--set`` overrides, deriving an unnamed variant per configuration."""
    if not overrides:
        return list(names)
    if "name" in overrides and len(names) > 1:
        # One explicit name across several derived specs would collide in the
        # result matrix (names key the normalization table).
        raise OverrideError(
            "--set name=... cannot be combined with multiple configurations "
            "(%s) — every derived spec would share one name" % ", ".join(names)
        )
    return [resolve_configuration(name).derive(**overrides) for name in names]
