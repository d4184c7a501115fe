"""Payload shapes shared by the experiment service, its client, and the CLI.

Three concerns live here so every front door agrees byte-for-byte:

* :func:`dump_payload` -- the canonical JSON encoding (sorted keys, two-space
  indent, trailing newline).  A job's ``result.json`` is written with it and
  served verbatim by ``GET /jobs/{id}/result``, which is what makes a
  comparison run over HTTP byte-identical to the same comparison run
  in-process and serialized the same way.
* :func:`registries_payload` -- the machine-readable registry dump behind
  both ``repro list --json`` and ``GET /registries`` (one serializer, so the
  CLI and the service can never disagree about what is registered).
* :func:`validate_request` -- JSON job-spec validation for ``POST /jobs``.
  Names are resolved eagerly against the registries, so a typo comes back as
  an HTTP 400 carrying the registry's closest-match message instead of a
  failed job minutes later.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Dict, List, Mapping, Optional

import json

from repro.dram.timing import DDRTimingParameters
from repro.errors import UnknownOverrideError
from repro.figures import FIGURES, figure_names
from repro.figures.registry import resolve_figures
from repro.overrides import TIMING_PRESETS, coerce_override, parse_overrides
from repro.secure.configs import (
    CONFIGURATIONS,
    EncryptionMode,
    SystemConfiguration,
    configuration_names,
    resolve_configuration,
)
from repro.sim.engines import ENGINES, resolve_engine
from repro.sim.experiment import ExperimentConfig
from repro.workloads.registry import ALL_WORKLOADS, workload_names
from repro.workloads.registry import REGISTRY as WORKLOAD_REGISTRY

__all__ = [
    "JOB_KINDS",
    "RequestError",
    "dump_payload",
    "registries_payload",
    "configuration_payload",
    "configuration_from_payload",
    "experiment_from_payload",
    "overrides_from_payload",
    "validate_request",
]

#: Job kinds the service executes, in documentation order.
JOB_KINDS = ("compare", "sweep", "figures", "fuzz")

#: Sweep axes a ``sweep`` job accepts.
SWEEP_AXES = ("arity", "packing")


class RequestError(ValueError):
    """A malformed job request (the service maps this to HTTP 400)."""


def dump_payload(payload: object) -> bytes:
    """Encode ``payload`` canonically: sorted keys, indent=2, trailing newline.

    Every result the service persists or serves goes through this one
    function, so "byte-identical" is a property of the payload alone.
    """
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# Registry dump (repro list --json and GET /registries)
# ----------------------------------------------------------------------

def registries_payload() -> Dict[str, object]:
    """Every public registry as one JSON-safe document.

    The single serializer behind ``repro list --json`` and the service's
    ``GET /registries`` endpoint; the human-readable ``repro list`` tables
    render the same registries, so all three views agree by construction.
    """
    from repro.attacks.campaign import standard_attacks
    from repro.fuzz.actions import TAMPER_ACTIONS

    configurations = {
        name: configuration_payload(CONFIGURATIONS[name])
        for name in configuration_names()
    }
    workloads = {}
    for name in workload_names():
        spec = ALL_WORKLOADS[name]
        workloads[name] = {
            "suite": spec.suite,
            "mpki": spec.mpki,
            "write_fraction": spec.write_fraction,
            "memory_intensive": spec.memory_intensive,
        }
    figures = {}
    for key in figure_names():
        spec = FIGURES[key]
        figures[key] = {
            "paper_ref": spec.paper_ref,
            "simulated": spec.simulated,
            "description": spec.description,
        }
    engines = {
        engine.name: {"vectorized": engine.vectorized, "description": engine.description}
        for engine in ENGINES
    }
    attacks = {
        attack.name: ((attack.__doc__ or "").strip().splitlines() or [""])[0]
        for attack in standard_attacks()
    }
    tamper_actions = {
        kind: {"detected_by": action.detected_by, "description": action.description}
        for kind, action in TAMPER_ACTIONS.items()
    }
    return {
        "configurations": configurations,
        "workloads": workloads,
        "figures": figures,
        "engines": engines,
        "attacks": attacks,
        "tamper_actions": tamper_actions,
    }


# ----------------------------------------------------------------------
# Configuration / experiment payloads
# ----------------------------------------------------------------------

def _timing_payload(timing: DDRTimingParameters) -> object:
    """A preset name when the timing matches one, else the full field dict."""
    for preset_name, preset in TIMING_PRESETS.items():
        if timing == preset:
            return preset_name
    return asdict(timing)


def configuration_payload(spec: SystemConfiguration) -> Dict[str, object]:
    """The JSON-safe form of a configuration spec (round-trips via
    :func:`configuration_from_payload`)."""
    payload = asdict(spec)
    payload["encryption"] = spec.encryption.value
    payload["timing"] = _timing_payload(spec.timing)
    return payload


def configuration_from_payload(payload: Mapping[str, object]) -> SystemConfiguration:
    """Rebuild a :class:`SystemConfiguration` from its payload form.

    Accepts what :func:`configuration_payload` emits: ``encryption`` by enum
    value, ``timing`` as a preset name or a full field dict.
    """
    data = dict(payload)
    valid = {f.name for f in fields(SystemConfiguration)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise RequestError(
            "unknown configuration field(s) %s; valid fields: %s"
            % (", ".join(unknown), ", ".join(sorted(valid)))
        )
    try:
        data["encryption"] = EncryptionMode(str(data.get("encryption", "none")).lower())
    except ValueError:
        raise RequestError(
            "encryption must be one of %s, got %r"
            % (", ".join(m.value for m in EncryptionMode), data.get("encryption"))
        ) from None
    timing = data.get("timing")
    if timing is None:
        data.pop("timing", None)
    elif isinstance(timing, str):
        preset = TIMING_PRESETS.get(timing.lower().replace("-", "_"))
        if preset is None:
            raise RequestError(
                "timing must be one of %s, got %r" % (", ".join(TIMING_PRESETS), timing)
            )
        data["timing"] = preset
    elif isinstance(timing, Mapping):
        try:
            data["timing"] = DDRTimingParameters(**timing)
        except TypeError as error:
            raise RequestError("invalid timing payload: %s" % error) from None
    else:
        raise RequestError("timing must be a preset name or a field mapping")
    try:
        return SystemConfiguration(**data)
    except TypeError as error:
        raise RequestError("invalid configuration payload: %s" % error) from None


def experiment_from_payload(payload: Optional[Mapping[str, object]]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON mapping.

    Native JSON types pass straight through; string values are coerced with
    the ``--set`` machinery, so ``{"num_cores": "2"}`` and ``{"num_cores": 2}``
    mean the same thing.  Unknown keys raise the registry-style
    :class:`~repro.errors.UnknownOverrideError` (closest-match suggestion).
    """
    if not payload:
        return ExperimentConfig()
    types = {f.name: str(f.type) for f in fields(ExperimentConfig)}
    kwargs: Dict[str, object] = {}
    for key, value in payload.items():
        if key not in types:
            raise UnknownOverrideError(key, sorted(types))
        kwargs[key] = (
            coerce_override(key, types[key], value) if isinstance(value, str) else value
        )
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as error:
        raise RequestError("invalid experiment payload: %s" % error) from None


def overrides_from_payload(payload: object) -> List[str]:
    """Normalize a job spec's ``"set"`` entry to ``KEY=VALUE`` strings.

    Accepts the CLI's list form (``["tree_arity=32", ...]``) and the more
    JSON-natural mapping form (``{"tree_arity": 32}``); both feed
    :func:`repro.overrides.parse_overrides`, so the HTTP vocabulary is
    exactly the ``--set`` vocabulary.
    """
    if payload is None:
        return []
    if isinstance(payload, Mapping):
        pairs = []
        for key, value in payload.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            pairs.append("%s=%s" % (key, value))
        return pairs
    if isinstance(payload, list) and all(isinstance(item, str) for item in payload):
        return list(payload)
    raise RequestError('"set" must be a {field: value} mapping or a list of KEY=VALUE strings')


# ----------------------------------------------------------------------
# Job request validation
# ----------------------------------------------------------------------

def _require_names(values: object, what: str) -> List[str]:
    if not isinstance(values, list) or not values or not all(
        isinstance(item, str) for item in values
    ):
        raise RequestError('"%s" must be a non-empty list of names' % what)
    return list(values)


def _validate_compare(request: Dict[str, object]) -> None:
    workloads = _require_names(request.get("workloads"), "workloads")
    for name in workloads:
        WORKLOAD_REGISTRY[name]  # raises UnknownWorkloadError with suggestions
    configurations = request.get("configurations")
    if not isinstance(configurations, list) or not configurations:
        raise RequestError('"configurations" must be a non-empty list')
    for entry in configurations:
        if isinstance(entry, str):
            resolve_configuration(entry)
        elif isinstance(entry, Mapping):
            configuration_from_payload(entry)
        else:
            raise RequestError(
                "configurations must be registry names or configuration payloads"
            )
    resolve_configuration(request.get("baseline", "tdx_baseline"))
    parse_overrides(overrides_from_payload(request.get("set")))


def _validate_sweep(request: Dict[str, object]) -> None:
    axis = request.get("sweep", "arity")
    if axis not in SWEEP_AXES:
        raise RequestError('"sweep" must be one of %s, got %r' % (", ".join(SWEEP_AXES), axis))
    request["sweep"] = axis
    values = request.get("values", [8, 64, 128])
    if not isinstance(values, list) or not values or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 2 for v in values
    ):
        raise RequestError('"values" must be a list of integers >= 2')
    request["values"] = values
    workloads = request.get("workloads")
    if workloads is not None:
        for name in _require_names(workloads, "workloads"):
            WORKLOAD_REGISTRY[name]
    resolve_configuration(request.get("baseline", "tdx_baseline"))
    parse_overrides(overrides_from_payload(request.get("set")))


def _validate_figures(request: Dict[str, object]) -> None:
    figures = request.get("figures")
    if figures is not None:
        resolve_figures(_require_names(figures, "figures"))
    workloads = request.get("workloads")
    if workloads is not None:
        for name in _require_names(workloads, "workloads"):
            WORKLOAD_REGISTRY[name]


def _validate_fuzz(request: Dict[str, object]) -> None:
    budget = request.get("budget", 50)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise RequestError('"budget" must be a positive integer')
    request["budget"] = budget
    configurations = request.get("configurations")
    if configurations is not None:
        from repro.fuzz.engine import FuzzCampaign

        FuzzCampaign._resolve_configurations(_require_names(configurations, "configurations"))


_VALIDATORS = {
    "compare": _validate_compare,
    "sweep": _validate_sweep,
    "figures": _validate_figures,
    "fuzz": _validate_fuzz,
}


def validate_request(payload: object) -> Dict[str, object]:
    """Validate a ``POST /jobs`` body; returns the normalized request dict.

    Checks shape (kind, priority, engine) and resolves every referenced name
    against the live registries, so invalid submissions are rejected at the
    door with the registry's closest-match message.  Raises
    :class:`RequestError` or a :class:`~repro.errors.RegistryLookupError`
    subclass; the HTTP layer maps both to a 400 response.
    """
    if not isinstance(payload, Mapping):
        raise RequestError("job request must be a JSON object")
    request = dict(payload)
    kind = request.get("kind")
    if kind not in JOB_KINDS:
        raise RequestError(
            '"kind" must be one of %s, got %r' % (", ".join(JOB_KINDS), kind)
        )
    priority = request.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise RequestError('"priority" must be an integer (higher runs first)')
    request["priority"] = priority
    engine = request.get("engine")
    if engine is not None:
        resolve_engine(engine)  # raises UnknownEngineError with suggestions
    seed = request.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise RequestError('"seed" must be an integer')
    experiment_from_payload(request.get("experiment"))
    _VALIDATORS[kind](request)
    return request
