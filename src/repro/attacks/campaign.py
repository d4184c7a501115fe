"""Attack campaigns: run the full battery against one or more configurations.

The campaign is the executable version of the paper's security analysis: for
every attack scenario it reports whether the configuration detected it, and
the summary table makes the headline claims checkable -- the TDX-like
baseline (integrity but no replay protection) falls to every replay-style
attack, while SecDDR detects all of them and loses nothing on the
data-corruption attacks that MACs already caught.

Configurations are not limited to the three standard functional profiles:
anything :func:`resolve_attack_configuration` accepts may be campaigned
against -- a functional profile name (``secddr``, ``baseline_no_rap``,
``secddr_no_ewcrc``), a performance-registry name (``secddr_xts``,
``tdx_baseline``, ...), a :class:`~repro.secure.configs.SystemConfiguration`
(including unregistered ``derive()``-d variants), or a raw
:class:`~repro.core.config.SecDDRConfig`.  Registry specs are projected onto
the functional model by their security claims: mechanisms with replay
protection run as full SecDDR, the rest as the MAC-only baseline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Tuple, Union

from repro.attacks.address_corruption import AddressCorruptionAttack
from repro.attacks.dimm_substitution import DimmSubstitutionAttack
from repro.attacks.relocation import DataRelocationAttack
from repro.attacks.replay import BusReplayAttack
from repro.attacks.results import AttackResult
from repro.attacks.rowhammer import ReadTamperAttack, RowHammerAttack
from repro.attacks.write_drop import WriteDropAttack, WriteToReadConversionAttack
from repro.core.config import SecDDRConfig
from repro.core.memory_system import FunctionalMemorySystem
from repro.errors import AmbiguousConfigurationError, UnknownAttackConfigurationError
from repro.secure.configs import REGISTRY as CONFIGURATION_REGISTRY
from repro.secure.configs import SystemConfiguration

__all__ = [
    "AttackCampaign",
    "run_standard_campaign",
    "standard_attacks",
    "STANDARD_CONFIGURATIONS",
    "AttackConfigurationLike",
    "functional_configuration",
    "resolve_attack_configuration",
    "resolve_attack_configurations",
]

#: Functional configurations the standard campaign compares.
STANDARD_CONFIGURATIONS: Dict[str, SecDDRConfig] = {
    # Integrity (MACs) but no replay protection: resembles Intel TDX.
    "baseline_no_rap": SecDDRConfig.baseline_no_rap(),
    # SecDDR without the encrypted eWCRC: shows why Section III-B is needed.
    "secddr_no_ewcrc": SecDDRConfig(ewcrc_enabled=False),
    # Full SecDDR.
    "secddr": SecDDRConfig(),
}

#: Anything the campaign accepts as "a configuration to attack".
AttackConfigurationLike = Union[str, SecDDRConfig, SystemConfiguration]


def functional_configuration(spec: SystemConfiguration) -> SecDDRConfig:
    """Project a performance-registry spec onto the functional SecDDR model.

    The functional model executes the SecDDR protocol family only, so other
    mechanisms map by the security property they claim: anything with replay
    protection (trees, InvisiMem, SecDDR itself) runs as full SecDDR, and
    anything without it (the TDX-like baseline, encrypt-only bounds) runs as
    the MAC-only no-RAP baseline.
    """
    if spec.mechanism == "secddr":
        return SecDDRConfig()
    if spec.replay_protection:
        return SecDDRConfig()
    return SecDDRConfig.baseline_no_rap()


def _functional_config_name(config: SecDDRConfig) -> str:
    """A stable, content-derived name for a raw functional config.

    Deriving the name from the field values keeps two *different* raw
    configs distinguishable in one campaign (and in result tables), while
    the same config always maps to the same name across runs.
    """
    digest = hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:8]
    return "custom_functional_%s" % digest


def _available_names() -> List[str]:
    return list(STANDARD_CONFIGURATIONS) + [
        name for name in CONFIGURATION_REGISTRY.names()
        if name not in STANDARD_CONFIGURATIONS
    ]


def resolve_attack_configuration(
    configuration: AttackConfigurationLike,
) -> Tuple[str, SecDDRConfig]:
    """``(name, functional config)`` for anything the campaign accepts.

    Names resolve against the functional profiles first, then the
    configuration registry (projected via :func:`functional_configuration`);
    unknown names raise :class:`UnknownAttackConfigurationError` with a
    closest-match suggestion spanning both vocabularies.
    """
    if isinstance(configuration, SecDDRConfig):
        return (_functional_config_name(configuration), configuration)
    if isinstance(configuration, SystemConfiguration):
        return (configuration.name, functional_configuration(configuration))
    if configuration in STANDARD_CONFIGURATIONS:
        return (configuration, STANDARD_CONFIGURATIONS[configuration])
    if configuration in CONFIGURATION_REGISTRY:
        return (
            configuration,
            functional_configuration(CONFIGURATION_REGISTRY[configuration]),
        )
    raise UnknownAttackConfigurationError(configuration, _available_names())


def resolve_attack_configurations(
    configurations: Union[
        Mapping[str, AttackConfigurationLike], Iterable[AttackConfigurationLike]
    ],
) -> Dict[str, SecDDRConfig]:
    """Normalize a mapping or sequence of configuration-likes to name -> config.

    A mapping keeps its keys as the campaign's row names (values may still be
    names or specs); a sequence names each entry through
    :func:`resolve_attack_configuration`.
    """
    resolved: Dict[str, SecDDRConfig] = {}
    if isinstance(configurations, Mapping):
        for name, value in configurations.items():
            resolved[name] = (
                value
                if isinstance(value, SecDDRConfig)
                else resolve_attack_configuration(value)[1]
            )
        return resolved
    for value in configurations:
        name, config = resolve_attack_configuration(value)
        if name in resolved:
            # AmbiguousConfigurationError so the CLI reports this as a
            # one-line user-input error instead of a traceback.
            raise AmbiguousConfigurationError(
                "two campaign configurations resolve to the name %r; give "
                "derived specs distinct names (derive(name=...)) or pass a "
                "{name: config} mapping to name entries explicitly" % name
            )
        resolved[name] = config
    return resolved


def standard_attacks() -> List[object]:
    """A fresh instance of the paper's eight-attack battery."""
    return [
        BusReplayAttack(),
        AddressCorruptionAttack(),
        WriteDropAttack(),
        WriteToReadConversionAttack(),
        DimmSubstitutionAttack(),
        RowHammerAttack(),
        ReadTamperAttack(),
        DataRelocationAttack(),
    ]


@dataclass
class AttackCampaign:
    """Runs a set of attacks against a set of functional configurations.

    ``configurations`` may be the classic ``{name: SecDDRConfig}`` mapping or
    any sequence/mapping of :data:`AttackConfigurationLike` values -- registry
    names and derived :class:`SystemConfiguration` variants included; they are
    normalized through :func:`resolve_attack_configurations` on construction.
    """

    configurations: Union[
        Mapping[str, AttackConfigurationLike], Iterable[AttackConfigurationLike]
    ] = field(default_factory=lambda: dict(STANDARD_CONFIGURATIONS))
    attack_factory: Callable[[], List[object]] = standard_attacks

    def __post_init__(self) -> None:
        self.configurations = resolve_attack_configurations(self.configurations)

    def run(self) -> List[AttackResult]:
        """Execute every (configuration, attack) pair on a fresh memory system."""
        results: List[AttackResult] = []
        for config_name, config in self.configurations.items():
            for attack in self.attack_factory():
                memory = FunctionalMemorySystem(config=config, initial_counter=0)
                results.append(attack.run(memory, configuration=config_name))
        return results

    # ------------------------------------------------------------------
    @staticmethod
    def summarize(results: List[AttackResult]) -> Dict[str, Dict[str, str]]:
        """``{configuration: {attack: outcome}}`` summary matrix."""
        matrix: Dict[str, Dict[str, str]] = {}
        for result in results:
            matrix.setdefault(result.configuration, {})[result.attack] = result.outcome.value
        return matrix

    @staticmethod
    def format_matrix(results: List[AttackResult]) -> str:
        """Render the detection matrix as a text table."""
        matrix = AttackCampaign.summarize(results)
        attacks = sorted({r.attack for r in results})
        configs = list(matrix)
        width = max(len(a) for a in attacks) + 2
        lines = ["".ljust(width) + "  ".join(c.ljust(18) for c in configs)]
        for attack in attacks:
            row = attack.ljust(width)
            row += "  ".join(matrix[c].get(attack, "-").ljust(18) for c in configs)
            lines.append(row)
        return "\n".join(lines)


def run_standard_campaign(
    configurations: Union[
        Mapping[str, AttackConfigurationLike], Iterable[AttackConfigurationLike], None
    ] = None,
) -> List[AttackResult]:
    """Run the campaign (standard profiles by default) and return the results.

    ``configurations`` accepts everything :class:`AttackCampaign` does, so
    e.g. ``run_standard_campaign(["secddr_xts", "tdx_baseline"])`` campaigns
    against performance-registry entries directly.
    """
    if configurations is None:
        return AttackCampaign().run()
    return AttackCampaign(configurations=configurations).run()
