"""Named secure-memory configurations used throughout the evaluation.

Each entry corresponds to one bar/series in the paper's figures:

=========================  ==========================================================
Name                       Meaning
=========================  ==========================================================
``tdx_baseline``           Normalization baseline: AES-XTS + MAC-in-ECC, no RAP.
``integrity_tree_64``      64-ary counter tree over counter-mode encryption (Fig. 6).
``integrity_tree_128``     128-ary (Morphable-style) counter tree (Fig. 8).
``integrity_tree_8_hash``  8-ary hash Merkle tree over in-memory MACs (Fig. 8).
``secddr_ctr``             SecDDR with counter-mode encryption (Fig. 6).
``encrypt_only_ctr``       Counter-mode encrypt-only upper bound (Fig. 6).
``secddr_xts``             SecDDR with AES-XTS (Fig. 6).
``encrypt_only_xts``       AES-XTS encrypt-only upper bound (Fig. 6).
``invisimem_*``            Authenticated channel, realistic (2400 MT/s) or
                           unrealistic (3200 MT/s), XTS or CTR (Figs. 10/12).
``*_pack8`` / ``*_pack128``  Counter-packing variants for Figure 8.
=========================  ==========================================================

``build_configuration(name_or_spec)`` assembles a fresh memory controller
(with the right channel frequency and write-burst length), metadata cache and
secure-memory system, ready to be handed to :class:`repro.cpu.system.System`.
Every built-in mechanism is a stock :class:`~repro.secure.base.SecureMemorySystem`;
what sets them apart is their :class:`~repro.secure.base.MetadataPath`, which
:func:`metadata_path` gives for each mechanism and encryption mode.

Configurations are first-class *values*, not just names: any
:class:`SystemConfiguration` — a registry entry, a ``derive()``-d variant, or
one constructed from scratch — can be passed wherever a name is accepted
(``build_configuration``, ``run_simulation``, ``run_comparison``, the sweeps,
:class:`repro.api.Session`).  User-defined mechanisms plug in through
:meth:`ConfigurationRegistry.register_mechanism`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro.cache.metadata_cache import MetadataCache
from repro.controller.memory_controller import ControllerConfig, MemoryController
from repro.dram.timing import DDR4_2400, DDR4_3200, DDR5_4800, DDRTimingParameters
from repro.errors import UnknownConfigurationError, UnknownMechanismError
from repro.secure.base import MetadataLayout, MetadataPath, SecureMemorySystem
from repro.secure.integrity_tree import IntegrityTree, TreeGeometry, hash_merkle_tree_geometry

__all__ = [
    "EncryptionMode",
    "SystemConfiguration",
    "ConfigurationLike",
    "ConfigurationRegistry",
    "MechanismFactory",
    "CONFIGURATIONS",
    "REGISTRY",
    "configuration_names",
    "resolve_configuration",
    "register_configuration",
    "register_mechanism",
    "build_configuration",
    "metadata_path",
    "PROTECTED_MEMORY_BYTES",
    "CRYPTO_LATENCY_CPU_CYCLES",
]

#: Paper Table I: 16 GB of protected DRAM.
PROTECTED_MEMORY_BYTES = 16 * 2**30
#: Paper Table I: 40 processor cycles for encryption and MAC.
CRYPTO_LATENCY_CPU_CYCLES = 40
#: DDR4 write-burst occupancy with eWCRC (BL10 -> 5 DRAM cycles).
SECDDR_WRITE_BURST_CYCLES = 5
#: DDR5 write-burst occupancy with eWCRC (BL18 -> 9 DRAM cycles).
SECDDR_WRITE_BURST_CYCLES_DDR5 = 9
#: Eight 8-byte MACs share one in-memory MAC line (hash-tree designs).
MACS_PER_LINE = 8


class EncryptionMode(enum.Enum):
    """Which encryption family a configuration uses (Section IV-B).

    Counter mode (SGX-style) keeps a per-line counter in memory: with the
    counter cached, the pad is computed while the data is fetched; a counter
    miss puts the AES latency on the read.  AES-XTS (TME/SEV-style) keeps no
    metadata but always pays the decryption, since its keystream depends on
    the ciphertext.
    """

    COUNTER = "ctr"
    XTS = "xts"
    NONE = "none"


@dataclass(frozen=True)
class SystemConfiguration:
    """Static description of one evaluated configuration."""

    name: str
    description: str
    mechanism: str  # built-ins: "none", "tdx_baseline", "tree", "hash_tree", "secddr", "invisimem"
    encryption: EncryptionMode
    timing: DDRTimingParameters = DDR4_3200
    tree_arity: Optional[int] = None
    counters_per_line: int = 64
    write_burst_cycles: Optional[int] = None
    replay_protection: bool = False
    figure: str = ""

    @property
    def uses_extended_write_burst(self) -> bool:
        return self.write_burst_cycles is not None and self.write_burst_cycles > self.timing.burst_cycles_write

    def derive(self, **overrides) -> "SystemConfiguration":
        """A new configuration equal to this one with ``overrides`` applied.

        Unless an explicit ``name`` override is given, the derived
        configuration names itself after its parent plus the overridden
        fields (``secddr_ctr+tree_arity=32``), so distinct variants stay
        distinguishable in tables and progress output.  Derived
        configurations need no registration: every entry point accepts them
        directly, and result-cache keys fingerprint the full spec, so two
        different derivations can never collide in the cache.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise TypeError(
                "unknown SystemConfiguration field(s) %s; valid fields: %s"
                % (", ".join(unknown), ", ".join(sorted(valid)))
            )
        if "name" not in overrides:
            summary = ",".join(
                "%s=%s" % (key, _describe_value(value))
                for key, value in sorted(overrides.items())
            )
            overrides["name"] = "%s+%s" % (self.name, summary) if summary else self.name
        return replace(self, **overrides)


def _describe_value(value: object) -> str:
    """Short, stable rendering of an override value for derived names."""
    if isinstance(value, EncryptionMode):
        return value.value
    if isinstance(value, DDRTimingParameters):
        return value.name
    return str(value)


def _cfg(**kwargs) -> SystemConfiguration:
    return SystemConfiguration(**kwargs)


#: Every named configuration, keyed by name.
CONFIGURATIONS: Dict[str, SystemConfiguration] = {
    c.name: c
    for c in [
        _cfg(
            name="tdx_baseline",
            description="TDX-like baseline: AES-XTS + MAC in ECC chips, no replay protection",
            mechanism="tdx_baseline",
            encryption=EncryptionMode.XTS,
            replay_protection=False,
            figure="normalization baseline",
        ),
        _cfg(
            name="integrity_tree_64",
            description="64-ary counter tree over counter-mode encryption",
            mechanism="tree",
            encryption=EncryptionMode.COUNTER,
            tree_arity=64,
            counters_per_line=64,
            replay_protection=True,
            figure="Fig. 6 / Fig. 8",
        ),
        _cfg(
            name="integrity_tree_128",
            description="128-ary (Morphable-style) counter tree",
            mechanism="tree",
            encryption=EncryptionMode.COUNTER,
            tree_arity=128,
            counters_per_line=128,
            replay_protection=True,
            figure="Fig. 8",
        ),
        _cfg(
            name="integrity_tree_8_hash",
            description="8-ary hash Merkle tree over in-memory MACs (AES-XTS data)",
            mechanism="hash_tree",
            encryption=EncryptionMode.XTS,
            tree_arity=8,
            replay_protection=True,
            figure="Fig. 8",
        ),
        _cfg(
            name="secddr_ctr",
            description="SecDDR with counter-mode encryption (E-MAC + eWCRC)",
            mechanism="secddr",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=64,
            write_burst_cycles=SECDDR_WRITE_BURST_CYCLES,
            replay_protection=True,
            figure="Fig. 6 / Fig. 12",
        ),
        _cfg(
            name="encrypt_only_ctr",
            description="Counter-mode encrypt-only upper bound (assumes integrity)",
            mechanism="none",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=64,
            replay_protection=False,
            figure="Fig. 6 / Fig. 12",
        ),
        _cfg(
            name="secddr_xts",
            description="SecDDR with AES-XTS encryption (E-MAC + eWCRC)",
            mechanism="secddr",
            encryption=EncryptionMode.XTS,
            write_burst_cycles=SECDDR_WRITE_BURST_CYCLES,
            replay_protection=True,
            figure="Fig. 6 / Fig. 10",
        ),
        _cfg(
            name="encrypt_only_xts",
            description="AES-XTS encrypt-only upper bound (assumes integrity)",
            mechanism="none",
            encryption=EncryptionMode.XTS,
            replay_protection=False,
            figure="Fig. 6 / Fig. 10",
        ),
        _cfg(
            name="invisimem_unrealistic_xts",
            description="InvisiMem-style channel at full 3200 MT/s (2x MAC latency)",
            mechanism="invisimem",
            encryption=EncryptionMode.XTS,
            replay_protection=True,
            figure="Fig. 10",
        ),
        _cfg(
            name="invisimem_realistic_xts",
            description="InvisiMem-style channel derated to 2400 MT/s",
            mechanism="invisimem",
            encryption=EncryptionMode.XTS,
            timing=DDR4_2400,
            replay_protection=True,
            figure="Fig. 10",
        ),
        _cfg(
            name="invisimem_unrealistic_ctr",
            description="InvisiMem-style channel at 3200 MT/s, counter-mode encryption",
            mechanism="invisimem",
            encryption=EncryptionMode.COUNTER,
            replay_protection=True,
            figure="Fig. 12",
        ),
        _cfg(
            name="invisimem_realistic_ctr",
            description="InvisiMem-style channel at 2400 MT/s, counter-mode encryption",
            mechanism="invisimem",
            encryption=EncryptionMode.COUNTER,
            timing=DDR4_2400,
            replay_protection=True,
            figure="Fig. 12",
        ),
        # Figure 8 counter-packing / arity sensitivity variants.
        _cfg(
            name="integrity_tree_8",
            description="8-ary counter tree (8 counters per line)",
            mechanism="tree",
            encryption=EncryptionMode.COUNTER,
            tree_arity=8,
            counters_per_line=8,
            replay_protection=True,
            figure="Fig. 8",
        ),
        _cfg(
            name="secddr_ctr_pack8",
            description="SecDDR, counter mode with 8 counters per line",
            mechanism="secddr",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=8,
            write_burst_cycles=SECDDR_WRITE_BURST_CYCLES,
            replay_protection=True,
            figure="Fig. 8",
        ),
        _cfg(
            name="encrypt_only_ctr_pack8",
            description="Counter-mode encrypt-only with 8 counters per line",
            mechanism="none",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=8,
            replay_protection=False,
            figure="Fig. 8",
        ),
        _cfg(
            name="secddr_ctr_pack128",
            description="SecDDR, counter mode with 128 counters per line",
            mechanism="secddr",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=128,
            write_burst_cycles=SECDDR_WRITE_BURST_CYCLES,
            replay_protection=True,
            figure="Fig. 8",
        ),
        _cfg(
            name="encrypt_only_ctr_pack128",
            description="Counter-mode encrypt-only with 128 counters per line",
            mechanism="none",
            encryption=EncryptionMode.COUNTER,
            counters_per_line=128,
            replay_protection=False,
            figure="Fig. 8",
        ),
        # DDR5 variants (paper Section III-B / V-B discussion: the eWCRC
        # burst extension is relatively smaller on DDR5, BL16 -> BL18).
        _cfg(
            name="tdx_baseline_ddr5",
            description="TDX-like baseline on a DDR5-4800 channel",
            mechanism="tdx_baseline",
            encryption=EncryptionMode.XTS,
            timing=DDR5_4800,
            replay_protection=False,
            figure="write-burst ablation",
        ),
        _cfg(
            name="secddr_xts_ddr5",
            description="SecDDR with AES-XTS on a DDR5-4800 channel (BL18 writes)",
            mechanism="secddr",
            encryption=EncryptionMode.XTS,
            timing=DDR5_4800,
            write_burst_cycles=SECDDR_WRITE_BURST_CYCLES_DDR5,
            replay_protection=True,
            figure="write-burst ablation",
        ),
        _cfg(
            name="encrypt_only_xts_ddr5",
            description="AES-XTS encrypt-only on a DDR5-4800 channel",
            mechanism="none",
            encryption=EncryptionMode.XTS,
            timing=DDR5_4800,
            replay_protection=False,
            figure="write-burst ablation",
        ),
    ]
}


#: Anything the execution layer accepts as "a configuration".
ConfigurationLike = Union[str, SystemConfiguration]

#: A mechanism factory assembles the secure-memory system for one spec.  The
#: controller and metadata cache are freshly built per call by
#: :func:`build_configuration`, so factories never share mutable state.
MechanismFactory = Callable[..., SecureMemorySystem]


class ConfigurationRegistry(Mapping):
    """Named configurations plus the mechanism factories that build them.

    The registry is a mapping from configuration name to
    :class:`SystemConfiguration` (so ``registry["secddr_ctr"]``, iteration,
    and ``in`` all work), extended with:

    * :meth:`register` — add a user-defined named configuration.
    * :meth:`register_mechanism` — plug in a factory for a new ``mechanism``
      string, making any spec that references it buildable through every
      entry point (``run_comparison``, sweeps, CLI, :class:`repro.api.Session`).
    * :meth:`resolve` — turn a name *or* an unregistered spec into a spec.
    """

    def __init__(
        self,
        specs: Dict[str, SystemConfiguration],
        mechanisms: Dict[str, MechanismFactory],
        mechanism_tokens: Optional[Dict[str, str]] = None,
    ) -> None:
        self._specs = specs
        self._mechanisms = mechanisms
        self._mechanism_tokens = mechanism_tokens if mechanism_tokens is not None else {}

    # -- mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> SystemConfiguration:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownConfigurationError(name, self._specs) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    # -- registration --------------------------------------------------
    def register(
        self, spec: SystemConfiguration, replace_existing: bool = False
    ) -> SystemConfiguration:
        """Add ``spec`` under ``spec.name``; returns the spec for chaining."""
        if not isinstance(spec, SystemConfiguration):
            raise TypeError("register() takes a SystemConfiguration, got %r" % (spec,))
        if spec.name in self._specs and not replace_existing:
            raise ValueError(
                "configuration %r is already registered; pass replace_existing=True "
                "to overwrite it" % spec.name
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a named configuration (unknown names raise)."""
        if name not in self._specs:
            raise UnknownConfigurationError(name, self._specs)
        del self._specs[name]

    def register_mechanism(
        self,
        name: str,
        factory: MechanismFactory,
        cache_token: str,
        replace_existing: bool = False,
    ) -> None:
        """Register ``factory`` to build specs whose ``mechanism == name``.

        The factory is called as ``factory(spec, controller, metadata_cache,
        layout, crypto_latency_cpu_cycles, protected_bytes)``, the last two
        being :data:`CRYPTO_LATENCY_CPU_CYCLES` and
        :data:`PROTECTED_MEMORY_BYTES`, and must return a
        :class:`~repro.secure.base.SecureMemorySystem`; a stock one with its
        own :class:`~repro.secure.base.MetadataPath` runs on every engine.
        ``cache_token`` is mandatory: it stands in for the factory's code in
        result-cache keys (a spec only *names* its mechanism), so bump it
        whenever the factory's timing behaviour changes — otherwise the
        cache would silently serve results simulated by the old factory.
        """
        if not cache_token:
            raise ValueError("custom mechanism %r needs a non-empty cache_token" % name)
        if name in self._mechanisms and not replace_existing:
            raise ValueError(
                "mechanism %r already has a factory; pass replace_existing=True "
                "to overwrite it" % name
            )
        self._mechanisms[name] = factory
        self._mechanism_tokens[name] = cache_token

    def mechanism_names(self) -> List[str]:
        return list(self._mechanisms)

    def mechanism_cache_token(self, name: str) -> Optional[str]:
        """The cache identity of mechanism ``name``.

        Built-in mechanisms return None (their behaviour is versioned by
        ``CACHE_SCHEMA_VERSION``); user-registered ones return the explicit
        token supplied at registration.
        """
        return self._mechanism_tokens.get(name)

    def mechanism_factory(self, name: str) -> MechanismFactory:
        try:
            return self._mechanisms[name]
        except KeyError:
            raise UnknownMechanismError(name, self._mechanisms) from None

    # -- lookup --------------------------------------------------------
    def names(self) -> List[str]:
        return list(self._specs)

    def resolve(self, configuration: ConfigurationLike) -> SystemConfiguration:
        """The spec for ``configuration`` (a registered name, or a spec as-is)."""
        if isinstance(configuration, SystemConfiguration):
            return configuration
        return self[configuration]


#: The built-in ``SystemConfiguration.mechanism`` values.  ``none`` is the
#: encrypt-only upper bound; the TDX-like baseline has its own string, so
#: renaming a spec with ``derive(name=...)`` never changes what it builds.
BUILTIN_MECHANISMS = ("tree", "hash_tree", "secddr", "invisimem", "none", "tdx_baseline")


def metadata_path(spec: SystemConfiguration) -> MetadataPath:
    """What one demand access costs under ``spec``'s built-in mechanism.

    Reads the spec's ``mechanism``, ``encryption``, ``counters_per_line``
    and ``tree_arity``; ``docs/architecture.md`` tabulates the result for
    every mechanism and encryption mode.

    * Counter mode reads the counter line covering ``counters_per_line``
      data lines and pays :data:`CRYPTO_LATENCY_CPU_CYCLES` only after a
      counter miss; AES-XTS reads no metadata and pays them on every read.
    * ``none`` and ``tdx_baseline`` take the spec's mode as it is (the
      baseline's MACs ride the ECC chips and verify off the critical path).
      ``secddr`` and ``invisimem`` decrypt as AES-XTS under ``NONE``.
      SecDDR's E-MAC pads are precomputed, so it adds nothing here; its
      cost is the controller's longer eWCRC write burst.
    * ``invisimem`` adds two MAC computations, one on each end of the
      channel, to every read.
    * ``tree`` always uses counter mode and, after a counter miss, walks a
      ``tree_arity``-ary (default 64) counter tree over the counter lines.
    * ``hash_tree`` always uses AES-XTS, reads the in-memory MAC line
      covering :data:`MACS_PER_LINE` data lines and, after a miss there,
      walks a ``tree_arity``-ary (default 8) hash tree over the MAC lines.
    """
    mechanism = spec.mechanism
    if mechanism not in BUILTIN_MECHANISMS:
        raise UnknownMechanismError(mechanism, BUILTIN_MECHANISMS)
    layout = MetadataLayout()
    mode = spec.encryption
    if mechanism == "tree":
        mode = EncryptionMode.COUNTER
    elif mechanism == "hash_tree" or (
        mechanism in ("secddr", "invisimem") and mode is EncryptionMode.NONE
    ):
        mode = EncryptionMode.XTS
    crypto = float(CRYPTO_LATENCY_CPU_CYCLES)
    mac = 2 * crypto if mechanism == "invisimem" else 0.0
    if mode is EncryptionMode.COUNTER:
        path = MetadataPath(
            extra_hit=mac,
            extra_miss=crypto + mac,
            base=layout.counter_region_base,
            lines_per_entry=spec.counters_per_line,
        )
    else:
        extra = (crypto if mode is EncryptionMode.XTS else 0.0) + mac
        path = MetadataPath(extra_hit=extra, extra_miss=extra)
    if mechanism == "tree":
        data_lines = PROTECTED_MEMORY_BYTES // layout.line_bytes
        counter_lines = (data_lines + spec.counters_per_line - 1) // spec.counters_per_line
        geometry = TreeGeometry.build(spec.tree_arity or 64, counter_lines)
        path = replace(path, tree=IntegrityTree(geometry, layout))
    elif mechanism == "hash_tree":
        geometry = hash_merkle_tree_geometry(
            PROTECTED_MEMORY_BYTES, arity=spec.tree_arity or 8, macs_per_line=MACS_PER_LINE
        )
        path = replace(
            path,
            base=layout.mac_region_base,
            lines_per_entry=MACS_PER_LINE,
            tree=IntegrityTree(geometry, layout),
        )
    return path


def _build_builtin(spec, controller, metadata_cache, layout, crypto_latency, protected_bytes):
    return SecureMemorySystem(controller, metadata_cache, layout, metadata_path(spec))


#: Mechanism factories keyed by ``SystemConfiguration.mechanism``.
_MECHANISM_BUILDERS: Dict[str, MechanismFactory] = {
    name: _build_builtin for name in BUILTIN_MECHANISMS
}

#: Cache tokens of user-registered mechanisms (built-ins have none).
_MECHANISM_CACHE_TOKENS: Dict[str, str] = {}

#: The default registry.  It wraps (and stays in sync with) ``CONFIGURATIONS``.
REGISTRY = ConfigurationRegistry(CONFIGURATIONS, _MECHANISM_BUILDERS, _MECHANISM_CACHE_TOKENS)

#: Module-level conveniences mirroring the registry methods.
register_configuration = REGISTRY.register
register_mechanism = REGISTRY.register_mechanism
resolve_configuration = REGISTRY.resolve


def configuration_names() -> List[str]:
    """All configuration names in declaration order."""
    return list(CONFIGURATIONS)


def build_configuration(
    configuration: ConfigurationLike,
    metadata_cache_bytes: int = 128 * 1024,
) -> SecureMemorySystem:
    """Assemble a fresh secure-memory system for ``configuration``.

    ``configuration`` may be a registered name or any
    :class:`SystemConfiguration` value (e.g. one produced by
    :meth:`SystemConfiguration.derive`).  A new memory controller, channel,
    and metadata cache are created on each call so simulations never share
    state; the spec's ``mechanism`` string selects the factory, which may be
    a user-registered one.
    """
    spec = REGISTRY.resolve(configuration)
    controller = MemoryController(
        ControllerConfig(
            timing=spec.timing,
            write_burst_cycles=spec.write_burst_cycles,
        )
    )
    metadata_cache = MetadataCache(size_bytes=metadata_cache_bytes)
    layout = MetadataLayout()
    factory = REGISTRY.mechanism_factory(spec.mechanism)
    return factory(
        spec, controller, metadata_cache, layout, CRYPTO_LATENCY_CPU_CYCLES, PROTECTED_MEMORY_BYTES
    )
