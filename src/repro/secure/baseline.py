"""Baseline secure-memory systems: encrypt-only and the TDX-like baseline.

The paper normalizes every figure to a "secure baseline that provides memory
encryption and integrity protection but lacks replay-attack protection, to
resemble Intel TDX": AES-XTS encryption with per-line MACs stored in the ECC
chips, so the MACs cost no extra traffic.  The "encrypt-only" configurations
are upper bounds that assume integrity instead of enforcing it (no MAC
verification at all); with MACs in the ECC chips the two are timing-identical
except for the verification latency, which is pipelined off the critical
path.
"""

from __future__ import annotations

from repro.cache.metadata_cache import MetadataCache
from repro.controller.memory_controller import MemoryController
from repro.secure.base import MetadataLayout, SecureMemorySystem
from repro.secure.encryption import (
    CounterModeEncryption,
    EncryptionMode,
    XTSEncryption,
    encryption_path,
)
from repro.secure.mac_store import MacPlacement, MacStore

__all__ = ["EncryptOnlySystem", "TdxBaselineSystem"]


class EncryptOnlySystem(SecureMemorySystem):
    """Encryption without any integrity enforcement (paper's upper bound).

    With counter-mode encryption the per-line counters still have to be
    fetched (through the metadata cache) and updated on writes; with AES-XTS
    there is no metadata at all and only the fixed decryption latency remains.
    """

    def __init__(
        self,
        controller: MemoryController,
        metadata_cache: MetadataCache | None = None,
        layout: MetadataLayout | None = None,
        crypto_latency_cpu_cycles: int = 40,
        encryption_mode: EncryptionMode = EncryptionMode.XTS,
        counters_per_line: int = 64,
    ) -> None:
        super().__init__(controller, metadata_cache, layout, crypto_latency_cpu_cycles)
        self.encryption_mode = encryption_mode
        self.name = "encrypt_only_%s" % encryption_mode.value
        if encryption_mode is EncryptionMode.COUNTER:
            self.encryption = CounterModeEncryption(
                layout=self.layout,
                counters_per_line=counters_per_line,
                crypto_latency_cpu_cycles=crypto_latency_cpu_cycles,
            )
        elif encryption_mode is EncryptionMode.XTS:
            self.encryption = XTSEncryption(crypto_latency_cpu_cycles=crypto_latency_cpu_cycles)
        else:
            self.encryption = None
        self.path = encryption_path(self.encryption)


class TdxBaselineSystem(EncryptOnlySystem):
    """The normalization baseline: AES-XTS + MACs in the ECC chips, no RAP.

    MAC transfer is free (ECC bus) and MAC verification is pipelined with the
    fill, so the timing matches the XTS encrypt-only system; the class exists
    so configurations, statistics and the functional model can distinguish
    "has integrity but no replay protection" from "assumes integrity".
    """

    def __init__(
        self,
        controller: MemoryController,
        metadata_cache: MetadataCache | None = None,
        layout: MetadataLayout | None = None,
        crypto_latency_cpu_cycles: int = 40,
        encryption_mode: EncryptionMode = EncryptionMode.XTS,
        counters_per_line: int = 64,
    ) -> None:
        super().__init__(
            controller,
            metadata_cache,
            layout,
            crypto_latency_cpu_cycles,
            encryption_mode=encryption_mode,
            counters_per_line=counters_per_line,
        )
        self.name = "tdx_baseline_%s" % encryption_mode.value
        self.mac_store = MacStore(layout=self.layout, placement=MacPlacement.ECC_CHIP)

    @property
    def provides_integrity(self) -> bool:
        """MACs are present and verified (unlike the encrypt-only systems)."""
        return True

    @property
    def provides_replay_protection(self) -> bool:
        """The TDX-like baseline has no replay-attack protection."""
        return False
