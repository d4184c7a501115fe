"""InvisiMem-style mutually authenticated channel baseline (paper Section VI).

InvisiMem protects the bus with per-transaction MACs verified on *both* ends:
the processor verifies read responses, and the memory-side security logic
verifies writes and re-MACs read data before sending it.  Adapting it to a
DDRx DIMM (with a trusted module) has two costs the paper models:

* **2x MAC latency on the access critical path** -- one MAC computation on
  the DIMM and one on the processor for every transfer (the "unrealistic"
  configuration keeps the channel at 3200 MT/s and pays only this);
* **a derated channel** -- gathering a whole line for memory-side MAC
  computation needs a centralized data buffer, which caps the achievable
  frequency; the "realistic" configuration runs the channel at 2400 MT/s.

Both variants are modeled here; the channel frequency is selected by the
controller configuration the factory in :mod:`repro.secure.configs` builds.
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

__all__ = ["InvisiMemSystem"]


class InvisiMemSystem(SecureMemorySystem):
    """Authenticated-channel (InvisiMem-far style) secure memory."""

    def __init__(
        self,
        controller: MemoryController,
        metadata_cache: MetadataCache | None = None,
        layout: MetadataLayout | None = None,
        crypto_latency_cpu_cycles: int = 40,
        encryption_mode: EncryptionMode = EncryptionMode.XTS,
        counters_per_line: int = 64,
        realistic: bool = True,
    ) -> None:
        super().__init__(controller, metadata_cache, layout, crypto_latency_cpu_cycles)
        self.encryption_mode = encryption_mode
        self.realistic = realistic
        variant = "realistic" if realistic else "unrealistic"
        self.name = "invisimem_%s_%s" % (variant, encryption_mode.value)
        # Memory-side integrity delegation: the MAC stored with the data in
        # memory is managed by the (trusted) module, no ECC-bus trick needed.
        self.mac_store = MacStore(layout=self.layout, placement=MacPlacement.ECC_CHIP)
        if encryption_mode is EncryptionMode.COUNTER:
            self.encryption = CounterModeEncryption(
                layout=self.layout,
                counters_per_line=counters_per_line,
                crypto_latency_cpu_cycles=crypto_latency_cpu_cycles,
            )
        else:
            self.encryption = XTSEncryption(crypto_latency_cpu_cycles=crypto_latency_cpu_cycles)
        # Every read pays the 2x per-transaction MAC latency on its critical
        # path.  Memory-side write verification happens after the burst lands
        # and is off the core's critical path (writes are posted).
        self.path = encryption_path(
            self.encryption, mac_cycles=2.0 * crypto_latency_cpu_cycles
        )

    # ------------------------------------------------------------------
    @property
    def provides_integrity(self) -> bool:
        return True

    @property
    def provides_replay_protection(self) -> bool:
        """Mutual authentication detects replays on the (trusted) channel."""
        return True

    @property
    def requires_trusted_module(self) -> bool:
        """The security argument only holds if the whole DIMM is trusted."""
        return True
