"""SecDDR timing model: E-MAC protected bus + encrypted eWCRC.

SecDDR adds replay-attack protection on top of the TDX-like baseline without
an integrity tree, so its timing profile is almost identical to the matching
encrypt-only system:

* MACs stay in the ECC chips (no extra transfer) and are XOR-encrypted with a
  precomputed one-time pad, so E-MAC generation/verification adds **nothing**
  to the read critical path.
* The encrypted eWCRC requires the longer DDR write burst (BL8 -> BL10 on
  DDR4, BL16 -> BL18 on DDR5), which the memory controller models as one
  extra data-bus cycle per write -- the only measurable overhead, visible on
  write-intensive workloads such as lbm.
* Counter-mode SecDDR additionally keeps the baseline's encryption-counter
  traffic; the counters' integrity is protected by per-line MACs just like
  data (Section IV-B), so no tree is needed over them.

The functional (bit-accurate) SecDDR protocol lives in :mod:`repro.core`;
this module only captures the performance behaviour.
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

__all__ = ["SecDDRSystem", "SECDDR_WRITE_BURST_BEATS_DDR4", "SECDDR_WRITE_BURST_BEATS_DDR5"]

#: eWCRC-extended write burst lengths (paper Section III-B).
SECDDR_WRITE_BURST_BEATS_DDR4 = 10
SECDDR_WRITE_BURST_BEATS_DDR5 = 18


class SecDDRSystem(SecureMemorySystem):
    """SecDDR with counter-mode or AES-XTS data encryption.

    The controller this system wraps must be configured with the extended
    write burst (``write_burst_cycles=5`` on DDR4); the factory functions in
    :mod:`repro.secure.configs` take care of that.  E-MAC OTPs are assumed
    precomputable (the paper's design goal), so no per-access latency is
    added beyond the chosen encryption mode's.
    """

    def __init__(
        self,
        controller: MemoryController,
        metadata_cache: MetadataCache | None = None,
        layout: MetadataLayout | None = None,
        crypto_latency_cpu_cycles: int = 40,
        encryption_mode: EncryptionMode = EncryptionMode.XTS,
        counters_per_line: int = 64,
        ewcrc_enabled: bool = True,
    ) -> None:
        super().__init__(controller, metadata_cache, layout, crypto_latency_cpu_cycles)
        self.encryption_mode = encryption_mode
        self.ewcrc_enabled = ewcrc_enabled
        self.name = "secddr_%s" % encryption_mode.value
        self.mac_store = MacStore(layout=self.layout, placement=MacPlacement.ECC_CHIP)
        if encryption_mode is EncryptionMode.COUNTER:
            self.encryption = CounterModeEncryption(
                layout=self.layout,
                counters_per_line=counters_per_line,
                crypto_latency_cpu_cycles=crypto_latency_cpu_cycles,
            )
        else:
            self.encryption = XTSEncryption(crypto_latency_cpu_cycles=crypto_latency_cpu_cycles)
        # E-MAC decryption is a XOR with a precomputed OTP: free.  The eWCRC
        # travels in the extended burst; its cost is the extra bus cycle the
        # controller configuration already charges.
        self.path = encryption_path(self.encryption)

    # ------------------------------------------------------------------
    @property
    def provides_integrity(self) -> bool:
        return True

    @property
    def provides_replay_protection(self) -> bool:
        """SecDDR's whole point: replay protection without a tree."""
        return True

    @property
    def write_burst_beats(self) -> int:
        """DDR4 write burst length implied by this configuration."""
        return SECDDR_WRITE_BURST_BEATS_DDR4 if self.ewcrc_enabled else 8
