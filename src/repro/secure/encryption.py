"""Memory-encryption engine timing models: counter mode and AES-XTS.

The paper evaluates both encryption families because they trade security for
performance (Section IV-B):

* **Counter mode** (SGX-style): every line has an encryption counter stored
  in memory.  When the counter is available (counter-cache hit) the OTP can
  be precomputed while the data is fetched, hiding the AES latency entirely;
  when it misses, the counter must come from memory and the AES latency lands
  on the critical path.  Writes increment the counter (a dirty metadata-cache
  line that eventually writes back).
* **AES-XTS** (TME/SEV-style): no counters, no extra memory traffic, but the
  decryption latency is always on the read critical path because the
  keystream depends on the ciphertext.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.dram.commands import MetadataKind
from repro.secure.base import MetadataLayout, MetadataPath

__all__ = ["EncryptionMode", "CounterModeEncryption", "XTSEncryption", "encryption_path"]


class EncryptionMode(enum.Enum):
    """Which encryption family a configuration uses."""

    COUNTER = "ctr"
    XTS = "xts"
    NONE = "none"


@dataclass
class CounterModeEncryption:
    """Counter-mode (SGX-style) encryption engine model.

    Parameters
    ----------
    layout:
        Metadata address-space layout (where counter lines live).
    counters_per_line:
        How many per-line counters fit in one 64-byte counter line: 64 in
        the baseline (split counters), 8 or 128 for the Figure 8 packing
        sensitivity study.
    crypto_latency_cpu_cycles:
        AES latency (Table I: 40 processor cycles), paid only when the OTP
        could not be precomputed.
    """

    layout: MetadataLayout
    counters_per_line: int = 64
    crypto_latency_cpu_cycles: int = 40

    mode = EncryptionMode.COUNTER

    def counter_address(self, data_address: int) -> int:
        """Counter-line address covering ``data_address``."""
        return self.layout.counter_line_address(data_address, self.counters_per_line)

    def read_critical_latency(self, counter_hit: bool) -> float:
        """Extra CPU cycles on a demand read's critical path.

        A counter-cache hit lets the engine precompute the OTP during the
        data fetch, so decryption is a free XOR; a miss serializes OTP
        generation behind the counter fetch.
        """
        return 0.0 if counter_hit else float(self.crypto_latency_cpu_cycles)

    def write_touches(self, data_address: int) -> List[int]:
        """Metadata lines dirtied by a write (the line's counter increments)."""
        return [self.counter_address(data_address)]


@dataclass
class XTSEncryption:
    """AES-XTS (TME/SEV-style) encryption engine model.

    No counters and no metadata traffic; the decryption latency is always on
    the read critical path.  Encryption of write data happens before the
    writeback leaves the chip and is not on any critical path the core sees.
    """

    crypto_latency_cpu_cycles: int = 40

    mode = EncryptionMode.XTS

    def read_critical_latency(self) -> float:
        """Extra CPU cycles on every demand read (AES-XTS decrypt)."""
        return float(self.crypto_latency_cpu_cycles)

    def write_touches(self, data_address: int) -> List[int]:
        """XTS keeps no per-line metadata."""
        return []


def encryption_path(
    encryption: Optional[Union[CounterModeEncryption, XTSEncryption]],
    mac_cycles: float = 0.0,
) -> MetadataPath:
    """The :class:`MetadataPath` of an encryption engine (None: no encryption).

    Counter mode reads the counter line covering each access and pays the
    AES latency only after a counter miss; AES-XTS keeps no metadata and
    pays its decryption latency on every read.  ``mac_cycles`` is added to
    every read on top (InvisiMem's per-transaction channel MACs).
    """
    if encryption is None:
        return MetadataPath(extra_hit=mac_cycles, extra_miss=mac_cycles)
    if encryption.mode is EncryptionMode.COUNTER:
        return MetadataPath(
            extra_hit=encryption.read_critical_latency(True) + mac_cycles,
            extra_miss=encryption.read_critical_latency(False) + mac_cycles,
            base=encryption.layout.counter_region_base,
            lines_per_entry=encryption.counters_per_line,
            kind=MetadataKind.ENCRYPTION_COUNTER,
        )
    extra = encryption.read_critical_latency() + mac_cycles
    return MetadataPath(extra_hit=extra, extra_miss=extra)
