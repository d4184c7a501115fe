"""A complete functional SecDDR memory system.

Composes the processor engine, a bus (where an adversary may interpose), the
per-rank ECC-chip logic and the byte-accurate DRAM storage into a system that
software can simply ``write(address, data)`` / ``read(address)`` against.
The attack framework and the examples drive this class; its job is to make
the protocol's end-to-end behaviour -- including every detection path the
paper describes -- observable and testable.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.attestation import (
    AttestationResult,
    RankIdentity,
    attest_and_provision,
    provision_rank_identity,
)
from repro.core.config import SecDDRConfig
from repro.core.dimm_logic import EccChipLogic, WriteRejected
from repro.core.processor_engine import ProcessorEngine
from repro.core.protocol import ReadCommand, ReadResponse, WriteTransaction
from repro.crypto.keyexchange import CertificateAuthority
from repro.dram.address_mapping import AddressMapping
from repro.dram.dimm import DimmTopology
from repro.dram.storage import DramStorage

__all__ = ["MemoryBus", "FunctionalMemorySystem"]


class MemoryBus:
    """The off-chip interconnect between the processor and the DIMM.

    An adversary object (duck-typed; see :mod:`repro.attacks.adversary`) may
    be attached.  Its hooks receive each transaction and may return a
    modified copy, or ``None`` to drop it -- exactly the capabilities of a
    physical interposer or a malicious on-DIMM component.
    """

    def __init__(self) -> None:
        self.adversary = None
        self.writes_observed = 0
        self.reads_observed = 0

    # ------------------------------------------------------------------
    def attach_adversary(self, adversary) -> None:
        """Attach an interposer implementing any of the intercept hooks."""
        self.adversary = adversary

    def detach_adversary(self) -> None:
        self.adversary = None

    # ------------------------------------------------------------------
    def deliver_write(self, transaction: WriteTransaction) -> Optional[WriteTransaction]:
        """Carry a write to the DIMM; the adversary may tamper or drop it."""
        self.writes_observed += 1
        if self.adversary is not None and hasattr(self.adversary, "intercept_write"):
            return self.adversary.intercept_write(transaction)
        return transaction

    def deliver_read_command(self, command: ReadCommand) -> Optional[ReadCommand]:
        """Carry a read command to the DIMM."""
        self.reads_observed += 1
        if self.adversary is not None and hasattr(self.adversary, "intercept_read_command"):
            return self.adversary.intercept_read_command(command)
        return command

    def deliver_read_response(self, command: ReadCommand, response: ReadResponse) -> ReadResponse:
        """Carry a read response back to the processor."""
        if self.adversary is not None and hasattr(self.adversary, "intercept_read_response"):
            return self.adversary.intercept_read_response(command, response)
        return response


@dataclass
class MemorySystemStats:
    """Counters of interest to the attack campaigns."""

    writes: int = 0
    reads: int = 0
    dropped_writes: int = 0
    rejected_writes: int = 0
    dropped_reads: int = 0


class FunctionalMemorySystem:
    """Processor engine + bus + DIMM (ECC-chip logic, storage), attested and ready."""

    def __init__(
        self,
        config: Optional[SecDDRConfig] = None,
        mapping: Optional[AddressMapping] = None,
        num_ranks: int = 2,
        capacity_bytes: int = 16 * 2**30,
        initial_counter: Optional[int] = 0,
        trusted_module: bool = False,
    ) -> None:
        self.config = config or SecDDRConfig()
        self.mapping = mapping or AddressMapping(ranks=num_ranks)
        self.storage = DramStorage(capacity_bytes=capacity_bytes)
        self.bus = MemoryBus()
        self.topology = DimmTopology(
            ranks=num_ranks,
            trusted_module=trusted_module,
            secddr_enabled=self.config.emac_enabled,
        )
        self.processor = ProcessorEngine(config=self.config, mapping=self.mapping)
        self.ecc_chips: Dict[int, EccChipLogic] = {
            rank: EccChipLogic(rank, self.storage, self.mapping, self.config)
            for rank in range(num_ranks)
        }
        self.stats = MemorySystemStats()

        # Manufacturing-time identities + boot-time attestation.
        self.certificate_authority = CertificateAuthority()
        self.identities: Dict[int, RankIdentity] = {
            rank: provision_rank_identity(rank, self.certificate_authority)
            for rank in range(num_ranks)
        }
        self.attestation: AttestationResult = AttestationResult()
        if self.config.emac_enabled:
            self.attestation = attest_and_provision(
                self.processor,
                self.ecc_chips,
                self.identities,
                self.certificate_authority,
                clear_memory=True,
                initial_counter=initial_counter,
            )

    def copy(self) -> "FunctionalMemorySystem":
        """An independent system in this one's state, without re-attesting.

        SecDDR attests once per power-up (Section III-F), and a campaign run
        does the same: it provisions one system per configuration and runs
        every attack or scenario on a copy.  The copy keeps this system's
        ``Kt``, data and MAC keys, counters and stored lines.  Its ECC chips
        share the copy's own storage.  The copy shares ``config``,
        ``mapping`` and ``topology`` with this system and its other copies,
        because only their constructors assign them; everything mutable
        (storage, counters, keys, bus, stats, certificate authority,
        identities and attestation) is copied.
        """
        shared = (self.config, self.mapping, self.topology)
        return deepcopy(self, {id(part): part for part in shared})

    # ------------------------------------------------------------------
    def attach_adversary(self, adversary) -> None:
        """Place an adversary on the memory bus."""
        self.bus.attach_adversary(adversary)

    def detach_adversary(self) -> None:
        self.bus.detach_adversary()

    def _ecc_chip_for(self, rank: int) -> EccChipLogic:
        if rank not in self.ecc_chips:
            raise ValueError("rank %d does not exist on this DIMM" % rank)
        return self.ecc_chips[rank]

    # ------------------------------------------------------------------
    # Software-visible memory operations
    # ------------------------------------------------------------------
    def write(self, address: int, plaintext: bytes) -> None:
        """Write a 64-byte line; silently tolerates attacks that SecDDR defers.

        A write whose eWCRC check fails on the DIMM is counted (the chip
        would raise ALERT_n) and not committed; a write dropped on the bus
        never reaches the DIMM.  Either way the corruption surfaces as an
        :class:`~repro.core.protocol.IntegrityViolation` on a later read,
        exactly as the paper describes the deferred-verification model.
        """
        self.stats.writes += 1
        transaction = self.processor.make_write(address, plaintext)
        delivered = self.bus.deliver_write(transaction)
        if delivered is None:
            self.stats.dropped_writes += 1
            return
        chip = self._ecc_chip_for(delivered.command.rank)
        try:
            chip.handle_write(delivered)
        except WriteRejected:
            self.stats.rejected_writes += 1

    def read(self, address: int) -> bytes:
        """Read a 64-byte line, verifying its integrity and freshness.

        Raises :class:`~repro.core.protocol.IntegrityViolation` when the MAC
        check fails (replay, stale data, tampering, counter desync).
        """
        self.stats.reads += 1
        command = self.processor.make_read_command(address)
        delivered = self.bus.deliver_read_command(command)
        if delivered is None:
            self.stats.dropped_reads += 1
            raise TimeoutError("read command for 0x%x was dropped on the bus" % address)
        chip = self._ecc_chip_for(delivered.rank)
        response = chip.handle_read(delivered)
        response = self.bus.deliver_read_response(command, response)
        return self.processor.verify_read(address, response)

    # ------------------------------------------------------------------
    # Maintenance operations used by attack / recovery scenarios
    # ------------------------------------------------------------------
    def reattest(self, clear_memory: bool = True, initial_counter: Optional[int] = None) -> AttestationResult:
        """Re-run attestation (reboot / legitimate DIMM replacement).

        Besides re-running the key exchange and clearing memory, the
        processor's ephemeral data/MAC keys are rotated (as SGX/TDX engines
        do at boot), so stale pre-boot state can never verify again even if
        an attacker re-injects it after the clear.
        """
        self.processor.rotate_keys()
        if not self.config.emac_enabled:
            if clear_memory:
                self.storage.clear()
            return AttestationResult(memory_cleared=clear_memory)
        self.attestation = attest_and_provision(
            self.processor,
            self.ecc_chips,
            self.identities,
            self.certificate_authority,
            clear_memory=clear_memory,
            initial_counter=initial_counter,
        )
        return self.attestation

    def counters_in_sync(self) -> bool:
        """Whether every rank's processor/DIMM counter pair still agrees."""
        if not self.config.emac_enabled:
            return True
        return all(
            self.processor.counter_for_rank(rank).in_sync_with(chip.counter)
            for rank, chip in self.ecc_chips.items()
        )
