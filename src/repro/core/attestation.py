"""Boot-time attestation and channel provisioning (SecDDR Section III-F).

At every power-up or DIMM replacement the processor authenticates each rank's
ECC chip through its CA-issued certificate, agrees on a fresh transaction key
``Kt`` via an authenticated key exchange, chooses the initial transaction
counter, and actively clears memory so that a substituted DIMM can never
carry pre-boot state into the new session.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dimm_logic import EccChipLogic
from repro.core.processor_engine import ProcessorEngine
from repro.crypto.keyexchange import (
    AttestationError,
    Certificate,
    CertificateAuthority,
    EndorsementKeyPair,
    KeyExchangeParticipant,
    authenticated_key_exchange,
)

__all__ = ["RankIdentity", "AttestationResult", "provision_rank_identity", "attest_and_provision"]


@dataclass
class RankIdentity:
    """Manufacturing-time identity of one rank's ECC chip."""

    rank: int
    endorsement: EndorsementKeyPair
    certificate: Certificate


@dataclass
class AttestationResult:
    """Outcome of attesting a whole DIMM (all ranks)."""

    transaction_keys: Dict[int, bytes] = field(default_factory=dict)
    initial_counters: Dict[int, int] = field(default_factory=dict)
    memory_cleared: bool = False

    @property
    def ranks(self) -> List[int]:
        return sorted(self.transaction_keys)


def provision_rank_identity(rank: int, ca: CertificateAuthority, dimm_serial: str = "dimm-0") -> RankIdentity:
    """Embed endorsement keys in a rank's ECC chip and issue its certificate.

    This models the manufacturing step: ``EKs`` never leaves the chip, the CA
    (memory vendor or third party) signs a certificate binding the DIMM
    identity to the endorsement public key.
    """
    endorsement = EndorsementKeyPair.generate()
    certificate = ca.issue("%s/rank%d" % (dimm_serial, rank), endorsement)
    return RankIdentity(rank=rank, endorsement=endorsement, certificate=certificate)


def attest_and_provision(
    processor: ProcessorEngine,
    ecc_chips: Dict[int, EccChipLogic],
    identities: Dict[int, RankIdentity],
    ca: CertificateAuthority,
    clear_memory: bool = True,
    initial_counter: Optional[int] = None,
) -> AttestationResult:
    """Run attestation for every rank and install the E-MAC channels.

    Parameters
    ----------
    processor:
        The processor engine to provision.
    ecc_chips:
        The per-rank ECC-chip logic blocks.
    identities:
        Manufacturing-time identities (endorsement keys + certificates).
    ca:
        The certificate authority used to validate certificates.
    clear_memory:
        Whether to actively clear memory (required at boot / after DIMM
        replacement to defeat stale pre-boot state).
    initial_counter:
        Optional fixed initial counter (tests); by default a fresh random
        ``counter_bits - 1``-bit value per rank (63 bits at the default
        64-bit counter), as the paper allows.

    Raises
    ------
    AttestationError
        If any rank's certificate or key-exchange signature fails to verify
        (e.g. a counterfeit or revoked DIMM).
    """
    result = AttestationResult()
    for rank, chip in sorted(ecc_chips.items()):
        if rank not in identities:
            raise AttestationError("no identity provisioned for rank %d" % rank)
        identity = identities[rank]
        processor_participant = KeyExchangeParticipant(name="processor")
        dimm_participant = KeyExchangeParticipant(
            name="rank%d" % rank, endorsement=identity.endorsement
        )
        kt_processor, kt_dimm = authenticated_key_exchange(
            processor_participant, dimm_participant, identity.certificate, ca
        )
        if kt_processor != kt_dimm:
            raise AttestationError("key exchange derived different keys for rank %d" % rank)

        counter_value = (
            initial_counter
            if initial_counter is not None
            else secrets.randbits(processor.config.counter_bits - 1)
        )
        processor.install_rank_channel(rank, kt_processor, counter_value)
        chip.install_channel(kt_dimm, counter_value)
        result.transaction_keys[rank] = kt_processor
        result.initial_counters[rank] = counter_value

    if clear_memory:
        # All ranks share the DIMM's backing store in this model.
        stores = {id(chip.storage): chip.storage for chip in ecc_chips.values()}
        for store in stores.values():
            store.clear()
        result.memory_cleared = True
    return result
