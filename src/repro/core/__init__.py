"""SecDDR core: the paper's primary contribution, as a functional model.

This package implements the SecDDR protocol bit-accurately, using the real
cryptographic primitives in :mod:`repro.crypto`:

* :mod:`repro.core.config` -- protocol parameters (MAC width, counter width,
  counter parity rule, eWCRC enablement, E-MAC enablement).
* :mod:`repro.core.transaction_counter` -- the per-rank transaction counter
  ``Ct`` with the even-for-reads / odd-for-writes rule.
* :mod:`repro.core.emac` -- E-MAC generation and recovery (MAC XOR OTP).
* :mod:`repro.core.ewcrc` -- the encrypted extended write CRC.
* :mod:`repro.core.protocol` -- the bus-level transaction records an
  adversary can observe or tamper with.
* :mod:`repro.core.processor_engine` -- the processor-side memory encryption
  engine extended with SecDDR logic.
* :mod:`repro.core.dimm_logic` -- the security logic placed in the ECC
  chip(s) (or the ECC data buffer for trusted DIMMs).
* :mod:`repro.core.attestation` -- boot-time attestation and key agreement.
* :mod:`repro.core.memory_system` -- a complete functional memory system
  (processor engine + bus + DIMM + storage) that the attack framework and
  the examples drive.

The *performance* model of SecDDR is one row of
:func:`repro.secure.configs.metadata_path` plus its controller's longer
eWCRC write burst; this package is about demonstrating the security
arguments of Section III.
"""

from repro.core.config import SecDDRConfig
from repro.core.transaction_counter import TransactionCounter, CounterParityError
from repro.core.emac import encrypt_mac, recover_mac
from repro.core.ewcrc import make_encrypted_ewcrc, verify_encrypted_ewcrc
from repro.core.protocol import (
    BusDirection,
    ReadCommand,
    ReadResponse,
    WriteCommand,
    WriteTransaction,
    IntegrityViolation,
)
from repro.core.processor_engine import ProcessorEngine
from repro.core.dimm_logic import EccChipLogic, WriteRejected
from repro.core.attestation import AttestationResult, attest_and_provision
from repro.core.memory_system import FunctionalMemorySystem, MemoryBus
from repro.core.obfuscation import CommandObfuscator, EncryptedCommand

__all__ = [
    "SecDDRConfig",
    "TransactionCounter",
    "CounterParityError",
    "encrypt_mac",
    "recover_mac",
    "make_encrypted_ewcrc",
    "verify_encrypted_ewcrc",
    "BusDirection",
    "ReadCommand",
    "ReadResponse",
    "WriteCommand",
    "WriteTransaction",
    "IntegrityViolation",
    "ProcessorEngine",
    "EccChipLogic",
    "WriteRejected",
    "AttestationResult",
    "attest_and_provision",
    "FunctionalMemorySystem",
    "MemoryBus",
    "CommandObfuscator",
    "EncryptedCommand",
]
