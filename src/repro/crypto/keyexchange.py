"""Attestation substrate: endorsement keys, certificates, key exchange.

SecDDR (Section III-F) provisions each rank's ECC chip with an endorsement
key pair at manufacturing time.  At every power-up (or after a legitimate
DIMM replacement) the processor and each rank run an authenticated key
exchange to agree on a fresh transaction key ``Kt``; the DIMM signs its
key-exchange messages with its endorsement secret key, and the processor
validates the DIMM's certificate against a certificate authority (the memory
vendor or a third party).

The paper assumes elliptic-curve scalar multiplication hardware; this module
substitutes a finite-field Diffie-Hellman exchange plus hash-based
signatures, which plays the same protocol roles (authentication of the DIMM,
man-in-the-middle resistance, fresh shared secret) with standard-library
primitives.  The substitution is documented in ``docs/architecture.md``
("Substitutions").
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "DH_PRIME",
    "DH_GENERATOR",
    "DH_EXPONENT_BITS",
    "EndorsementKeyPair",
    "Certificate",
    "CertificateAuthority",
    "KeyExchangeMessage",
    "KeyExchangeParticipant",
    "AttestationError",
    "authenticated_key_exchange",
]

# RFC 3526 1536-bit MODP group (group 5).  Using a well-known safe prime keeps
# the exchange honest (no toy 64-bit groups) while staying dependency-free.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2
# Private exponents are drawn from [2, 2^256).  RFC 3526 section 8 rates this
# group at about 90 bits of strength and sizes its exponents at 180-240 bits,
# twice that: Pollard's lambda finds an n-bit exponent in about 2^(n/2) group
# operations, so a 256-bit one costs about 2^128, and the group's own ~90-bit
# bound stays the weaker link (see docs/architecture.md, "Substitutions").
DH_EXPONENT_BITS = 256

# Fixed-base comb (Lim & Lee, "More Flexible Exponentiation with
# Precomputation", CRYPTO 1994) for powers of DH_GENERATOR: an exponent below
# 2^256 is cut into 8 rows of 32 bits, and the bits of one column across the
# rows index a table of 256 products of g^(2^(32 i)).  A power then costs 32
# squarings and at most 32 multiplications instead of the 256 squarings of a
# generic ``pow``.  Its table lookups and branches depend on the secret
# exponent, so it is not constant-time (see docs/architecture.md,
# "Substitutions").
_COMB_ROWS = 8
_COMB_COLUMNS = DH_EXPONENT_BITS // _COMB_ROWS


@functools.lru_cache(maxsize=None)
def _comb_table() -> Tuple[int, ...]:
    """``table[j]`` is the product of g^(2^(32 i)) over the set bits i of j.

    Built on first use (224 squarings and 255 multiplications, 60 KB), so
    runs that never exchange keys do not pay for it.
    """
    row_bases = [DH_GENERATOR]
    for _ in range(_COMB_ROWS - 1):
        base = row_bases[-1]
        for _ in range(_COMB_COLUMNS):
            base = base * base % DH_PRIME
        row_bases.append(base)
    table = [1]
    for base in row_bases:
        table += [entry * base % DH_PRIME for entry in table]
    return tuple(table)


def _generator_power(exponent: int) -> int:
    """``pow(DH_GENERATOR, exponent, DH_PRIME)`` by the fixed-base comb."""
    if not 0 <= exponent < 1 << DH_EXPONENT_BITS:
        raise ValueError("exponent must lie in [0, 2^%d)" % DH_EXPONENT_BITS)
    table = _comb_table()
    # Row i holds bits [32 i, 32 i + 32).  In the zero-padded binary string
    # bit b sits at index 255 - b, so the slice [c::32] reads column 31 - c
    # from row 7 (most significant) down to row 0: the table index.
    bits = format(exponent, "0%db" % DH_EXPONENT_BITS)
    result = 1
    for column in range(_COMB_COLUMNS):
        result = result * result % DH_PRIME
        index = int(bits[column::_COMB_COLUMNS], 2)
        if index:
            result = result * table[index] % DH_PRIME
    return result


class AttestationError(RuntimeError):
    """Raised when attestation fails (bad signature, unknown certificate...)."""


def _hash_int(*values: int) -> bytes:
    """Hash a sequence of integers into 32 bytes (domain-separated)."""
    h = hashlib.sha256()
    for v in values:
        h.update(struct.pack(">I", v.bit_length()))
        h.update(v.to_bytes((v.bit_length() + 7) // 8 or 1, "big"))
    return h.digest()


@dataclass
class EndorsementKeyPair:
    """Endorsement key pair embedded in a rank's ECC chip at manufacture.

    ``secret`` never leaves the chip; ``public`` is shared for attestation.
    The "signature" scheme is an HMAC keyed by the secret, verifiable by the
    CA-issued certificate binding (a stand-in for an EC signature -- see
    ``docs/architecture.md``, "Substitutions").
    """

    secret: int
    public: int

    @classmethod
    def generate(cls, rng: Optional[secrets.SystemRandom] = None) -> "EndorsementKeyPair":
        rng = rng or secrets.SystemRandom()
        secret = rng.randrange(2, 1 << DH_EXPONENT_BITS)
        public = _generator_power(secret)
        return cls(secret=secret, public=public)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` with the endorsement secret key."""
        key = _hash_int(self.secret)
        return hmac.new(key, message, hashlib.sha256).digest()

    def verification_key(self) -> bytes:
        """Key material the CA escrows to allow signature verification.

        In a real deployment this would be the public half of an asymmetric
        pair; the functional stand-in derives the verification key from the
        secret and places it in the certificate, so only holders of the
        CA-issued certificate can verify.
        """
        return _hash_int(self.secret)


@dataclass(frozen=True)
class Certificate:
    """A CA-issued certificate binding a DIMM identity to its keys."""

    subject: str
    endorsement_public: int
    verification_key: bytes
    issuer: str
    signature: bytes
    revoked: bool = False

    def payload(self) -> bytes:
        return (
            self.subject.encode()
            + self.endorsement_public.to_bytes(256, "big")
            + self.verification_key
            + self.issuer.encode()
        )


class CertificateAuthority:
    """The memory vendor (or third party) that signs DIMM certificates."""

    def __init__(self, name: str = "memory-vendor-ca") -> None:
        self.name = name
        self._root_key = secrets.token_bytes(32)
        self._revocation_list: set = set()

    def issue(self, subject: str, keypair: EndorsementKeyPair) -> Certificate:
        """Issue a certificate for a DIMM rank's endorsement key."""
        unsigned = Certificate(
            subject=subject,
            endorsement_public=keypair.public,
            verification_key=keypair.verification_key(),
            issuer=self.name,
            signature=b"",
        )
        signature = hmac.new(self._root_key, unsigned.payload(), hashlib.sha256).digest()
        return replace(unsigned, signature=signature)

    def verify(self, cert: Certificate) -> bool:
        """Check the CA signature and the revocation list."""
        if cert.subject in self._revocation_list:
            return False
        expected = hmac.new(self._root_key, cert.payload(), hashlib.sha256).digest()
        return hmac.compare_digest(expected, cert.signature)

    def revoke(self, subject: str) -> None:
        """Add a DIMM identity to the revocation list."""
        self._revocation_list.add(subject)


@dataclass(frozen=True)
class KeyExchangeMessage:
    """One flight of the authenticated key exchange."""

    sender: str
    dh_public: int
    signature: bytes = b""


@dataclass
class KeyExchangeParticipant:
    """One endpoint (processor memory controller, or a rank's ECC chip)."""

    name: str
    endorsement: Optional[EndorsementKeyPair] = None
    _dh_secret: int = field(default=0, repr=False)

    def start(self, rng: Optional[secrets.SystemRandom] = None) -> KeyExchangeMessage:
        """Generate an ephemeral DH share, signed if an endorsement key exists."""
        rng = rng or secrets.SystemRandom()
        self._dh_secret = rng.randrange(2, 1 << DH_EXPONENT_BITS)
        public = _generator_power(self._dh_secret)
        signature = b""
        if self.endorsement is not None:
            signature = self.endorsement.sign(_hash_int(public))
        return KeyExchangeMessage(sender=self.name, dh_public=public, signature=signature)

    def finish(self, peer_message: KeyExchangeMessage) -> bytes:
        """Derive the 16-byte shared transaction key ``Kt``."""
        if self._dh_secret == 0:
            raise AttestationError("start() must be called before finish()")
        shared = pow(peer_message.dh_public, self._dh_secret, DH_PRIME)
        return _hash_int(shared)[:16]


def _verify_dimm_signature(
    message: KeyExchangeMessage, certificate: Certificate
) -> bool:
    expected = hmac.new(
        certificate.verification_key, _hash_int(message.dh_public), hashlib.sha256
    ).digest()
    return hmac.compare_digest(expected, message.signature)


def authenticated_key_exchange(
    processor: KeyExchangeParticipant,
    dimm: KeyExchangeParticipant,
    certificate: Certificate,
    ca: CertificateAuthority,
) -> Tuple[bytes, bytes]:
    """Run the full attestation-time key exchange of Section III-F.

    Returns the pair of derived ``Kt`` values (processor-side, DIMM-side);
    they are equal when the exchange is genuine.  Raises
    :class:`AttestationError` if the DIMM's certificate or signature does not
    verify -- e.g. when an interposer tries a man-in-the-middle exchange.
    """
    if dimm.endorsement is None:
        raise AttestationError("DIMM participant has no endorsement key")
    if not ca.verify(certificate):
        raise AttestationError("certificate rejected by the CA (revoked or forged)")

    processor_msg = processor.start()
    dimm_msg = dimm.start()

    if not _verify_dimm_signature(dimm_msg, certificate):
        raise AttestationError("DIMM key-exchange signature did not verify")

    kt_processor = processor.finish(dimm_msg)
    kt_dimm = dimm.finish(processor_msg)
    return kt_processor, kt_dimm
