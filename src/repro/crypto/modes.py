"""Block-cipher modes of operation used by the SecDDR reproduction.

Three constructions are provided:

* **CTR mode** -- counter-mode encryption as used by Intel SGX-style memory
  encryption engines.  A per-line encryption counter is combined with the
  line address to form the counter block; the resulting keystream is XORed
  with the plaintext.
* **XTS mode** -- the XEX-based tweaked-codebook mode adopted by Intel TME
  and AMD SEV.  The tweak is derived from the line address, so identical
  plaintexts at different addresses encrypt differently, but there is no
  temporal variation (the paper discusses this trade-off in Section IV-B).
* **One-time pads (OTPs)** -- SecDDR derives a pad from the transaction key
  ``Kt`` and the per-rank transaction counter ``Ct`` (plus, for writes, the
  write address) and XORs it with the MAC/eWCRC before they cross the bus.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.crypto.aes import shared_cipher

__all__ = [
    "xor_bytes",
    "aes_ctr_keystream",
    "ctr_encrypt",
    "ctr_decrypt",
    "xts_encrypt",
    "xts_decrypt",
    "one_time_pad",
]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal-length inputs (%d vs %d)" % (len(a), len(b)))
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _counter_block(nonce: bytes, block_index: int) -> bytes:
    """Build a 16-byte counter block from an 8-byte nonce and block index."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    return nonce + struct.pack(">Q", block_index)


def aes_ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream.

    The nonce occupies the high 8 bytes of the counter block and the running
    block index the low 8 bytes, mirroring the split-counter organization of
    memory-encryption engines.
    """
    cipher = shared_cipher(key)
    out = bytearray()
    block_index = 0
    while len(out) < length:
        out.extend(cipher.encrypt_block(_counter_block(nonce, block_index)))
        block_index += 1
    return bytes(out[:length])


def _ctr_nonce(address: int, counter: int) -> bytes:
    """Derive the per-line CTR nonce from the line address and its counter.

    Memory encryption engines form the encryption seed from the line's
    physical address and its (major, minor) encryption counter so that
    spatial *and* temporal uniqueness hold.  We fold both into 8 bytes.
    """
    return struct.pack(">II", address & 0xFFFFFFFF, counter & 0xFFFFFFFF)


def ctr_encrypt(key: bytes, address: int, counter: int, plaintext: bytes) -> bytes:
    """Counter-mode encrypt a cache line.

    Parameters
    ----------
    key:
        16-byte data-encryption key held on the processor.
    address:
        Physical line address (used as part of the seed for spatial
        uniqueness).
    counter:
        The line's encryption counter (temporal uniqueness).
    plaintext:
        Arbitrary-length data (typically a 64-byte line).
    """
    keystream = aes_ctr_keystream(key, _ctr_nonce(address, counter), len(plaintext))
    return xor_bytes(plaintext, keystream)


def ctr_decrypt(key: bytes, address: int, counter: int, ciphertext: bytes) -> bytes:
    """Counter-mode decryption (identical to encryption by construction)."""
    return ctr_encrypt(key, address, counter, ciphertext)


# ---------------------------------------------------------------------------
# XTS (XEX-based tweaked codebook with ciphertext stealing; here the data is
# always a whole number of blocks, so no stealing is ever needed).
# ---------------------------------------------------------------------------
def _gf128_double(block: bytes) -> bytes:
    """Multiply a 16-byte value by x in GF(2^128) (XTS tweak update)."""
    value = int.from_bytes(block, "little")
    carry = value >> 127
    value = (value << 1) & ((1 << 128) - 1)
    if carry:
        value ^= 0x87
    return value.to_bytes(16, "little")


def _xts_blocks(data: bytes) -> Iterator[bytes]:
    if len(data) % 16 != 0:
        raise ValueError("XTS payloads must be a multiple of 16 bytes")
    for i in range(0, len(data), 16):
        yield data[i : i + 16]


def xts_encrypt(key1: bytes, key2: bytes, tweak: int, plaintext: bytes) -> bytes:
    """AES-XTS encrypt ``plaintext`` using ``tweak`` (the line address).

    ``key1`` encrypts data blocks and ``key2`` encrypts the tweak, as in
    IEEE P1619.  There is no per-write counter, so the same plaintext at the
    same address always produces the same ciphertext -- precisely the
    property the paper notes when comparing AES-XTS with counter mode.
    """
    data_cipher = shared_cipher(key1)
    tweak_cipher = shared_cipher(key2)
    t = tweak_cipher.encrypt_block(struct.pack("<QQ", tweak & (2**64 - 1), 0))
    out = bytearray()
    for block in _xts_blocks(plaintext):
        ct = xor_bytes(data_cipher.encrypt_block(xor_bytes(block, t)), t)
        out.extend(ct)
        t = _gf128_double(t)
    return bytes(out)


def xts_decrypt(key1: bytes, key2: bytes, tweak: int, ciphertext: bytes) -> bytes:
    """AES-XTS decrypt (inverse of :func:`xts_encrypt`)."""
    data_cipher = shared_cipher(key1)
    tweak_cipher = shared_cipher(key2)
    t = tweak_cipher.encrypt_block(struct.pack("<QQ", tweak & (2**64 - 1), 0))
    out = bytearray()
    for block in _xts_blocks(ciphertext):
        pt = xor_bytes(data_cipher.decrypt_block(xor_bytes(block, t)), t)
        out.extend(pt)
        t = _gf128_double(t)
    return bytes(out)


# ---------------------------------------------------------------------------
# One-time pads for E-MAC / encrypted-eWCRC protection (SecDDR Section III).
# ---------------------------------------------------------------------------
def one_time_pad(
    key: bytes,
    transaction_counter: int,
    length: int,
    address: int | None = None,
) -> bytes:
    """Derive the OTP used to encrypt MACs (and eWCRCs) on the DDR bus.

    SecDDR's read/response pad (``OTPt``) is a function of the transaction
    key ``Kt`` and the per-rank transaction counter ``Ct`` only, which lets
    both endpoints precompute it off the critical path.  The write pad
    (``OTPw_t``) additionally folds in the write address so that tampering
    with the address bus scrambles the pad and is caught by the eWCRC check
    in the ECC chip (Section III-B).

    Parameters
    ----------
    key:
        The 16-byte transaction key ``Kt`` shared at attestation time.
    transaction_counter:
        The 64-bit per-rank transaction counter ``Ct``.
    length:
        Number of pad bytes required (8 for an E-MAC, 2 for an eWCRC, or
        both together).
    address:
        When given, produces the write-specific ``OTPw_t``.
    """
    cipher = shared_cipher(key)
    addr_val = 0 if address is None else (address & (2**63 - 1)) | (1 << 63)
    out = bytearray()
    block_index = 0
    while len(out) < length:
        block = struct.pack(
            ">QQ",
            transaction_counter & (2**64 - 1),
            addr_val ^ block_index,
        )
        out.extend(cipher.encrypt_block(block))
        block_index += 1
    return bytes(out[:length])
