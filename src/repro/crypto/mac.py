"""Message authentication codes for per-line and per-transaction integrity.

Secure memories guard every cache line with a MAC computed over the line's
data and physical address (so a valid line cannot be relocated).  The SecDDR
paper follows SGX/TDX and keeps an 8-byte MAC per 64-byte line, stored in the
ECC chips.  This module provides:

* :func:`cmac_aes128` -- AES-CMAC (NIST SP 800-38B), the kind of MAC a
  hardware memory-encryption engine would implement with its existing AES
  data path.
* :func:`hmac_sha256` -- an HMAC based on SHA-256 from the standard library,
  used where a hash-based MAC is a better match (hash-based Merkle trees).
* :func:`line_mac` -- the per-cache-line MAC ``H_k(data, addr)`` used by the
  functional model, truncated to the configured MAC width.
* :func:`truncated_mac` -- helper to truncate any MAC to ``n`` bytes.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from typing import Tuple

from repro.crypto.aes import AES128, shared_cipher
from repro.crypto.modes import xor_bytes

__all__ = ["cmac_aes128", "hmac_sha256", "truncated_mac", "line_mac"]

_BLOCK = 16


def _shift_left_one(data: bytes) -> bytes:
    """Shift a byte string left by one bit (for CMAC subkey generation)."""
    value = int.from_bytes(data, "big")
    value = (value << 1) & ((1 << (8 * len(data))) - 1)
    return value.to_bytes(len(data), "big")


def _cmac_subkeys(cipher: AES128) -> Tuple[bytes, bytes]:
    """The CMAC subkeys K1 and K2 of the cipher (SP 800-38B), derived once."""
    if cipher.cmac_subkeys is None:
        const_rb = 0x87
        l_block = cipher.encrypt_block(bytes(_BLOCK))
        k1 = _shift_left_one(l_block)
        if l_block[0] & 0x80:
            k1 = k1[:-1] + bytes([k1[-1] ^ const_rb])
        k2 = _shift_left_one(k1)
        if k1[0] & 0x80:
            k2 = k2[:-1] + bytes([k2[-1] ^ const_rb])
        cipher.cmac_subkeys = (k1, k2)
    return cipher.cmac_subkeys


def cmac_aes128(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC of ``message`` under ``key``."""
    cipher = shared_cipher(key)
    k1, k2 = _cmac_subkeys(cipher)

    if len(message) == 0:
        blocks = [b""]
    else:
        blocks = [message[i : i + _BLOCK] for i in range(0, len(message), _BLOCK)]

    last = blocks[-1]
    if len(last) == _BLOCK:
        last = xor_bytes(last, k1)
    else:
        padded = last + b"\x80" + bytes(_BLOCK - len(last) - 1)
        last = xor_bytes(padded, k2)

    state = bytes(_BLOCK)
    for block in blocks[:-1]:
        state = cipher.encrypt_block(xor_bytes(state, block))
    return cipher.encrypt_block(xor_bytes(state, last))


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under ``key`` (32 bytes)."""
    return _hmac.new(key, message, hashlib.sha256).digest()


def truncated_mac(full_mac: bytes, length: int) -> bytes:
    """Truncate a MAC to ``length`` bytes (secure memories store 8B MACs)."""
    if length <= 0 or length > len(full_mac):
        raise ValueError("invalid truncation length %d" % length)
    return full_mac[:length]


def line_mac(key: bytes, data: bytes, address: int, mac_bytes: int = 8) -> bytes:
    """Per-cache-line MAC ``H_k(data, addr)`` truncated to ``mac_bytes``.

    The physical address is bound into the MAC so that a valid (data, MAC)
    pair cannot simply be copied to a different location -- the property the
    paper relies on in Sections II-C and III-B.
    """
    message = struct.pack(">Q", address & (2**64 - 1)) + data
    return truncated_mac(cmac_aes128(key, message), mac_bytes)
