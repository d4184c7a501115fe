"""Pure-Python AES-128 block cipher (FIPS-197).

The SecDDR paper assumes dedicated AES engines on the processor and in the
ECC chip(s) for generating one-time pads (OTPs) and MACs.  This module
provides a bit-accurate software implementation so the functional model can
produce and verify real E-MACs, OTPs, and XTS ciphertexts.

Each round runs on 32-bit column words through T-tables (Daemen & Rijmen,
*The Design of Rijndael*, 2002, Section 4.2): one table lookup per state byte
does SubBytes, ShiftRows and MixColumns at once.  Decryption is the
equivalent inverse cipher (FIPS-197 Section 5.3.5), which has the same shape
as encryption and uses its own round keys.  The table lookups are indexed by
secret bytes, so this code is not constant-time: it models the cipher for the
functional stack and is not a deployable implementation (see
``docs/architecture.md``, "Substitutions").  The timing simulation never calls
it.

SecDDR sets its keys at boot and each rank's ``Kt`` at attestation, so a
hardware engine expands each key schedule once.  :func:`shared_cipher` does
the same for the modes in :mod:`repro.crypto.modes` and :mod:`repro.crypto.mac`.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable, List, Optional, Tuple

__all__ = ["AES128", "shared_cipher"]

# The AES S-box (FIPS-197, Figure 7).
_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

# Inverse S-box (computed from _SBOX).
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

# Round constants for key expansion.
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# A block as four big-endian column words.
_WORDS = struct.Struct(">4I")


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


def _t_tables(column: Callable[[int], int]) -> Tuple[List[int], ...]:
    """Four T-tables from ``column(x)``, the MixColumns column of byte ``x``.

    Table ``r`` holds that column word rotated right by ``8 * r`` bits: the
    contribution of a byte that sits in row ``r`` of the state.
    """
    t0 = [column(x) for x in range(256)]
    return tuple(
        [((w >> (8 * r)) | (w << (32 - 8 * r))) & 0xFFFFFFFF for w in t0] for r in range(4)
    )


def _encrypt_column(x: int) -> int:
    """S(x) times the MixColumns column (02, 01, 01, 03)."""
    s = _SBOX[x]
    s2 = _xtime(s)
    return (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)


def _decrypt_column(x: int) -> int:
    """InvS(x) times the InvMixColumns column (0e, 09, 0d, 0b)."""
    s = _INV_SBOX[x]
    s2 = _xtime(s)
    s4 = _xtime(s2)
    s8 = _xtime(s4)
    return ((s8 ^ s4 ^ s2) << 24) | ((s8 ^ s) << 16) | ((s8 ^ s4 ^ s) << 8) | (s8 ^ s2 ^ s)


_TE0, _TE1, _TE2, _TE3 = _t_tables(_encrypt_column)
_TD0, _TD1, _TD2, _TD3 = _t_tables(_decrypt_column)


class AES128:
    """AES with a 128-bit key, operating on 16-byte blocks.

    Parameters
    ----------
    key:
        A 16-byte key.  The encryption key schedule is expanded at
        construction; the decryption schedule on the first
        :meth:`decrypt_block` call.

    Examples
    --------
    >>> cipher = AES128(bytes(16))
    >>> ct = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(ct) == bytes(16)
    True
    """

    BLOCK_SIZE = 16
    KEY_SIZE = 16
    NUM_ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != self.KEY_SIZE:
            raise ValueError(
                "AES128 requires a 16-byte key, got %d bytes" % len(key)
            )
        self._key = bytes(key)
        self._round_keys = self._expand_key(self._key)
        self._decrypt_keys: Optional[List[int]] = None
        #: CMAC's subkeys ``(K1, K2)``, derived by :mod:`repro.crypto.mac`
        #: on this cipher's first MAC.
        self.cmac_subkeys: Optional[Tuple[bytes, bytes]] = None

    @property
    def key(self) -> bytes:
        """The raw 16-byte key this cipher was constructed with."""
        return self._key

    # ------------------------------------------------------------------
    # Key schedules, as 44 column words each (four per round).
    # ------------------------------------------------------------------
    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key expansion."""
        sbox = _SBOX
        words = list(_WORDS.unpack(key))
        for rcon in _RCON:
            t = words[-1]
            # RotWord, SubWord and Rcon in one step.
            t = (
                (sbox[(t >> 16) & 0xFF] ^ rcon) << 24
                | sbox[(t >> 8) & 0xFF] << 16
                | sbox[t & 0xFF] << 8
                | sbox[t >> 24]
            )
            w0 = words[-4] ^ t
            w1 = words[-3] ^ w0
            w2 = words[-2] ^ w1
            w3 = words[-1] ^ w2
            words += (w0, w1, w2, w3)
        return words

    def _expand_decrypt_keys(self) -> List[int]:
        """Round keys of the equivalent inverse cipher.

        The encryption round keys in reverse round order, with InvMixColumns
        applied to all but the first and last.  ``_TD*[_SBOX[b]]`` is
        InvMixColumns of byte ``b`` alone, because the tables' InvS undoes S.
        """
        sbox = _SBOX
        rk = self._round_keys
        keys = rk[40:44]
        for start in range(36, 0, -4):
            keys += [
                _TD0[sbox[w >> 24]] ^ _TD1[sbox[(w >> 16) & 0xFF]]
                ^ _TD2[sbox[(w >> 8) & 0xFF]] ^ _TD3[sbox[w & 0xFF]]
                for w in rk[start : start + 4]
            ]
        return keys + rk[0:4]

    # ------------------------------------------------------------------
    # Public block API
    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != self.BLOCK_SIZE:
            raise ValueError("plaintext block must be 16 bytes")
        rk = self._round_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        s0, s1, s2, s3 = _WORDS.unpack(plaintext)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        # ShiftRows moves row r left by r columns, so column c reads row r
        # from column c + r.
        for i in range(4, 40, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[i],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[i + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[i + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[i + 3],
            )
        # The last round has no MixColumns: SubBytes and ShiftRows only.
        sbox = _SBOX
        return _WORDS.pack(
            (sbox[s0 >> 24] << 24 | sbox[(s1 >> 16) & 0xFF] << 16
             | sbox[(s2 >> 8) & 0xFF] << 8 | sbox[s3 & 0xFF]) ^ rk[40],
            (sbox[s1 >> 24] << 24 | sbox[(s2 >> 16) & 0xFF] << 16
             | sbox[(s3 >> 8) & 0xFF] << 8 | sbox[s0 & 0xFF]) ^ rk[41],
            (sbox[s2 >> 24] << 24 | sbox[(s3 >> 16) & 0xFF] << 16
             | sbox[(s0 >> 8) & 0xFF] << 8 | sbox[s1 & 0xFF]) ^ rk[42],
            (sbox[s3 >> 24] << 24 | sbox[(s0 >> 16) & 0xFF] << 16
             | sbox[(s1 >> 8) & 0xFF] << 8 | sbox[s2 & 0xFF]) ^ rk[43],
        )

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != self.BLOCK_SIZE:
            raise ValueError("ciphertext block must be 16 bytes")
        dk = self._decrypt_keys
        if dk is None:
            dk = self._decrypt_keys = self._expand_decrypt_keys()
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        s0, s1, s2, s3 = _WORDS.unpack(ciphertext)
        s0 ^= dk[0]
        s1 ^= dk[1]
        s2 ^= dk[2]
        s3 ^= dk[3]
        # InvShiftRows moves row r right by r columns, so column c reads
        # row r from column c - r.
        for i in range(4, 40, 4):
            s0, s1, s2, s3 = (
                td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF] ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ dk[i],
                td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF] ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ dk[i + 1],
                td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF] ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ dk[i + 2],
                td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF] ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ dk[i + 3],
            )
        inv = _INV_SBOX
        return _WORDS.pack(
            (inv[s0 >> 24] << 24 | inv[(s3 >> 16) & 0xFF] << 16
             | inv[(s2 >> 8) & 0xFF] << 8 | inv[s1 & 0xFF]) ^ dk[40],
            (inv[s1 >> 24] << 24 | inv[(s0 >> 16) & 0xFF] << 16
             | inv[(s3 >> 8) & 0xFF] << 8 | inv[s2 & 0xFF]) ^ dk[41],
            (inv[s2 >> 24] << 24 | inv[(s1 >> 16) & 0xFF] << 16
             | inv[(s0 >> 8) & 0xFF] << 8 | inv[s3 & 0xFF]) ^ dk[42],
            (inv[s3 >> 24] << 24 | inv[(s2 >> 16) & 0xFF] << 16
             | inv[(s1 >> 8) & 0xFF] << 8 | inv[s0 & 0xFF]) ^ dk[43],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "AES128(key=%s...)" % self._key[:4].hex()


_cipher = functools.lru_cache(maxsize=64)(AES128)


def shared_cipher(key: bytes) -> AES128:
    """The :class:`AES128` for ``key``, its schedule expanded once.

    Calls with equal keys return one object while it stays among the 64 most
    recently used keys, so callers must not change it.  A key of the wrong
    length raises ``ValueError`` on every call, because a failed construction
    is not remembered.
    """
    return _cipher(bytes(key))
