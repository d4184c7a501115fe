"""Tests for the AES-128 block cipher.

The oracle is a byte-wise FIPS-197 cipher written out below with its round
functions (SubBytes, ShiftRows, MixColumns, AddRoundKey and their inverses)
in GF(2^8) bit-serial arithmetic.  It shares nothing with the T-table
implementation in ``repro.crypto.aes`` except the S-box constant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import _SBOX, AES128, shared_cipher

# FIPS-197 Appendix C.1 test vector.
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# NIST SP 800-38A Appendix F.1.1 (ECB-AES128.Encrypt).
SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_BLOCKS = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]

BLOCKS = st.binary(min_size=16, max_size=16)


# ---------------------------------------------------------------------------
# Bit-serial FIPS-197 oracle.  The state is a 16-element list, column-major
# as in FIPS-197: state[r + 4 * c].
# ---------------------------------------------------------------------------
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a):
    """Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a, b):
    """Multiply two bytes in GF(2^8) with the AES reduction polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _expand_key(key):
    """Expand the key into 11 round keys of 16 bytes each."""
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            # RotWord followed by SubWord and Rcon.
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // 4 - 1]
        words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
    return [sum(words[4 * r : 4 * r + 4], []) for r in range(11)]


def _add_round_key(state, round_key):
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state, box):
    for i in range(16):
        state[i] = box[state[i]]


def _shift_rows(state, direction):
    """Rotate row r left by ``direction * r`` columns."""
    for r in range(1, 4):
        row = [state[r + 4 * c] for c in range(4)]
        shift = (direction * r) % 4
        row = row[shift:] + row[:shift]
        for c in range(4):
            state[r + 4 * c] = row[c]


def _mix_columns(state, coefficients):
    """Multiply each column by the circulant matrix with first row ``coefficients``."""
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        for r in range(4):
            value = 0
            for k in range(4):
                value ^= _gf_mul(col[k], coefficients[(k - r) % 4])
            state[4 * c + r] = value


_MIX = (2, 3, 1, 1)
_INV_MIX = (14, 11, 13, 9)


def reference_encrypt(key, block):
    round_keys = _expand_key(key)
    state = list(block)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, 10):
        _sub_bytes(state, _SBOX)
        _shift_rows(state, 1)
        _mix_columns(state, _MIX)
        _add_round_key(state, round_keys[rnd])
    _sub_bytes(state, _SBOX)
    _shift_rows(state, 1)
    _add_round_key(state, round_keys[10])
    return bytes(state)


def reference_decrypt(key, block):
    round_keys = _expand_key(key)
    state = list(block)
    _add_round_key(state, round_keys[10])
    for rnd in range(9, 0, -1):
        _shift_rows(state, -1)
        _sub_bytes(state, _INV_SBOX)
        _add_round_key(state, round_keys[rnd])
        _mix_columns(state, _INV_MIX)
    _shift_rows(state, -1)
    _sub_bytes(state, _INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)


class TestAes128Vectors:
    def test_fips197_encrypt_vector(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT

    def test_fips197_decrypt_vector(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.decrypt_block(FIPS_CIPHERTEXT) == FIPS_PLAINTEXT

    def test_all_zero_key_and_block(self):
        cipher = AES128(bytes(16))
        # Known ciphertext of the all-zero block under the all-zero key.
        assert cipher.encrypt_block(bytes(16)).hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"

    @pytest.mark.parametrize("plaintext,ciphertext", SP800_38A_BLOCKS)
    def test_sp800_38a_ecb_vectors(self, plaintext, ciphertext):
        cipher = AES128(SP800_38A_KEY)
        assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext
        assert cipher.decrypt_block(bytes.fromhex(ciphertext)).hex() == plaintext

    def test_oracle_matches_the_fips197_vector(self):
        assert reference_encrypt(FIPS_KEY, FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        assert reference_decrypt(FIPS_KEY, FIPS_CIPHERTEXT) == FIPS_PLAINTEXT


class TestAes128Interface:
    def test_rejects_short_key(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_rejects_long_key(self):
        with pytest.raises(ValueError):
            AES128(bytes(24))

    def test_rejects_wrong_block_size_encrypt(self):
        with pytest.raises(ValueError):
            AES128(bytes(16)).encrypt_block(bytes(8))

    def test_rejects_wrong_block_size_decrypt(self):
        with pytest.raises(ValueError):
            AES128(bytes(16)).decrypt_block(bytes(32))

    def test_key_property_returns_original(self):
        key = bytes(range(16))
        assert AES128(key).key == key

    def test_different_keys_give_different_ciphertexts(self):
        block = bytes(16)
        ct1 = AES128(bytes(16)).encrypt_block(block)
        ct2 = AES128(bytes([1] * 16)).encrypt_block(block)
        assert ct1 != ct2

    def test_encryption_is_deterministic(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_block(FIPS_PLAINTEXT) == cipher.encrypt_block(FIPS_PLAINTEXT)


class TestAes128Properties:
    @given(key=BLOCKS, block=BLOCKS)
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(key=BLOCKS, block=BLOCKS)
    @settings(max_examples=10, deadline=None)
    def test_ciphertext_differs_from_plaintext(self, key, block):
        # A key fixes a given block with probability 2^-128.
        assert AES128(key).encrypt_block(block) != block

    @given(key=BLOCKS, block=BLOCKS)
    @settings(max_examples=50, deadline=None)
    def test_matches_the_bit_serial_oracle(self, key, block):
        cipher = AES128(key)
        assert cipher.encrypt_block(block) == reference_encrypt(key, block)
        assert cipher.decrypt_block(block) == reference_decrypt(key, block)


def other_keys(count):
    """``count`` distinct keys, none of them a test vector's."""
    return [(index + 1).to_bytes(16, "big") for index in range(count)]


class TestSharedCipher:
    def test_equal_keys_share_one_cipher(self):
        cipher = shared_cipher(FIPS_KEY)
        assert shared_cipher(bytes(FIPS_KEY)) is cipher
        assert shared_cipher(bytearray(FIPS_KEY)) is cipher
        assert cipher.key == FIPS_KEY

    def test_different_keys_get_different_ciphers(self):
        assert shared_cipher(FIPS_KEY) is not shared_cipher(SP800_38A_KEY)

    @pytest.mark.parametrize("key", [b"short", bytes(24), bytearray(15)])
    def test_bad_key_raises_on_every_call(self, key):
        for _ in range(3):
            with pytest.raises(ValueError):
                shared_cipher(key)

    def test_memo_holds_at_most_64_keys(self):
        first = shared_cipher(FIPS_KEY)
        keys = other_keys(64)
        ciphers = [shared_cipher(key) for key in keys]
        assert aes._cipher.cache_info().maxsize == 64
        assert aes._cipher.cache_info().currsize <= 64
        # The least recently used key was dropped and is expanded again.
        assert shared_cipher(FIPS_KEY) is not first
        assert shared_cipher(FIPS_KEY).encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
        assert all(shared_cipher(key) is cipher for key, cipher in zip(keys[1:], ciphers[1:]))

    @pytest.mark.parametrize("others", [3, 64])
    def test_fips197_vector_on_first_and_repeated_calls(self, others):
        aes._cipher.cache_clear()
        for _ in range(2):
            cipher = shared_cipher(FIPS_KEY)
            assert cipher.encrypt_block(FIPS_PLAINTEXT) == FIPS_CIPHERTEXT
            assert cipher.decrypt_block(FIPS_CIPHERTEXT) == FIPS_PLAINTEXT
            for key in other_keys(others):
                shared_cipher(key).decrypt_block(shared_cipher(key).encrypt_block(FIPS_PLAINTEXT))
