"""Tests for MAC primitives (CMAC, HMAC, per-line MAC)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import AES128
from repro.crypto.mac import cmac_aes128, hmac_sha256, line_mac, truncated_mac

# NIST SP 800-38B Appendix D.1 vectors (AES-128).
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ONE_BLOCK = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
EMPTY_MAC = "bb1d6929e95937287fa37d129b756746"
ONE_BLOCK_MAC = "070a16b46b4d4144f79bdd9dd04a287c"


class TestCmacVectors:
    def test_empty_message(self):
        assert cmac_aes128(NIST_KEY, b"").hex() == EMPTY_MAC

    def test_one_block_message(self):
        assert cmac_aes128(NIST_KEY, ONE_BLOCK).hex() == ONE_BLOCK_MAC

    def test_40_byte_message(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"
        )
        assert cmac_aes128(NIST_KEY, msg).hex() == "dfa66747de9ae63030ca32611497c827"

    def test_64_byte_message(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
        )
        assert cmac_aes128(NIST_KEY, msg).hex() == "51f0bebf7e3b9d92fc49741779363cfe"


class TestCmacThroughTheSharedCipher:
    @pytest.mark.parametrize("others", [3, 64])
    def test_vectors_on_first_and_repeated_calls(self, others):
        # The empty message takes subkey K2, the whole block K1.
        aes._cipher.cache_clear()
        for _ in range(2):
            assert cmac_aes128(NIST_KEY, b"").hex() == EMPTY_MAC
            assert cmac_aes128(NIST_KEY, ONE_BLOCK).hex() == ONE_BLOCK_MAC
            for index in range(others):
                cmac_aes128((index + 1).to_bytes(16, "big"), ONE_BLOCK)

    def test_subkeys_cost_one_block_per_key(self, monkeypatch):
        blocks = []
        encrypt = AES128.encrypt_block

        def counting(cipher, block):
            blocks.append(block)
            return encrypt(cipher, block)

        aes._cipher.cache_clear()
        monkeypatch.setattr(AES128, "encrypt_block", counting)
        two_blocks = b"\x01" * 20
        cmac_aes128(NIST_KEY, two_blocks)
        cmac_aes128(NIST_KEY, two_blocks)
        # The zero block once for the subkeys, then two blocks per MAC.
        assert blocks.count(bytes(16)) == 1
        assert len(blocks) == 5


class TestMacBehaviour:
    def test_cmac_differs_for_different_messages(self):
        assert cmac_aes128(NIST_KEY, b"a" * 64) != cmac_aes128(NIST_KEY, b"b" * 64)

    def test_cmac_differs_for_different_keys(self):
        assert cmac_aes128(bytes(16), b"data") != cmac_aes128(bytes([1] * 16), b"data")

    def test_hmac_sha256_length(self):
        assert len(hmac_sha256(b"key", b"message")) == 32

    def test_hmac_differs_for_different_keys(self):
        assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")

    def test_truncation(self):
        full = bytes(range(16))
        assert truncated_mac(full, 8) == full[:8]

    def test_truncation_rejects_bad_length(self):
        with pytest.raises(ValueError):
            truncated_mac(bytes(16), 0)
        with pytest.raises(ValueError):
            truncated_mac(bytes(16), 17)


class TestLineMac:
    def test_default_width_is_8_bytes(self):
        assert len(line_mac(NIST_KEY, bytes(64), 0x1000)) == 8

    def test_mac_binds_address(self):
        # A valid (data, MAC) pair cannot be relocated to another address.
        data = bytes(range(64))
        assert line_mac(NIST_KEY, data, 0x1000) != line_mac(NIST_KEY, data, 0x1040)

    def test_mac_binds_data(self):
        assert line_mac(NIST_KEY, bytes(64), 0x1000) != line_mac(NIST_KEY, bytes([1] * 64), 0x1000)

    def test_mac_is_deterministic(self):
        data = bytes(range(64))
        assert line_mac(NIST_KEY, data, 0x1000) == line_mac(NIST_KEY, data, 0x1000)

    @given(
        data=st.binary(min_size=64, max_size=64),
        flip=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_single_byte_change_changes_mac(self, data, flip):
        tampered = bytearray(data)
        tampered[flip] ^= 0x01
        assert line_mac(NIST_KEY, data, 0x2000) != line_mac(NIST_KEY, bytes(tampered), 0x2000)
