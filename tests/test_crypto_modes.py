"""Tests for CTR / XTS modes and the one-time-pad construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes
from repro.crypto.aes import AES128
from repro.crypto.modes import (
    aes_ctr_keystream,
    ctr_decrypt,
    ctr_encrypt,
    one_time_pad,
    xor_bytes,
    xts_decrypt,
    xts_encrypt,
)

KEY = bytes(range(16))
KEY2 = bytes(range(16, 32))
# IEEE P1619 Vector 1: all-zero keys, tweak 0, 32 zero bytes.
P1619_VECTOR1 = "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e"


class TestXorBytes:
    def test_basic_xor(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_identity(self):
        data = bytes(range(32))
        assert xor_bytes(data, bytes(32)) == data

    def test_xor_self_is_zero(self):
        data = bytes(range(16))
        assert xor_bytes(data, data) == bytes(16)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    def test_empty_input(self):
        assert xor_bytes(b"", b"") == b""

    @given(pair=st.integers(min_value=0, max_value=80).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n), st.binary(min_size=n, max_size=n))
    ))
    @settings(max_examples=50, deadline=None)
    def test_matches_bytewise_xor(self, pair):
        a, b = pair
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))


class TestCtrMode:
    def test_round_trip(self):
        data = bytes(range(64))
        ct = ctr_encrypt(KEY, address=0x1000, counter=7, plaintext=data)
        assert ct != data
        assert ctr_decrypt(KEY, address=0x1000, counter=7, ciphertext=ct) == data

    def test_different_counters_give_different_ciphertexts(self):
        data = bytes(64)
        ct1 = ctr_encrypt(KEY, 0x1000, 1, data)
        ct2 = ctr_encrypt(KEY, 0x1000, 2, data)
        assert ct1 != ct2

    def test_different_addresses_give_different_ciphertexts(self):
        data = bytes(64)
        ct1 = ctr_encrypt(KEY, 0x1000, 1, data)
        ct2 = ctr_encrypt(KEY, 0x2000, 1, data)
        assert ct1 != ct2

    def test_keystream_length(self):
        for length in (1, 15, 16, 17, 64, 100):
            assert len(aes_ctr_keystream(KEY, bytes(8), length)) == length

    def test_keystream_requires_8_byte_nonce(self):
        with pytest.raises(ValueError):
            aes_ctr_keystream(KEY, bytes(4), 16)

    @given(
        data=st.binary(min_size=1, max_size=128),
        address=st.integers(min_value=0, max_value=2**40),
        counter=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, data, address, counter):
        ct = ctr_encrypt(KEY, address, counter, data)
        assert ctr_decrypt(KEY, address, counter, ct) == data


class TestXtsMode:
    def test_ieee_p1619_vector1(self):
        ct = xts_encrypt(bytes(16), bytes(16), 0, bytes(32))
        assert ct.hex() == P1619_VECTOR1

    @pytest.mark.parametrize("others", [3, 64])
    def test_ieee_p1619_vector1_on_first_and_repeated_calls(self, others):
        aes._cipher.cache_clear()
        for _ in range(2):
            assert xts_encrypt(bytes(16), bytes(16), 0, bytes(32)).hex() == P1619_VECTOR1
            assert xts_decrypt(bytes(16), bytes(16), 0, bytes.fromhex(P1619_VECTOR1)) == bytes(32)
            for index in range(others):
                key = (index + 1).to_bytes(16, "big")
                xts_decrypt(key, KEY2, 1, xts_encrypt(key, KEY2, 1, bytes(32)))

    def test_each_key_is_expanded_once(self, monkeypatch):
        expansions = []
        expand = AES128._expand_key

        def counting(key):
            expansions.append(key)
            return expand(key)

        monkeypatch.setattr(AES128, "_expand_key", staticmethod(counting))
        aes._cipher.cache_clear()
        for tweak in range(4):
            xts_decrypt(KEY, KEY2, tweak, xts_encrypt(KEY, KEY2, tweak, bytes(64)))
            one_time_pad(KEY2, tweak, 8)
            aes_ctr_keystream(KEY, bytes(8), 16)
        assert sorted(expansions) == [KEY, KEY2]

    def test_round_trip(self):
        data = bytes(range(64))
        ct = xts_encrypt(KEY, KEY2, 0x1234, data)
        assert xts_decrypt(KEY, KEY2, 0x1234, ct) == data

    def test_xts_is_deterministic_per_address(self):
        # No temporal variation: the property the paper calls out for AES-XTS.
        data = bytes(range(64))
        assert xts_encrypt(KEY, KEY2, 5, data) == xts_encrypt(KEY, KEY2, 5, data)

    def test_xts_spatial_variation(self):
        data = bytes(64)
        assert xts_encrypt(KEY, KEY2, 1, data) != xts_encrypt(KEY, KEY2, 2, data)

    def test_requires_block_multiple(self):
        with pytest.raises(ValueError):
            xts_encrypt(KEY, KEY2, 0, bytes(30))

    @given(
        tweak=st.integers(min_value=0, max_value=2**63),
        # Whole blocks drawn directly: filtering random lengths kept only
        # about 1 in 14 and tripped Hypothesis's filter_too_much health check.
        data=st.integers(min_value=1, max_value=6).flatmap(
            lambda blocks: st.binary(min_size=16 * blocks, max_size=16 * blocks)
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, tweak, data):
        ct = xts_encrypt(KEY, KEY2, tweak, data)
        assert xts_decrypt(KEY, KEY2, tweak, ct) == data


class TestOneTimePad:
    def test_pad_length(self):
        for length in (2, 8, 16, 24):
            assert len(one_time_pad(KEY, 5, length)) == length

    def test_pad_depends_on_counter(self):
        assert one_time_pad(KEY, 1, 8) != one_time_pad(KEY, 2, 8)

    def test_pad_depends_on_key(self):
        assert one_time_pad(KEY, 1, 8) != one_time_pad(KEY2, 1, 8)

    def test_write_pad_depends_on_address(self):
        # The write-specific OTP folds the address in (Section III-B).
        assert one_time_pad(KEY, 1, 8, address=0x1000) != one_time_pad(KEY, 1, 8, address=0x2000)

    def test_write_pad_differs_from_read_pad(self):
        assert one_time_pad(KEY, 1, 8) != one_time_pad(KEY, 1, 8, address=0x1000)

    def test_pad_is_deterministic(self):
        assert one_time_pad(KEY, 42, 8) == one_time_pad(KEY, 42, 8)

    @given(counters=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=20, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_pads_never_repeat_across_counters(self, counters):
        # E-MAC temporal uniqueness: different counters -> different pads.
        pads = [one_time_pad(KEY, c, 8) for c in counters]
        assert len(set(pads)) == len(pads)
