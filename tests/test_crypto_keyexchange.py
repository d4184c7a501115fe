"""Tests for the attestation key-exchange substrate."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keyexchange import (
    DH_EXPONENT_BITS,
    DH_GENERATOR,
    DH_PRIME,
    AttestationError,
    CertificateAuthority,
    EndorsementKeyPair,
    KeyExchangeParticipant,
    _generator_power,
    authenticated_key_exchange,
)


class _EdgeRandom:
    """An ``rng`` whose ``randrange`` draws its lowest or its highest value."""

    def __init__(self, highest):
        self.highest = highest

    def randrange(self, start, stop):
        return stop - 1 if self.highest else start


class TestGeneratorPower:
    """The fixed-base comb must agree with the builtin ``pow``."""

    @given(exponent=st.integers(min_value=0, max_value=(1 << DH_EXPONENT_BITS) - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_pow(self, exponent):
        assert _generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize("exponent", [
        0, 1, 2, 3, 0xDEADBEEF, 1 << 31,
        # The comb's rows are 32 bits wide: 2^32 - 1 is the largest exponent
        # the first row holds alone, 2^32 the smallest that reaches the second.
        (1 << 32) - 1, 1 << 32,
        1 << 255, (1 << 256) - 1,
    ])
    def test_edge_exponents(self, exponent):
        assert _generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize("exponent", [-1, 1 << 256])
    def test_rejects_exponents_outside_the_comb(self, exponent):
        with pytest.raises(ValueError):
            _generator_power(exponent)


class TestEndorsementKeys:
    def test_generate_produces_valid_pair(self):
        pair = EndorsementKeyPair.generate()
        assert pair.secret != pair.public
        assert pair.public == pow(DH_GENERATOR, pair.secret, DH_PRIME)

    def test_secret_lies_in_the_exponent_range(self):
        for _ in range(20):
            assert 2 <= EndorsementKeyPair.generate().secret < 1 << DH_EXPONENT_BITS
        assert EndorsementKeyPair.generate(rng=_EdgeRandom(False)).secret == 2
        highest = EndorsementKeyPair.generate(rng=_EdgeRandom(True))
        assert highest.secret == (1 << DH_EXPONENT_BITS) - 1
        assert highest.public == pow(DH_GENERATOR, highest.secret, DH_PRIME)

    def test_sign_is_deterministic_per_message(self):
        pair = EndorsementKeyPair.generate()
        assert pair.sign(b"message") == pair.sign(b"message")

    def test_sign_differs_per_message(self):
        pair = EndorsementKeyPair.generate()
        assert pair.sign(b"a") != pair.sign(b"b")


class TestCertificateAuthority:
    def test_issue_and_verify(self):
        ca = CertificateAuthority()
        pair = EndorsementKeyPair.generate()
        cert = ca.issue("dimm-0/rank0", pair)
        assert ca.verify(cert)

    def test_issue_binds_the_keys_and_signs_the_payload(self):
        ca = CertificateAuthority()
        pair = EndorsementKeyPair.generate()
        cert = ca.issue("dimm-0/rank0", pair)
        assert (cert.subject, cert.issuer, cert.revoked) == ("dimm-0/rank0", ca.name, False)
        assert cert.endorsement_public == pair.public
        assert cert.verification_key == pair.verification_key()
        expected = hmac.new(ca._root_key, cert.payload(), hashlib.sha256).digest()
        assert cert.signature == expected

    def test_forged_certificate_rejected(self):
        ca = CertificateAuthority()
        other_ca = CertificateAuthority("evil-ca")
        pair = EndorsementKeyPair.generate()
        forged = other_ca.issue("dimm-0/rank0", pair)
        assert not ca.verify(forged)

    def test_revocation(self):
        ca = CertificateAuthority()
        pair = EndorsementKeyPair.generate()
        cert = ca.issue("dimm-0/rank0", pair)
        ca.revoke("dimm-0/rank0")
        assert not ca.verify(cert)


class TestKeyExchange:
    def _setup(self):
        ca = CertificateAuthority()
        endorsement = EndorsementKeyPair.generate()
        cert = ca.issue("dimm-0/rank0", endorsement)
        processor = KeyExchangeParticipant(name="processor")
        dimm = KeyExchangeParticipant(name="rank0", endorsement=endorsement)
        return ca, cert, processor, dimm

    def test_both_sides_derive_same_key(self):
        ca, cert, processor, dimm = self._setup()
        kt_p, kt_d = authenticated_key_exchange(processor, dimm, cert, ca)
        assert kt_p == kt_d
        assert len(kt_p) == 16

    def test_fresh_keys_each_run(self):
        ca, cert, processor, dimm = self._setup()
        first = authenticated_key_exchange(processor, dimm, cert, ca)[0]
        second = authenticated_key_exchange(processor, dimm, cert, ca)[0]
        assert first != second

    def test_missing_endorsement_rejected(self):
        ca, cert, processor, _ = self._setup()
        unendorsed = KeyExchangeParticipant(name="rank0")
        with pytest.raises(AttestationError):
            authenticated_key_exchange(processor, unendorsed, cert, ca)

    def test_impersonation_with_wrong_endorsement_rejected(self):
        # A man-in-the-middle presents a valid certificate for the real DIMM
        # but signs with its own endorsement key: signature check must fail.
        ca, cert, processor, _ = self._setup()
        impostor = KeyExchangeParticipant(
            name="rank0", endorsement=EndorsementKeyPair.generate()
        )
        with pytest.raises(AttestationError):
            authenticated_key_exchange(processor, impostor, cert, ca)

    def test_revoked_dimm_rejected(self):
        ca, cert, processor, dimm = self._setup()
        ca.revoke(cert.subject)
        with pytest.raises(AttestationError):
            authenticated_key_exchange(processor, dimm, cert, ca)

    def test_start_publishes_the_generator_power(self):
        participant = KeyExchangeParticipant(name="processor")
        message = participant.start()
        assert message.dh_public == pow(DH_GENERATOR, participant._dh_secret, DH_PRIME)

    def test_dh_secret_lies_in_the_exponent_range(self):
        participant = KeyExchangeParticipant(name="processor")
        for _ in range(20):
            participant.start()
            assert 2 <= participant._dh_secret < 1 << DH_EXPONENT_BITS
        participant.start(rng=_EdgeRandom(False))
        assert participant._dh_secret == 2
        message = participant.start(rng=_EdgeRandom(True))
        assert participant._dh_secret == (1 << DH_EXPONENT_BITS) - 1
        assert message.dh_public == pow(DH_GENERATOR, participant._dh_secret, DH_PRIME)

    def test_finish_before_start_rejected(self):
        _, _, processor, dimm = self._setup()
        message = dimm.start()
        with pytest.raises(AttestationError):
            processor.finish(message)
