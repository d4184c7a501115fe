"""Tests for the attestation key-exchange substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keyexchange import (
    DH_GENERATOR,
    DH_PRIME,
    AttestationError,
    Certificate,
    CertificateAuthority,
    EndorsementKeyPair,
    KeyExchangeParticipant,
    _generator_power,
    authenticated_key_exchange,
)


class TestGeneratorPower:
    """The fixed-base comb must agree with the builtin ``pow``."""

    @given(exponent=st.integers(min_value=0, max_value=DH_PRIME - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_pow(self, exponent):
        assert _generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize("exponent", [
        0, 1, 2, DH_PRIME - 2, 1 << 1535, (1 << 1536) - 1,
        # Below 2^192 only the comb's first row is non-zero.
        3, 0xDEADBEEF, 1 << 191, (1 << 192) - 1,
    ])
    def test_edge_exponents(self, exponent):
        assert _generator_power(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize("exponent", [-1, 1 << 1536])
    def test_rejects_exponents_outside_the_comb(self, exponent):
        with pytest.raises(ValueError):
            _generator_power(exponent)


class TestEndorsementKeys:
    def test_generate_produces_valid_pair(self):
        pair = EndorsementKeyPair.generate()
        assert pair.secret != pair.public
        assert pair.public == pow(DH_GENERATOR, pair.secret, DH_PRIME)

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

    def test_finish_before_start_rejected(self):
        _, _, processor, dimm = self._setup()
        message = dimm.start()
        with pytest.raises(AttestationError):
            processor.finish(message)
