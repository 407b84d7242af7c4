"""Tests for the GSI stand-in: certs, proxies, mutual auth."""

import pytest

from repro.gsi import (
    AuthenticationError,
    CertificateAuthority,
    CredentialError,
    GsiContext,
    Identity,
    KeyPair,
    SecurityPolicy,
    TrustAnchors,
)
from repro.sim import Environment


def pki():
    ca = CertificateAuthority("DOE Science Grid CA")
    trust = TrustAnchors()
    trust.trust_ca(ca)
    return ca, trust


def test_keypair_deterministic_and_distinct():
    a = KeyPair.generate("seed")
    b = KeyPair.generate("seed")
    c = KeyPair.generate("other")
    assert a == b
    assert a != c
    assert a.sign("x") == b.sign("x")
    assert a.sign("x") != a.sign("y")


def test_ca_issued_cert_verifies():
    ca, trust = pki()
    ident = Identity("/DC=org/CN=alice", ca, trust)
    trust.verify(ident.certificate, now=0.0)


def test_untrusted_ca_rejected():
    ca, trust = pki()
    rogue = CertificateAuthority("Rogue CA")
    cert = rogue.issue("/CN=mallory", KeyPair.generate("m").public)
    with pytest.raises(CredentialError, match="untrusted issuer"):
        trust.verify(cert, now=0.0)


def test_tampered_cert_rejected():
    ca, trust = pki()
    ident = Identity("/CN=alice", ca, trust)
    import dataclasses
    forged = dataclasses.replace(ident.certificate, subject="/CN=eve")
    with pytest.raises(CredentialError, match="bad signature"):
        trust.verify(forged, now=0.0)


def test_expired_cert_rejected():
    ca, trust = pki()
    ident = Identity("/CN=alice", ca, trust, not_after=100.0)
    trust.verify(ident.certificate, now=99.0)
    with pytest.raises(CredentialError, match="expired"):
        trust.verify(ident.certificate, now=101.0)


def test_proxy_chain_verifies_and_expires():
    ca, trust = pki()
    ident = Identity("/CN=alice", ca, trust)
    chain = ident.make_proxy(now=0.0, lifetime=3600.0)
    assert trust.verify_chain(chain, now=100.0) == "/CN=alice"
    with pytest.raises(CredentialError, match="proxy.*expired"):
        trust.verify_chain(chain, now=4000.0)


def test_broken_chain_rejected():
    ca, trust = pki()
    alice = Identity("/CN=alice", ca, trust)
    bob = Identity("/CN=bob", ca, trust)
    bad_chain = alice.make_proxy(now=0.0)[:1] + bob.chain
    with pytest.raises(CredentialError, match="chain break"):
        trust.verify_chain(bad_chain, now=0.0)


def test_empty_chain_rejected():
    ca, trust = pki()
    with pytest.raises(CredentialError, match="empty"):
        trust.verify_chain((), now=0.0)


def test_mutual_auth_succeeds_and_costs_time():
    ca, trust = pki()
    env = Environment()
    client = Identity("/CN=user", ca, trust)
    server = Identity("/CN=gridftp/host", ca, trust)
    ctx = GsiContext(trust, SecurityPolicy(crypto_time=0.05))

    def main(env):
        subjects = yield from ctx.authenticate(
            env, client.make_proxy(env.now), server.chain, rtt=0.04)
        return (env.now, subjects)

    p = env.process(main(env))
    env.run()
    t, (c, s) = p.value
    assert t == pytest.approx(2 * 0.04 + 0.1)
    assert c == "/CN=user"
    assert s == "/CN=gridftp/host"
    assert ctx.handshakes == 1


def test_mutual_auth_failure_still_costs_time():
    ca, trust = pki()
    rogue_ca = CertificateAuthority("rogue")
    rogue_trust = TrustAnchors()
    rogue_trust.trust_ca(rogue_ca)
    eve = Identity("/CN=eve", rogue_ca, rogue_trust)
    env = Environment()
    server = Identity("/CN=server", ca, trust)
    ctx = GsiContext(trust)

    def main(env):
        with pytest.raises(AuthenticationError):
            yield from ctx.authenticate(env, eve.chain, server.chain,
                                        rtt=0.04)
        return env.now

    p = env.process(main(env))
    env.run()
    assert p.value > 0
    assert ctx.rejections == 1


def test_handshake_cost_scales_with_rtt():
    policy = SecurityPolicy(crypto_time=0.01)
    assert policy.handshake_cost(0.1) > policy.handshake_cost(0.01)
    assert policy.handshake_cost(0.1) == pytest.approx(0.2 + 0.02)
