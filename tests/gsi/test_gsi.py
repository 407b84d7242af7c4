"""Tests for the GSI stand-in: certs, proxies, mutual auth."""

import dataclasses

import pytest

from repro.gsi import (
    AuthenticationError,
    Certificate,
    CertificateAuthority,
    CredentialError,
    GsiContext,
    Identity,
    KeyPair,
    SecurityPolicy,
    TrustAnchors,
)
from repro.gsi import credentials
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
    forged = dataclasses.replace(ident.certificate, subject="/CN=eve")
    with pytest.raises(CredentialError, match="bad signature"):
        trust.verify(forged, now=0.0)


def test_expired_cert_rejected():
    ca, trust = pki()
    unsigned = Certificate("/CN=alice", KeyPair.generate("alice").public,
                           ca.name, 100.0, "")
    cert = dataclasses.replace(unsigned,
                               signature=ca.keys.sign(unsigned.payload))
    trust.verify(cert, now=99.0)
    with pytest.raises(CredentialError, match="expired"):
        trust.verify(cert, now=101.0)


def test_proxy_chain_verifies_and_expires(monkeypatch):
    monkeypatch.setattr(credentials, "PROXY_LIFETIME", 3600.0)
    ca, trust = pki()
    ident = Identity("/CN=alice", ca, trust)
    chain = ident.make_proxy(now=0.0)
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


# -- each signature is checked once per signer ----------------------------------


def count_signs(monkeypatch):
    calls = []
    sign = KeyPair.sign

    def counted(self, payload):
        calls.append(payload)
        return sign(self, payload)
    monkeypatch.setattr(KeyPair, "sign", counted)
    return calls


def test_verified_chain_is_not_rehashed(monkeypatch):
    ca, trust = pki()
    chain = Identity("/CN=alice", ca, trust).make_proxy(now=0.0)
    calls = count_signs(monkeypatch)
    assert trust.verify_chain(chain, now=1.0) == "/CN=alice"
    assert len(calls) == 2
    assert trust.verify_chain(chain, now=2.0) == "/CN=alice"
    assert len(calls) == 2


@pytest.mark.parametrize("field, value", [
    ("subject", "/CN=eve"),
    ("public_key", KeyPair.generate("eve").public),
    ("issuer", "/CN=bob"),
    ("not_after", 1e9),
    ("signature", KeyPair.generate("eve").sign("x")),
])
def test_changed_field_misses_the_memo_and_fails(field, value):
    ca, trust = pki()
    bob = Identity("/CN=bob", ca, trust)
    chain = Identity("/CN=alice", ca, trust).make_proxy(now=0.0)
    trust.verify_chain(chain, now=1.0)
    trust.verify(chain[-1], now=1.0)
    proxy = dataclasses.replace(chain[0], **{field: value})
    tail = bob.chain if field == "issuer" else chain[1:]
    with pytest.raises(CredentialError, match="bad proxy signature"):
        trust.verify_chain((proxy,) + tail, now=1.0)
    if field == "issuer":
        value = "DOE Science Grid CA/sub"  # any other issuer
        trust.register_entity(value, ca.keys)
    cert = dataclasses.replace(chain[-1], **{field: value})
    with pytest.raises(CredentialError, match="bad signature"):
        trust.verify(cert, now=1.0)


def test_new_keys_for_a_name_make_its_certificates_reverify(monkeypatch):
    ca, trust = pki()
    alice = Identity("/CN=alice", ca, trust)
    chain = alice.make_proxy(now=0.0)
    trust.verify_chain(chain, now=1.0)
    trust.register_entity("/CN=alice", KeyPair.generate("stolen"))
    with pytest.raises(CredentialError, match="bad proxy signature"):
        trust.verify_chain(chain, now=1.0)
    assert chain[0] not in trust._verified  # the failed check forgot it
    calls = count_signs(monkeypatch)
    # Equal keys, but another object: the signature is checked again.
    trust.register_entity("/CN=alice", KeyPair(alice.keys.private))
    assert trust.verify_chain(chain, now=1.0) == "/CN=alice"
    assert len(calls) == 1
    fresh = CertificateAuthority(ca.name)  # same name, new key object
    trust.trust_ca(fresh)
    trust.verify_chain(chain, now=1.0)
    assert len(calls) == 2


def test_expiry_is_checked_after_a_remembered_success(monkeypatch):
    monkeypatch.setattr(credentials, "PROXY_LIFETIME", 3600.0)
    ca, trust = pki()
    chain = Identity("/CN=alice", ca, trust).make_proxy(now=0.0)
    for now in (1.0, 3599.0):
        trust.verify_chain(chain, now=now)
    assert chain[0] in trust._verified
    with pytest.raises(CredentialError, match="proxy.*expired"):
        trust.verify_chain(chain, now=3601.0)
    assert list(trust._verified) == [chain[-1]]  # the proxy's entry went


@pytest.mark.parametrize("seed", range(5))
def test_chaos_handshakes_unchanged_by_the_memo(seed, monkeypatch):
    from benchmarks.bench_chaos_survival import fingerprint, run_chaos

    def outcome():
        tb, ticket, _, _ = run_chaos(seed)
        return tb.gsi.handshakes, tb.gsi.rejections, fingerprint(ticket)

    memo = outcome()
    monkeypatch.setattr(
        TrustAnchors, "_signed",
        lambda self, cert, signer: signer.sign(cert.payload)
        == cert.signature)
    assert outcome() == memo
