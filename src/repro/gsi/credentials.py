"""Toy certificates, CAs, and delegated proxies.

Signatures are keyed SHA-256 digests: sign(payload) with a private key is
``sha256(private || payload)``, and verification recomputes with the
claimed signer's private key via the trust registry. This is obviously
not real public-key cryptography — it preserves the *structure* (who can
mint what, what a verifier must check, how delegation chains extend)
without pulling in a crypto library.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

# Seconds a delegated proxy stays valid.
PROXY_LIFETIME = 12 * 3600.0


class CredentialError(Exception):
    """A credential is malformed, expired, or has a bad signature."""


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class KeyPair:
    """A toy keypair: public = H(private)."""

    private: str

    @property
    def public(self) -> str:
        return _digest("pub", self.private)

    @classmethod
    def generate(cls, seed: str) -> "KeyPair":
        return cls(private=_digest("priv", seed))

    def sign(self, payload: str) -> str:
        """Keyed digest over ``payload``."""
        return _digest("sig", self.private, payload)


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to a public key.

    ``issuer`` names the signer; ``not_after`` is simulated time.
    """

    subject: str
    public_key: str
    issuer: str
    not_after: float
    signature: str

    @property
    def payload(self) -> str:
        return _digest("cert", self.subject, self.public_key, self.issuer,
                       repr(self.not_after))

    def is_expired(self, now: float) -> bool:
        return now > self.not_after


@dataclass(frozen=True)
class ProxyCertificate(Certificate):
    """A short-lived credential signed by an end-entity (delegation)."""


class CertificateAuthority:
    """Mints end-entity certificates (they never expire)."""

    def __init__(self, name: str):
        self.name = name
        self.keys = KeyPair.generate(f"ca:{name}")

    def issue(self, subject: str, public_key: str) -> Certificate:
        """Sign a certificate for ``subject``."""
        not_after = float("inf")
        unsigned = Certificate(subject, public_key, self.name, not_after, "")
        return Certificate(subject, public_key, self.name, not_after,
                           self.keys.sign(unsigned.payload))


class TrustAnchors:
    """The verifier's set of trusted CAs (and known end entities).

    With toy symmetric signatures, verification needs the signer's key
    material, so the registry holds :class:`KeyPair` per name; what
    matters for the model is *which* names a site chooses to trust.
    """

    def __init__(self):
        self._keys: Dict[str, KeyPair] = {}

    def trust_ca(self, ca: CertificateAuthority) -> None:
        """Add a CA to the trusted set."""
        self._keys[ca.name] = ca.keys

    def register_entity(self, name: str, keys: KeyPair) -> None:
        """Record an end entity's keys (needed to check proxy signatures)."""
        self._keys[name] = keys

    def verify(self, cert: Certificate, now: float) -> None:
        """Raise :class:`CredentialError` unless the cert checks out."""
        if cert.is_expired(now):
            raise CredentialError(f"certificate for {cert.subject!r} "
                                  f"expired at {cert.not_after}")
        signer = self._keys.get(cert.issuer)
        if signer is None:
            raise CredentialError(f"untrusted issuer {cert.issuer!r}")
        if signer.sign(cert.payload) != cert.signature:
            raise CredentialError(f"bad signature on {cert.subject!r}")

    def verify_chain(self, chain: Tuple[Certificate, ...], now: float) -> str:
        """Verify an end-entity + proxies chain; returns the subject.

        The chain is ordered leaf-first: [proxy..., end-entity-cert]. Each
        proxy must be signed by the next element's subject.
        """
        if not chain:
            raise CredentialError("empty credential chain")
        for cert, parent in zip(chain, chain[1:]):
            if cert.issuer != parent.subject:
                raise CredentialError(
                    f"chain break: {cert.subject!r} issued by "
                    f"{cert.issuer!r}, expected {parent.subject!r}")
        self.verify(chain[-1], now)
        for cert in chain[:-1]:
            if cert.is_expired(now):
                raise CredentialError(
                    f"proxy for {cert.subject!r} expired")
            signer = self._keys.get(cert.issuer)
            if signer is None:
                raise CredentialError(
                    f"unknown delegator {cert.issuer!r}")
            if signer.sign(cert.payload) != cert.signature:
                raise CredentialError(f"bad proxy signature "
                                      f"({cert.subject!r})")
        return chain[-1].subject


class Identity:
    """An end entity: keys, a CA-issued certificate, and proxy minting."""

    _serial = itertools.count(1)

    def __init__(self, subject: str, ca: CertificateAuthority,
                 trust: TrustAnchors):
        self.subject = subject
        self.keys = KeyPair.generate(f"id:{subject}:{next(self._serial)}")
        self.certificate = ca.issue(subject, self.keys.public)
        trust.register_entity(subject, self.keys)
        self.chain: Tuple[Certificate, ...] = (self.certificate,)

    def make_proxy(self, now: float) -> Tuple[Certificate, ...]:
        """Mint a delegated proxy chain valid for ``PROXY_LIFETIME``
        seconds."""
        proxy_subject = f"{self.subject}/proxy"
        proxy_keys = KeyPair.generate(f"proxy:{proxy_subject}:{now}")
        not_after = now + PROXY_LIFETIME
        unsigned = ProxyCertificate(proxy_subject, proxy_keys.public,
                                    self.subject, not_after, "")
        proxy = ProxyCertificate(proxy_subject, proxy_keys.public,
                                 self.subject, not_after,
                                 self.keys.sign(unsigned.payload))
        return (proxy,) + self.chain

    def __repr__(self) -> str:
        return f"Identity({self.subject!r})"
