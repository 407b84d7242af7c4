"""Mutual authentication and the cost it adds to connection setup."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.gsi.credentials import (
    Certificate,
    CredentialError,
    TrustAnchors,
)
from repro.sim.core import Environment

# Extra round trips for the SSL/GSI exchange.
HANDSHAKE_RTTS = 2.0


class AuthenticationError(Exception):
    """Mutual authentication failed."""


@dataclass(frozen=True)
class SecurityPolicy:
    """Handshake cost model and authorization hook.

    GSI mutual auth over SSL costs extra round trips plus asymmetric
    crypto time on both ends; this is a visible component of small-file
    transfer latency and of the no-channel-caching dips in Figure 8.

    Attributes
    ----------
    crypto_time:
        CPU seconds spent on signature/key operations per endpoint.
    """

    crypto_time: float = 0.05

    def handshake_cost(self, rtt: float) -> float:
        """Seconds added to connection establishment."""
        return HANDSHAKE_RTTS * rtt + 2 * self.crypto_time


class GsiContext:
    """A security context pairing credentials with a trust registry."""

    def __init__(self, trust: TrustAnchors,
                 policy: SecurityPolicy = SecurityPolicy()):
        self.trust = trust
        self.policy = policy
        self.handshakes = 0  # instrumentation
        self.rejections = 0

    def authenticate(self, env: Environment,
                     client_chain: Tuple[Certificate, ...],
                     server_chain: Tuple[Certificate, ...],
                     rtt: float):
        """Simulation process: mutual authentication.

        Verifies both chains against the trust anchors, charges the
        handshake cost, and returns (client_subject, server_subject).
        Raises :class:`AuthenticationError` on any verification failure
        (after the wire cost — failures are not free).
        """
        yield env.timeout(self.policy.handshake_cost(rtt))
        try:
            client = self.trust.verify_chain(client_chain, env.now)
            server = self.trust.verify_chain(server_chain, env.now)
        except CredentialError as exc:
            self.rejections += 1
            raise AuthenticationError(str(exc)) from exc
        self.handshakes += 1
        return client, server
