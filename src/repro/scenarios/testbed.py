"""The Globus substrate under every testbed: the network, DNS, TCP
transport, GSI trust and GridFTP servers that Table 1, Figure 8 and the
Figure 1 prototype all run on. Each scenario adds only its topology,
workload and SC'2000 calibrations."""

from __future__ import annotations

from typing import Dict, Optional

from repro.gridftp.client import GridFtpClient
from repro.gridftp.server import GridFtpServer
from repro.gsi.auth import GsiContext, SecurityPolicy
from repro.gsi.credentials import CertificateAuthority, Identity, TrustAnchors
from repro.net.dns import NameService
from repro.net.fluid import FluidNetwork
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.sim.core import Environment


class Testbed:
    """Environment, network, DNS, transport, GSI trust and one user.

    ``name`` names the topology, ``ca_name`` the authority that issues
    every identity, and ``user_subject`` the user; ``crypto_time`` is
    the :class:`~repro.gsi.auth.SecurityPolicy` cost and
    ``aggregation_threshold`` goes to the
    :class:`~repro.net.fluid.FluidNetwork`.
    """

    def __init__(self, seed: int, name: str, ca_name: str,
                 user_subject: str, crypto_time: float,
                 aggregation_threshold: Optional[int]):
        self.env = env = Environment(seed=seed)
        self.topology = Topology(name)
        self.network = FluidNetwork(
            env, self.topology, aggregation_threshold=aggregation_threshold)
        self.dns = NameService(env)
        self.transport = Transport(env, self.network, self.dns)
        self.ca = CertificateAuthority(ca_name)
        self.trust = TrustAnchors()
        self.trust.trust_ca(self.ca)
        self.gsi = GsiContext(self.trust,
                              SecurityPolicy(crypto_time=crypto_time))
        self.user = Identity(user_subject, self.ca, self.trust)
        self.registry: Dict[str, GridFtpServer] = {}

    def add_server(self, host, fs, hostname: str,
                   **server_options) -> GridFtpServer:
        """A GridFTP server on ``host`` serving ``fs`` as ``hostname``,
        in DNS and the registry, with its own certificate."""
        self.dns.register(hostname, host.node)
        identity = Identity(f"/CN=gridftp/{hostname}", self.ca, self.trust)
        server = GridFtpServer(self.env, host, fs, gsi=self.gsi,
                               credential_chain=identity.chain,
                               hostname=hostname, **server_options)
        self.registry[hostname] = server
        return server

    def user_client(self, **client_options) -> GridFtpClient:
        """A GridFTP client acting for the user (it delegates its own
        proxies)."""
        return GridFtpClient(self.env, self.transport, self.registry,
                             identity=self.user, **client_options)
