"""Shared fixtures: a two-site grid with GridFTP endpoints."""

import pytest

from repro.gsi import (
    CertificateAuthority,
    GsiContext,
    Identity,
    SecurityPolicy,
    TrustAnchors,
)
from repro.gridftp import GridFtpClient, GridFtpConfig, GridFtpServer
from repro.hosts import CpuModel, DiskArray, DiskSpec, Host, HostSpec
from repro.net import (
    FluidNetwork,
    NameService,
    Topology,
    Transport,
    gbps,
    mbps,
)
from repro.sim import Environment
from repro.storage import FileSystem


class Grid:
    """A tiny two-site testbed for GridFTP tests."""

    def __init__(self, seed=9, wan=mbps(622), latency=0.008,
                 server_spec=None, client_spec=None, secure=True):
        self.env = Environment(seed=seed)
        self.topo = Topology("test-grid")
        default = HostSpec(nic_rate=gbps(1), bus_rate=None,
                           cpu=CpuModel(coalesce=8),
                           disk=DiskArray(DiskSpec(rate=60 * 2**20),
                                          count=4))
        self.server_host = Host(self.topo, "srv", site="lbnl",
                                spec=server_spec or default)
        self.client_host = Host(self.topo, "cli", site="anl",
                                spec=client_spec or default)
        self.server_host.uplink("r-lbnl")
        self.client_host.uplink("r-anl")
        self.topo.duplex_link("r-lbnl", "r-anl", wan, latency, name="wan")
        self.net = FluidNetwork(self.env, self.topo)
        self.ns = NameService(self.env)
        self.ns.register("srv.lbl.gov", "srv")
        self.transport = Transport(self.env, self.net, self.ns)
        self.server_fs = FileSystem(self.env, "srv-fs")
        self.client_fs = FileSystem(self.env, "cli-fs")
        if secure:
            ca = CertificateAuthority("DOE CA")
            self.trust = TrustAnchors()
            self.trust.trust_ca(ca)
            self.gsi = GsiContext(self.trust,
                                  SecurityPolicy(crypto_time=0.02))
            server_id = Identity("/CN=gridftp/srv.lbl.gov", ca, self.trust)
            user = Identity("/CN=climate-user", ca, self.trust)
            server_chain = server_id.chain
        else:
            self.gsi = None
            server_chain = ()
            user = None
        self.server = GridFtpServer(self.env, self.server_host,
                                    self.server_fs, gsi=self.gsi,
                                    credential_chain=server_chain,
                                    hostname="srv.lbl.gov")
        self.registry = {"srv.lbl.gov": self.server}
        self.client = GridFtpClient(self.env, self.transport, self.registry,
                                    identity=user,
                                    config=GridFtpConfig())

    def run_process(self, gen):
        """Drive a client generator to completion; return its value."""
        p = self.env.process(gen)
        self.env.run(until=p)
        return p.value


@pytest.fixture
def grid():
    return Grid()


@pytest.fixture
def insecure_grid():
    return Grid(secure=False)
