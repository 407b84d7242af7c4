"""Tests for the DODS / gateway comparators."""

import pytest

from repro.baselines import (
    DodsClient,
    DodsError,
    DodsServer,
    GatewayClient,
    StorageAdapter,
)
from repro.data import ClimateModelRun, GridSpec
from repro.hosts import Host
from repro.net import (FluidNetwork, NameService, TcpParams, Topology,
                       Transport, mbps)
from repro.sim import Environment
from repro.storage import FileSystem

MB = 2 ** 20


class World:
    """Two sites joined by a WAN core."""

    def __init__(self, seed=1, wan=mbps(155), latency=0.015):
        self.env = Environment(seed=seed)
        self.topo = Topology()
        self.server_host = Host(self.topo, "srv", site="lbnl")
        self.client_host = Host(self.topo, "cli", site="anl")
        for h, r in ((self.server_host, "r1"), (self.client_host, "r2")):
            h.uplink(r)
        for r in ("r1", "r2"):
            self.topo.duplex_link(r, "core", wan, latency, name=f"wan-{r}")
        self.net = FluidNetwork(self.env, self.topo)
        self.ns = NameService(self.env)
        self.ns.register("srv.lbl.gov", "srv")
        self.transport = Transport(self.env, self.net, self.ns)
        self.server_fs = FileSystem(self.env, "srv-fs")
        self.client_fs = FileSystem(self.env, "cli-fs")

    def run(self, gen):
        p = self.env.process(gen)
        self.env.run(until=p)
        return p.value


def materialized_file(world, name="clim.nc"):
    run = ClimateModelRun(grid=GridSpec(8, 16, 12))
    blob = run.encode_year(1995, variables=("tas",))
    world.server_fs.create(name, len(blob), content=blob)
    return name, blob


# -- DODS ---------------------------------------------------------------------

def dods_world():
    w = World()
    server = DodsServer(w.env, w.server_host, w.server_fs, "srv.lbl.gov")
    client = DodsClient(w.env, w.transport, {"srv.lbl.gov": server})
    return w, server, client


def test_dods_whole_file_get():
    w, server, client = dods_world()
    w.server_fs.create("data.nc", 10 * MB)

    def main():
        return (yield from client.open_url(
            w.client_host, "srv.lbl.gov", "data.nc", w.client_fs))

    nbytes, secs, _ = w.run(main())
    assert nbytes == 10 * MB
    assert secs > 0
    assert w.client_fs.exists("data.nc")
    assert server.requests_served == 1


def test_dods_subsetting_reduces_transfer():
    w, server, client = dods_world()
    name, blob = materialized_file(w)

    def main():
        full = yield from client.open_url(
            w.client_host, "srv.lbl.gov", name, w.client_fs)
        sub = yield from client.open_url(
            w.client_host, "srv.lbl.gov", name, w.client_fs,
            variable="tas", lat=(-30.0, 30.0))
        return full[0], sub[0]

    full_bytes, sub_bytes = w.run(main())
    assert sub_bytes < full_bytes / 2


def test_dods_open_dataset_decodes():
    w, server, client = dods_world()
    name, _ = materialized_file(w)

    def main():
        ds = yield from client.open_dataset(
            w.client_host, "srv.lbl.gov", name, "tas", time=(0.0, 0.2))
        return ds

    ds = w.run(main())
    assert "tas" in ds
    assert ds["tas"].shape[0] <= 4


def test_dods_errors():
    w, server, client = dods_world()
    w.server_fs.create("sizeonly.nc", MB)

    def main():
        with pytest.raises(DodsError, match="unknown host"):
            yield from client.open_url(w.client_host, "ghost", "x",
                                       w.client_fs)
        with pytest.raises(DodsError, match="404"):
            yield from client.open_url(w.client_host, "srv.lbl.gov",
                                       "missing.nc", w.client_fs)
        with pytest.raises(DodsError, match="422"):
            yield from client.open_url(w.client_host, "srv.lbl.gov",
                                       "sizeonly.nc", w.client_fs,
                                       variable="tas")

    w.run(main())


def test_dods_no_restart_on_outage():
    """HTTP transfers die on a long outage instead of restarting."""
    w, server, client = dods_world()
    w.server_fs.create("big.nc", 200 * MB)
    link = w.topo.links["wan-r1:fwd"]

    def outage(env):
        yield env.timeout(3.0)
        link.set_down()
        w.net.reallocate()

    w.env.process(outage(w.env))

    def main():
        with pytest.raises(DodsError, match="connection reset"):
            yield from client.open_url(w.client_host, "srv.lbl.gov",
                                       "big.nc", w.client_fs)
        return w.env.now

    aborted_at = w.run(main())
    # The stall watchdog fires within one poll after stall_timeout of
    # zero progress past the outage.
    params = TcpParams()
    timeout = params.stall_timeout
    assert 3.0 + timeout < aborted_at <= (3.0 + timeout
                                          + params.poll_interval(timeout))


# -- gateway -----------------------------------------------------------------------

def test_gateway_block_translation_overhead():
    w = World()
    gw = GatewayClient(w.env, w.transport)
    gw.register_adapter("srv.lbl.gov",
                        StorageAdapter("hpss", block_bytes=4 * MB,
                                       translate_cost=0.05))
    w.server_fs.create("f.dat", 40 * MB)

    def main():
        return (yield from gw.get(w.client_host, w.server_host,
                                  "srv.lbl.gov", w.server_fs, "f.dat",
                                  w.client_fs))

    nbytes, secs = w.run(main())
    assert nbytes == 40 * MB
    assert gw.blocks_translated == 10
    assert w.client_fs.exists("f.dat")
    # At least 10 × (translate + rtt) of pure overhead.
    assert secs > 10 * 0.05


def test_gateway_requires_adapter():
    w = World()
    gw = GatewayClient(w.env, w.transport)

    def main():
        with pytest.raises(KeyError):
            yield from gw.get(w.client_host, w.server_host, "srv.lbl.gov",
                              w.server_fs, "f", w.client_fs)
        yield w.env.timeout(0)

    w.run(main())


def test_adapter_validation():
    with pytest.raises(ValueError):
        StorageAdapter("x", block_bytes=0)
    with pytest.raises(ValueError):
        StorageAdapter("x", translate_cost=-1)
