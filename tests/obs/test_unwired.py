"""Components built without ``obs`` hold the unwired bundle.

Every instrumented component keeps an :class:`~repro.obs.Observability`
whether or not one was passed in; only ``repro.obs`` decides whether a
leg is wired. An unwired run must simulate exactly what a wired run
does — instrumentation is observation, never behaviour.
"""

import numpy as np
import pytest

from repro.campaign import CampaignManifest, ReplicationCampaign
from repro.gridftp import GridFtpConfig, GridFtpServer
from repro.gridftp.derived_cache import DerivedProductCache
from repro.mds import MdsService
from repro.net import MB, FaultInjector, FaultSchedule
from repro.nws import NetworkWeatherService
from repro.obs import Observability
from repro.replica import (
    FederatedReplicaCatalog,
    NwsBestPolicy,
    NwsSpreadPolicy,
    RandomPolicy,
    ReplicaCatalog,
    RoundRobinPolicy,
)
from repro.rm import (
    BreakerBoard,
    CircuitBreaker,
    RequestManager,
    ResiliencePolicy,
    TransferMonitor,
)
from repro.rm.request import RequestTicket
from repro.rm.scheduler import TransferScheduler
from repro.storage import (
    HierarchicalResourceManager,
    MassStorageSystem,
    TapeLibrary,
)

from tests.gridftp.conftest import Grid


def _rm(grid):
    return RequestManager(grid.env, ReplicaCatalog(grid.env),
                          MdsService(grid.env), grid.client, grid.registry,
                          grid.client_host, grid.client_fs)


def _hrm(grid):
    mss = MassStorageSystem(grid.env, cache_capacity=100 * MB)
    return HierarchicalResourceManager(grid.env, mss, grid.server_fs)


COMPONENTS = {
    "GridFtpClient": lambda g: g.client,
    "GridFtpServer": lambda g: GridFtpServer(g.env, g.server_host,
                                             g.server_fs),
    "DerivedProductCache": lambda g: DerivedProductCache(MB),
    "GridFtpServer.derived_cache": lambda g: g.server.derived_cache,
    "TransferMonitor": lambda g: TransferMonitor(
        g.env, _rm(g), RequestTicket(g.env, [])),
    "CircuitBreaker": lambda g: CircuitBreaker("srv.lbl.gov"),
    "BreakerBoard": lambda g: BreakerBoard(),
    "ResiliencePolicy.board": lambda g: ResiliencePolicy().board(),
    "BreakerBoard.for_host": lambda g: BreakerBoard().for_host("srv"),
    "TransferScheduler": lambda g: TransferScheduler(g.env),
    "RequestManager": _rm,
    "RequestManager.policy": lambda g: _rm(g).policy,
    "ReplicationCampaign": lambda g: ReplicationCampaign(
        g.env, _rm(g), CampaignManifest([]), {}),
    "FaultInjector": lambda g: FaultInjector(g.env, g.net, g.ns),
    "NetworkWeatherService": lambda g: NetworkWeatherService(g.env, g.net),
    "MassStorageSystem": lambda g: MassStorageSystem(g.env, 100 * MB),
    "TapeLibrary": lambda g: TapeLibrary(g.env),
    "MassStorageSystem.tape": lambda g: MassStorageSystem(
        g.env, 100 * MB).tape,
    "HierarchicalResourceManager": _hrm,
    "FederatedReplicaCatalog": lambda g: FederatedReplicaCatalog(
        g.env, ["lbnl", "anl"]),
    "NwsBestPolicy": lambda g: NwsBestPolicy(),
    "NwsSpreadPolicy": lambda g: NwsSpreadPolicy(),
    "RandomPolicy": lambda g: RandomPolicy(np.random.default_rng(0)),
    "RoundRobinPolicy": lambda g: RoundRobinPolicy(),
}


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_component_defaults_to_unwired_bundle(name):
    component = COMPONENTS[name](Grid())
    assert isinstance(component.obs, Observability)
    assert component.obs.logger is None
    assert component.obs.metrics is None


def test_rm_shares_its_bundle_with_the_default_policy():
    grid = Grid()
    rm = _rm(grid)
    assert rm.policy.obs is rm.obs
    wired = Observability.create(grid.env)
    rm = RequestManager(grid.env, ReplicaCatalog(grid.env),
                        MdsService(grid.env), grid.client, grid.registry,
                        grid.client_host, grid.client_fs, obs=wired)
    assert rm.policy.obs is wired


def _outage_get(wired):
    """A 200 MiB GridFTP get across a 10 s WAN outage."""
    grid = Grid()
    obs = Observability.create(grid.env) if wired else None
    if wired:
        grid.client.obs = obs
        grid.server.obs = obs
    grid.server_fs.create("data.nc", 200 * MB)
    sched = FaultSchedule().link_outage("wan:fwd", start=1.0, duration=10.0)
    injector = FaultInjector(grid.env, grid.net, grid.ns, obs=obs)
    injector.install(sched)
    cfg = GridFtpConfig(parallelism=2, buffer_bytes=MB, retry_backoff=1.0,
                        stall_timeout=4.0)

    def main():
        session = yield from grid.client.connect(grid.client_host,
                                                 "srv.lbl.gov", cfg)
        return (yield from session.get("data.nc", grid.client_fs,
                                       grid.client_host, config=cfg))

    stats = grid.run_process(main())
    outcome = (stats.transferred_bytes, stats.restarts, stats.faults,
               stats.finished_at, grid.client_fs.stat("data.nc").size,
               grid.env.now)
    return outcome, injector.obs


def test_unwired_outage_run_matches_wired_run():
    unwired, unwired_obs = _outage_get(wired=False)
    wired, wired_obs = _outage_get(wired=True)
    assert unwired == wired
    assert unwired[1] >= 1                     # the outage cost a restart
    assert unwired_obs.logger is None
    names = [r.event for r in wired_obs.logger]
    assert names.count("fault.begin") == names.count("fault.end") == 1
    assert "gridftp.first_byte" in names
