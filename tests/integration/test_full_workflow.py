"""End-to-end integration: the complete §7 demonstration as one test.

"First, we selected parameters to be visualized... the CDAT system
consulted its metadata database and identified the logical files of
interest. The CDAT system passed these logical file names to the
request manager, which performed replica selection and initiated
gridFTP data transfers... Once data transfer was complete, the CDAT
system analyzed and visualized the desired data."
"""

import numpy as np
import pytest

from repro.cdat import render_field, time_mean
from repro.data import GridSpec
from repro.esg import EarthSystemGrid
from repro.rm import TransferMonitor
from repro.scenarios import EsgTestbed


@pytest.fixture(scope="module")
def esg():
    return EarthSystemGrid(EsgTestbed(
        seed=3, materialize=True,
        grid=GridSpec(nlat=24, nlon=48, months=12)))


def test_complete_demo_flow(esg):
    tb = esg.testbed
    # 1. Selection (Figure 2).
    listing = esg.browse()
    assert {e["dataset"] for e in listing} == {"pcmdi.ncar_csm.run1",
                                               "pcmdi.pcm.b06.22"}
    # 2-4. Metadata → RM → replica selection → GridFTP → analysis.
    result, viz = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas",
                                        months=(1, 6))
    # Files landed locally with content.
    for name in result.logical_files:
        f = tb.client_fs.stat(name)
        assert f.content is not None and f.size == len(f.content)
    # Data identical to the generator's ground truth.
    from repro.data import ClimateModelRun
    truth_run = ClimateModelRun(model="NCAR_CSM", run="run1",
                                grid=tb.grid)
    truth = truth_run.generate_year(1995)
    np.testing.assert_allclose(result.dataset["tas"].data,
                               truth["tas"].data[:6], rtol=1e-12)
    # 5. Visualization (Figure 3).
    assert "scale:" in viz
    field = time_mean(result.dataset, "tas")
    assert field.shape == (24, 48)
    # Components actually involved:
    assert tb.gsi.handshakes >= 6
    assert tb.mds.directory.operations >= 6
    assert len(tb.logger.select(event="rm.transfer.done")) >= 6


def test_monitoring_and_logging_during_demo(esg):
    tb = esg.testbed
    ds = "pcmdi.pcm.b06.22"
    names = tb.metadata_catalog.resolve(ds, "pr")[:4]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    monitor = TransferMonitor(tb.env, tb.request_manager, ticket,
                              period=0.5)
    tb.env.process(monitor.run())
    tb.env.run(until=ticket.done)
    assert ticket.complete and not ticket.failed_files
    rendering = monitor.render()
    assert all(n in rendering for n in names)
    # NetLogger has a record per completed transfer.
    assert tb.logger.select(event="rm.transfer.done")


def test_second_fetch_benefits_from_warm_forecasts(esg):
    """After real transfers, NWS observations sharpen selection: the
    same fetch repeats without failures and completes quickly."""
    tb = esg.testbed
    result, _ = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "clt",
                                      months=(1, 2), warm_nws=0.0)
    assert not result.ticket.failed_files
    # Observed pairs include the sites used earlier.
    assert len(tb.nws.monitored_pairs()) >= 7
