"""Acceptance test for the observability tentpole.

One seeded demo run must yield, from the shared ULM log alone:
complete lifelines for every requested file whose per-stage durations
telescope to the observed transfer time; nonzero transfer counters and
latency histograms; and a causal span tree for the ticket.
"""

import pytest

from repro.esg import EarthSystemGrid
from repro.netlogger import NetLogger, reconstruct_lifelines
from repro.obs.trace import render_trace
from repro.rm import TransferMonitor
from repro.scenarios.esg import EsgTestbed


@pytest.fixture(scope="module")
def run():
    esg = EarthSystemGrid.demo_testbed(seed=7)
    result, _ = esg.fetch_and_analyze("pcmdi.ncar_csm.run1", "tas",
                                      months=(6, 8))
    return esg.testbed, result


def test_every_file_has_a_complete_telescoping_lifeline(run):
    tb, result = run
    lifelines = {life.file: life for life in reconstruct_lifelines(tb.logger.records)}
    assert result.logical_files
    for name in result.logical_files:
        life = lifelines[name]
        assert life.outcome == "done"
        assert life.complete
        assert life.ttfb is not None and life.ttfb > 0
        # per-stage durations sum exactly to request→done wall time
        assert sum(life.stage_totals().values()) == \
            pytest.approx(life.finished_at - life.requested_at)


def test_metrics_registry_saw_the_transfers(run):
    tb, result = run
    metrics = tb.obs.metrics
    n = len(result.logical_files)
    assert metrics.counter("rm.transfers_total").total == n
    hist = metrics.histogram("rm.transfer_seconds")
    assert sum(hist._counts.values()) == n
    assert sum(metrics.histogram("rm.ttfb_seconds")._counts.values()) == n
    assert metrics.counter("gridftp.transfers_total").total >= n
    text = metrics.render_prometheus()
    assert "rm_transfers_total" in text
    assert "rm_transfer_seconds_bucket" in text


def test_ticket_span_tree_covers_the_pipeline(run):
    tb, result = run
    trace_id = f"ticket-{result.ticket.id}"
    spans = [s for s in tb.obs.tracer.spans if s.trace_id == trace_id]
    names = [s.name for s in spans]
    assert "rm.ticket" in names[0:1] or names[0].startswith("rm")
    assert names.count("rm.file") == len(result.logical_files)
    assert "rm.attempt" in names
    assert all(not s.open for s in spans)
    tree = render_trace(tb.obs.tracer.spans, trace_id)
    assert tree.startswith(f"trace {trace_id}")
    assert "rm.file" in tree


def test_monitor_renders_lifeline_events_and_samples_gauge():
    tb = EsgTestbed(seed=11)
    tb.warm_nws(90.0)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:2]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    monitor = TransferMonitor(tb.env, tb.request_manager, ticket,
                              period=1.0, obs=tb.obs)
    tb.env.process(monitor.run())
    tb.env.run(until=ticket.done)
    tb.env.run(until=tb.env.now + 2.0)  # let the final sample land
    out = monitor.render()
    # the Messages pane now shows this ticket's ULM lifeline events
    assert "rm.request" in out
    assert "rm.transfer.done" in out
    assert "--- Messages ---" in out
    gauge = tb.obs.metrics.gauge("monitor.sample")
    assert gauge.value(ticket=str(ticket.id)) == \
        pytest.approx(ticket.bytes_done)


def test_ring_buffer_caps_the_log_and_counts_drops():
    tb = EsgTestbed(seed=5, log_capacity=12)
    tb.warm_nws(120.0)
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:5]
    ticket = tb.request_manager.submit([(ds, n) for n in names])
    tb.env.run(until=ticket.done)
    log = tb.logger
    assert isinstance(log, NetLogger)
    assert len(log.records) <= 12
    assert log.emitted > 12
    assert log.dropped == log.emitted - len(log.records)
    # the survivors are the newest records
    times = [r.t for r in log.records]
    assert times == sorted(times)


def test_fleet_recorders_stay_bounded_by_the_ring():
    """A 512-user fleet on a 256-record log: every span the tracer
    shows is backed by a record still in the ring, and no request
    manager keeps a per-message list beside the log."""
    from repro.scenarios.esg import fleet_config
    tb = EsgTestbed(seed=2, with_tape=False, file_size_override=2**20,
                    aggregation_threshold=2, log_capacity=256)
    tb.warm_nws(60.0)
    rms = tb.add_fleet(512, users_per_pop=64, config=fleet_config())
    ds = tb.dataset_ids()[0]
    names = tb.metadata_catalog.resolve(ds, "tas")[:4]
    tickets = [rm.submit([(ds, names[i % 4])]) for i, rm in enumerate(rms)]

    def spans_backed_by_ring():
        records = list(tb.logger.records)
        requests = [r for r in records if r.event == "rm.request"]
        attempts = [r for r in records if r.event == "rm.attempt"]
        tickets_seen = {r.fields["ticket"] for r in requests}
        return len(tickets_seen) + len(requests) + len(attempts)

    tb.env.run(until=tb.env.now + 0.05)      # mid-flight
    assert 0 < len(tb.obs.tracer.spans) == spans_backed_by_ring()
    tb.env.run(until=tb.env.all_of([t.done for t in tickets]))
    assert all(t.complete and not t.failed_files for t in tickets)
    assert tb.logger.emitted > 10 * len(tb.logger.records)
    assert len(tb.obs.tracer.spans) == spans_backed_by_ring()
    for rm in rms:
        # one ticket each: nothing else may grow per message
        assert all(len(v) <= 1 for v in vars(rm).values()
                   if isinstance(v, list))
