"""Tests for the RM's fault-tolerance layer: retry, breakers, deadlines."""

import pytest

from repro.net.faults import FaultSchedule
from repro.netlogger import reconstruct_lifelines
from repro.rm import FileState
from repro.rm.resilience import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    FailureClass,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.scenarios.esg import EsgTestbed


class StubRng:
    """Deterministic stand-in for a sim RNG stream."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# -- RetryPolicy --------------------------------------------------------------

def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_rounds=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=10.0, max_delay=5.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


def test_retry_delay_grows_and_caps():
    p = RetryPolicy(max_rounds=5, base_delay=5.0, multiplier=2.0,
                    max_delay=18.0, jitter=0.0)
    assert p.delay(1) == pytest.approx(5.0)
    assert p.delay(2) == pytest.approx(10.0)
    assert p.delay(3) == pytest.approx(18.0)  # capped, not 20
    assert p.delay(4) == pytest.approx(18.0)
    with pytest.raises(ValueError):
        p.delay(0)


def test_retry_delay_jitter_bounds_and_determinism():
    p = RetryPolicy(base_delay=10.0, multiplier=1.0, max_delay=10.0,
                    jitter=0.25)
    # rng.random() = 0 → factor 1 - jitter; = 1 → factor 1 + jitter.
    assert p.delay(1, rng=StubRng([0.0])) == pytest.approx(7.5)
    assert p.delay(1, rng=StubRng([1.0])) == pytest.approx(12.5)
    assert p.delay(1, rng=StubRng([0.5])) == pytest.approx(10.0)
    assert p.delay(1, rng=None) == pytest.approx(10.0)


# -- CircuitBreaker -----------------------------------------------------------

def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker("h", failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker("h", reset_timeout=0.0)


def test_breaker_trips_after_threshold_and_sheds():
    b = CircuitBreaker("h", failure_threshold=3, reset_timeout=60.0)
    for t in (1.0, 2.0):
        b.record_failure(t)
        assert b.state is BreakerState.CLOSED
    b.record_failure(3.0)
    assert b.state is BreakerState.OPEN and b.trips == 1
    assert not b.allow(10.0)
    assert not b.allow(62.9)
    assert b.skips == 2


def test_breaker_half_open_probe_reopens_on_failure():
    b = CircuitBreaker("h", failure_threshold=1, reset_timeout=60.0)
    b.record_failure(0.0)
    assert b.state is BreakerState.OPEN
    assert b.allow(60.0)  # cooldown over: one probe allowed
    assert b.state is BreakerState.HALF_OPEN
    assert not b.allow(60.0)  # ...but only one
    b.record_failure(61.0)  # probe failed → straight back to OPEN
    assert b.state is BreakerState.OPEN and b.trips == 2
    assert not b.allow(100.0)


def test_breaker_half_open_probe_success_closes():
    b = CircuitBreaker("h", failure_threshold=2, reset_timeout=30.0)
    b.record_failure(0.0)
    b.record_failure(1.0)
    assert b.allow(31.0)
    b.record_success()
    assert b.state is BreakerState.CLOSED
    assert b.failures == 0 and b.opened_at is None
    # A fresh failure streak is needed to trip again.
    b.record_failure(40.0)
    assert b.state is BreakerState.CLOSED


def test_breaker_board_shares_per_host():
    board = BreakerBoard(failure_threshold=2, reset_timeout=50.0)
    a1 = board.for_host("a")
    a2 = board.for_host("a")
    b = board.for_host("b")
    assert a1 is a2 and a1 is not b
    assert a1.failure_threshold == 2 and a1.reset_timeout == 50.0
    a1.record_failure(0.0)
    a1.record_failure(1.0)
    assert not board.for_host("a").allow(2.0)
    assert board.total_trips == 1 and board.total_skips == 1
    assert board.snapshot() == {"a": "open", "b": "closed"}


# -- ResiliencePolicy ---------------------------------------------------------

def test_resilience_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_failure_threshold=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_reset_timeout=0.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(file_deadline=-1.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(ticket_deadline=0.0)


def test_resilience_policy_board_factory():
    res = ResiliencePolicy(breaker_failure_threshold=5,
                           breaker_reset_timeout=77.0)
    board = res.board()
    assert board is not res.board()  # fresh per ticket
    assert board.for_host("x").failure_threshold == 5
    assert board.for_host("x").reset_timeout == 77.0


def test_reliability_policy_clone_is_pristine():
    from repro.gridftp import ReliabilityPolicy
    policy = ReliabilityPolicy(min_rate=1000.0, grace_period=1.0,
                               consecutive_samples=2)
    policy.observe(5.0, 0.0)  # accumulate one low sample
    clone = policy.clone()
    assert clone is not policy
    assert clone.min_rate == policy.min_rate
    # The clone starts with a clean sample window: a single low sample
    # must not trigger it even though the original already has one.
    assert not clone.observe(5.0, 0.0)
    assert clone.observe(6.0, 0.0)


# -- integration: the hardened pipeline over the testbed ----------------------

def make_testbed(**kw):
    tb = EsgTestbed(seed=11, **kw)
    tb.warm_nws(90.0)
    return tb


def one_file(tb):
    ds = tb.dataset_ids()[0]
    return ds, tb.metadata_catalog.resolve(ds, "tas")[0]


def test_cancel_mid_backoff_exits_promptly():
    """A cancelled ticket must not sit out the full backoff delay."""
    res = ResiliencePolicy(retry=RetryPolicy(
        max_rounds=2, base_delay=500.0, multiplier=1.0,
        max_delay=500.0, jitter=0.0))
    tb = make_testbed(resilience=res)
    # Catalog down for the whole run: round 1's lookup fails fast, so
    # every file thread enters the 500 s backoff before round 2.
    tb.fault_injector().install(
        FaultSchedule().catalog_outage(0.0, 10_000.0, mode="fail"))
    ds, name = one_file(tb)
    t0 = tb.env.now
    ticket = tb.request_manager.submit([(ds, name)])

    def canceller():
        yield tb.env.timeout(5.0)
        ticket.cancel("user gave up")

    tb.env.process(canceller())
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.CANCELLED
    # Prompt: well before the 500 s backoff would have elapsed.
    assert tb.env.now - t0 < 10.0


def test_file_deadline_fails_file_as_deadline_class():
    tb = make_testbed(file_size_override=400 * 2**20)
    ds, name = one_file(tb)
    ticket = tb.request_manager.submit([(ds, name)], file_deadline=5.0)
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.FAILED
    assert fr.failure_class is FailureClass.DEADLINE
    assert fr.finished_at == pytest.approx(fr.deadline_at)
    assert ticket.done.triggered and ticket.complete


def test_no_replicas_is_permanent_lookup_failure():
    """No replicas never retries: it fails once, classified LOOKUP."""
    res = ResiliencePolicy(retry=RetryPolicy(max_rounds=4,
                                             base_delay=100.0,
                                             max_delay=100.0))
    tb = make_testbed(resilience=res)
    ds = tb.dataset_ids()[0]
    t0 = tb.env.now
    ticket = tb.request_manager.submit([(ds, "ghost.nc")])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.FAILED
    assert fr.failure_class is FailureClass.LOOKUP
    assert tb.env.now - t0 < 50.0  # no backoff rounds were paid


def test_mds_outage_degrades_ranking_but_completes():
    """MDS down at submit: ranking falls back, the transfer still runs."""
    tb = make_testbed(resilience=ResiliencePolicy())
    tb.fault_injector().install(
        FaultSchedule().mds_outage(0.0, 3_000.0, mode="fail"))
    ds, name = one_file(tb)
    ticket = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    assert fr.degraded_rankings >= 1
    assert fr.failure_class is None


def test_degraded_ranking_joins_only_its_own_tickets_lifeline():
    """Two tickets move one file; only the second ranks during the MDS
    outage, so only its lifeline carries ``rm.rank.degraded`` although
    the first is still open when the record is written."""
    tb = make_testbed(resilience=ResiliencePolicy(),
                      file_size_override=400 * 2**20)
    tb.fault_injector().install(
        FaultSchedule().mds_outage(10.0, 5.0, mode="fail"))
    ds, name = one_file(tb)
    healthy = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=tb.env.now + 12.0)
    degraded = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=tb.env.all_of([healthy.done, degraded.done]))
    assert healthy.files[0].degraded_rankings == 0
    assert degraded.files[0].degraded_rankings == 1
    records = {life.ticket: [r for r in life.events
                             if r.event == "rm.rank.degraded"]
               for life in reconstruct_lifelines(tb.logger.records)}
    [rank] = records[degraded.id_text]
    assert healthy.files[0].finished_at > rank.t
    assert records[healthy.id_text] == []


def test_retry_round_recovers_after_catalog_outage():
    """Lookup fails in round 1, the backoff outlives the outage, and
    round 2 completes the file."""
    res = ResiliencePolicy(retry=RetryPolicy(
        max_rounds=2, base_delay=30.0, multiplier=1.0, max_delay=30.0,
        jitter=0.0))
    tb = make_testbed(resilience=res)
    tb.fault_injector().install(
        FaultSchedule().catalog_outage(0.0, 20.0, mode="fail"))
    ds, name = one_file(tb)
    ticket = tb.request_manager.submit([(ds, name)])
    tb.env.run(until=ticket.done)
    fr = ticket.files[0]
    assert fr.state is FileState.DONE
    assert fr.failure_class is None
