"""Multi-window burn-rate SLO engine."""

import pytest

from repro.obs import Observability
from repro.obs.slo import SloAlert, SloEngine, SloSpec
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def obs(env):
    return Observability.create(env)


def make_engine(env, obs, **spec_kw):
    engine = SloEngine(env, obs, eval_interval=15.0)
    kw = dict(name="ttfb", objective="p95_ttfb", threshold=1.0,
              tenant="t", long_window=60.0, short_window=30.0)
    kw.update(spec_kw)
    engine.add(SloSpec(**kw))
    return engine


def step(env, engine, seconds=15.0):
    env.run(until=env.now + seconds)
    return engine.evaluate()[0]


# -- spec validation --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SloSpec("x", "p99_made_up", threshold=1.0)
    with pytest.raises(ValueError):
        SloSpec("x", "p95_ttfb", threshold=0.0)
    with pytest.raises(ValueError):
        SloSpec("x", "p95_ttfb", threshold=1.0, error_budget=1.0)
    with pytest.raises(ValueError):
        SloSpec("x", "p95_ttfb", threshold=1.0,
                long_window=10.0, short_window=30.0)
    with pytest.raises(ValueError):
        SloEngine(Environment(), None, eval_interval=0.0)


def test_duplicate_spec_names_rejected(env, obs):
    engine = make_engine(env, obs)
    with pytest.raises(ValueError):
        engine.add(SloSpec("ttfb", "p95_ttfb", threshold=2.0))


def test_tenant_label_selector():
    assert SloSpec("a", "p95_ttfb", 1.0, tenant="x").labels == \
        {"tenant": "x"}
    assert SloSpec("a", "p95_ttfb", 1.0).labels == {}


# -- burn computation -------------------------------------------------------

def test_no_traffic_burns_nothing(env, obs):
    engine = make_engine(env, obs)
    ev = step(env, engine)
    assert ev.value_long is None
    assert ev.burn_long == 0.0
    assert not ev.breaching
    assert engine.alerts == []


def test_latency_burn_opens_and_closes_an_alert(env, obs):
    engine = make_engine(env, obs)
    # every request blows the 1 s bound: 100% of budget-relevant
    # traffic is bad, burn = 1.0 / 0.05 = 20x in both windows.
    for _ in range(20):
        obs.observe("rm.tenant_ttfb_seconds", 10.0, tenant="t")
    ev = step(env, engine)
    assert ev.breaching
    assert ev.burn_long == pytest.approx(20.0)
    assert ev.value_long == pytest.approx(10.0, rel=0.5)  # windowed p95
    assert len(engine.alerts) == 1 and engine.alerts[0].open
    assert engine.alerts[0].tenant == "t"

    # breach artifacts: ULM event, counter, faults-trace span
    events = [r for r in obs.logger.records
              if r.event == "slo.breach.begin"]
    assert len(events) == 1
    assert events[0].fields["slo"] == "ttfb"
    assert obs.metrics.counter("slo.breaches_total") \
        .value(slo="ttfb") == 1.0
    spans = [s for s in obs.tracer.spans
             if s.trace_id == "faults" and s.name == "slo.breach"]
    assert len(spans) == 1 and spans[0].open

    # now only fast requests; once the bad window ages out of both
    # windows the burn drops and the alert closes.
    for _ in range(6):
        for _ in range(20):
            obs.observe("rm.tenant_ttfb_seconds", 0.001, tenant="t")
        ev = step(env, engine)
    assert not ev.breaching
    alert = engine.alerts[0]
    assert not alert.open and alert.closed_at is not None
    assert alert.peak_burn >= 20.0
    ends = [r for r in obs.logger.records if r.event == "slo.breach.end"]
    assert len(ends) == 1
    # spans are a view rebuilt from the log: read it again
    spans = [s for s in obs.tracer.spans if s.name == "slo.breach"]
    assert len(spans) == 1
    assert not spans[0].open and spans[0].status == "recovered"
    assert float(spans[0].fields["peak_burn"]) == \
        pytest.approx(alert.peak_burn, abs=0.01)


def test_breach_requires_both_windows_burning(env, obs):
    engine = make_engine(env, obs)
    # bad traffic, then three quiet short-windows: the long window
    # still remembers the damage but the short window has recovered,
    # so the engine must NOT page (SRE multi-window rule).
    for _ in range(20):
        obs.observe("rm.tenant_ttfb_seconds", 10.0, tenant="t")
    env.run(until=engine.eval_interval)   # snapshot the bad state
    engine.evaluate()
    engine.alerts.clear()                 # ignore the initial page
    for _ in range(20):
        obs.observe("rm.tenant_ttfb_seconds", 0.001, tenant="t")
    ev = step(env, engine, seconds=30.0)
    assert ev.burn_long > 1.0             # sustained damage visible
    assert ev.burn_short < 1.0            # but not happening now
    assert not ev.breaching


def test_goodput_floor_burn(env, obs):
    engine = make_engine(env, obs, name="goodput",
                         objective="goodput_floor", threshold=1000.0)
    # silence is not a breach (no requests != slow requests)
    ev = step(env, engine)
    assert ev.burn_long == 0.0 and not ev.breaching
    # 1500 B over 30 s of monitoring = 50 B/s against a 1000 B/s
    # floor: burn 20x, breach.
    obs.count("rm.tenant_bytes_total", 100.0 * 15.0, tenant="t")
    ev = step(env, engine)
    assert ev.value_long == pytest.approx(50.0)
    assert ev.burn_long == pytest.approx(20.0)
    assert ev.breaching
    # 10 kB/s beats the floor comfortably: alert closes.
    for _ in range(5):
        obs.count("rm.tenant_bytes_total", 10_000.0 * 15.0, tenant="t")
        ev = step(env, engine)
    assert not ev.breaching
    assert all(not a.open for a in engine.alerts)


def test_periodic_start_is_idempotent(env, obs):
    engine = make_engine(env, obs)
    ticks = []
    evaluate = engine.evaluate

    def recording():
        ticks.append(env.now)
        return evaluate()

    engine.evaluate = recording
    engine.start()
    engine.start()
    env.run(until=61.0)
    # one evaluator: 4 ticks at 15/30/45/60, not 8
    assert ticks == [15, 30, 45, 60]


def test_summary_rows(env, obs):
    engine = make_engine(env, obs)
    engine.add(SloSpec("queue", "queue_wait_p95", threshold=5.0))
    for _ in range(10):
        obs.observe("rm.tenant_ttfb_seconds", 10.0, tenant="t")
    step(env, engine)
    rows = {r["slo"]: r for r in engine.summary()}
    assert rows["ttfb"]["breaching"] and rows["ttfb"]["open"] == 1
    assert rows["ttfb"]["tenant"] == "t"
    assert rows["queue"]["tenant"] == "-"
    assert not rows["queue"]["breaching"]
    assert rows["queue"]["alerts"] == 0


def test_alert_dataclass_open_property():
    a = SloAlert("x", "t", opened_at=1.0)
    assert a.open
    a.closed_at = 2.0
    assert not a.open
