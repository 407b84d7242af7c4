"""Critical-path extraction and bottleneck attribution.

Unit cases build lifelines from hand-written ULM logs; the chaos case
(satellite of the observability PR) replays every seeded chaos run and
pins the telescoping identity — blame self-times sum to end-to-end
latency — to 1e-6 across fault injection, retries, and replica swaps.
"""

import pytest

from repro.netlogger import LifeStage, LogRecord, reconstruct_lifelines
from repro.obs.critical_path import (BLAME_STAGES, attribute_bottleneck,
                                     extract_critical_path,
                                     extract_critical_paths)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import Environment


def telescopes(path):
    """Do the stage durations sum to the end-to-end latency (to 1e-6)?"""
    covered = sum(stage.duration for stage in path.stages)
    return abs(covered - (path.end - path.start)) <= 1e-6


def rec(t, event, **fields):
    return LogRecord(t, "client", "rm", event,
                     {k: str(v) for k, v in fields.items()})


def tape_bound_log(name, ticket, t0=0.0):
    """A lifeline dominated by mount/seek wait on the tape drive."""
    return [
        rec(t0 + 0.0, "rm.request", file=name, ticket=ticket),
        rec(t0 + 1.0, "rm.select", file=name, ticket=ticket, host="pdsf"),
        rec(t0 + 2.0, "gridftp.connect", file=name, ticket=ticket),
        rec(t0 + 3.0, "hrm.stage.request", file=name),
        rec(t0 + 80.0, "tape.read.begin", file=name),
        rec(t0 + 95.0, "hrm.stage.done", file=name),
        rec(t0 + 96.0, "gridftp.first_byte", file=name),
        rec(t0 + 110.0, "rm.transfer.done", file=name, ticket=ticket),
    ]


def test_blame_mapping_splits_mount_from_streaming():
    life = reconstruct_lifelines(tape_bound_log("f1", 1))[0]
    path = extract_critical_path(life)
    assert path is not None
    assert path.ticket == "1"
    assert path.outcome == "done"
    times = path.self_times()
    # drive wait + mount + seek is "mount"; streaming off tape is "stage"
    assert times["mount"] == pytest.approx(77.0)
    assert times["stage"] == pytest.approx(15.0)
    assert times["transfer"] == pytest.approx(14.0)
    assert times["catalog"] == pytest.approx(1.0)
    assert path.dominant() == ("mount", pytest.approx(77.0))
    assert telescopes(path)
    assert sum(times.values()) == pytest.approx(path.end - path.start)


def test_pre_request_prefetch_is_clipped_off_the_path():
    # staging that ran before the request (speculative prefetch) is not
    # on this request's critical path — the window clips it out.
    records = [
        rec(-5.0, "hrm.stage.request", file="warm"),
        rec(-1.0, "hrm.stage.done", file="warm"),
        rec(0.0, "rm.request", file="warm", ticket=2),
        rec(1.0, "rm.select", file="warm", ticket=2),
        rec(2.0, "gridftp.connect", file="warm", ticket=2),
        rec(3.0, "gridftp.first_byte", file="warm"),
        rec(10.0, "rm.transfer.done", file="warm", ticket=2),
    ]
    (life,) = reconstruct_lifelines(records)
    # the stage recorded before the request window is held for the
    # file's first lifeline
    assert life.ticket == "2"
    assert life.stages[0] == LifeStage("stage", -5.0, -1.0)
    path = extract_critical_path(life)
    assert path.start == 0.0 and path.end == 10.0
    assert path.stages[0].start == 0.0
    assert all(s.start >= 0.0 and s.end <= 10.0 for s in path.stages)
    assert "mount" not in path.self_times()
    assert telescopes(path)


def test_two_tickets_for_one_file_are_blamed_apart():
    """Tickets 1 and 2 each move one file, at t=0 and t=5, 10 s each."""
    records = []
    for ticket, t0 in (("1", 0.0), ("2", 5.0)):
        records += [
            rec(t0 + 0.0, "rm.request", file="shared", ticket=ticket),
            rec(t0 + 1.0, "rm.select", file="shared", ticket=ticket),
            rec(t0 + 2.0, "gridftp.connect", file="shared", ticket=ticket),
            rec(t0 + 4.0, "gridftp.first_byte", file="shared",
                ticket=ticket),
            rec(t0 + 10.0, "rm.transfer.done", file="shared",
                ticket=ticket),
        ]
    records.sort(key=lambda r: r.t)
    paths = extract_critical_paths(reconstruct_lifelines(records))
    assert [(p.ticket, p.start, p.end) for p in paths] == \
        [("1", 0.0, 10.0), ("2", 5.0, 15.0)]
    assert all(telescopes(p) for p in paths)
    report = attribute_bottleneck(paths)
    assert sorted(report.per_ticket) == ["1", "2"]
    for ticket in ("1", "2"):
        assert sum(report.per_ticket[ticket].values()) == \
            pytest.approx(10.0)


def test_nonterminal_lifelines_yield_no_path():
    records = [rec(0.0, "rm.request", file="open"),
               rec(1.0, "rm.select", file="open")]
    lives = reconstruct_lifelines(records)
    assert extract_critical_path(lives[0]) is None
    assert extract_critical_paths(lives) == []


def test_every_milestone_stage_has_a_blame_category():
    from repro.netlogger.analysis import MILESTONE_STAGES
    for stage in set(MILESTONE_STAGES.values()):
        assert stage in BLAME_STAGES, f"unblamed stage {stage!r}"


def test_attribute_bottleneck_joins_the_busiest_resource():
    env = Environment()
    ts = TimeSeriesRecorder(env, interval=5.0)
    busy = {"tape.hpss.busy": 0.95, "tape.vault.busy": 0.10,
            "link.wan-client.util": 0.30}
    ts.add_multi_probe(lambda: dict(busy))
    ts.start()
    env.run(until=130.0)

    records = []
    for i in range(4):
        records += tape_bound_log(f"f{i}", ticket=7, t0=i * 1.0)
    lives = reconstruct_lifelines(records)
    report = attribute_bottleneck(lives, timeseries=ts)

    assert report.files == 4
    assert report.dominant_stage == "mount"
    assert report.dominant_counts["mount"] == 4
    # the join picks the busiest series in the tape.* family, not the
    # hotter-but-wrong-family WAN link
    assert report.resource is not None
    assert report.resource.series == "tape.hpss.busy"
    assert report.resource.mean == pytest.approx(0.95)
    assert report.resource.busy_fraction == 1.0
    assert "7" in report.per_ticket
    assert report.per_ticket["7"]["mount"] == pytest.approx(4 * 77.0)


def test_attribution_without_timeseries_names_no_resource():
    lives = reconstruct_lifelines(tape_bound_log("f1", 1))
    report = attribute_bottleneck(lives)
    assert report.dominant_stage == "mount"
    assert report.resource is None


def test_empty_source_produces_empty_report():
    report = attribute_bottleneck([])
    assert report.files == 0
    assert report.dominant_stage is None


# ---------------------------------------------------------------------------
# Chaos: the telescoping identity under fault injection (all seeds)
# ---------------------------------------------------------------------------

def _chaos_seeds():
    from benchmarks.bench_chaos_survival import SEEDS
    return SEEDS


@pytest.mark.parametrize("seed", _chaos_seeds())
def test_chaos_paths_telescope_to_end_to_end_latency(seed):
    """Every terminal ticket file in every seeded chaos run must
    decompose into blame stages that sum to its end-to-end latency
    within 1e-6 — retries, backoff, replica switches and all."""
    from benchmarks.bench_chaos_survival import run_chaos

    tb, ticket, _sched, _inj = run_chaos(seed)
    lives = reconstruct_lifelines(tb.logger.records)
    terminal = {f.logical_file for f in ticket.files
                if f.finished_at is not None}
    assert terminal, "chaos run produced no terminal files"
    paths = {p.file: p for p in extract_critical_paths(lives)}
    missing = terminal - set(paths)
    assert not missing, f"terminal files with no critical path: {missing}"
    for name in sorted(terminal):
        path = paths[name]
        covered = sum(s.duration for s in path.stages)
        assert telescopes(path), (
            f"seed {seed} file {name}: stages cover {covered:.6f}s "
            f"of {path.end - path.start:.6f}s end-to-end")
