"""Tests of the benchmark suite itself, on ``--quick`` workloads.

Run with ``python -m pytest benchmarks/suite -q`` from the repository
root. They check that the suite prints what ``BENCHMARK.json``
declares, that the per-layer split accounts for the whole profile, and
that ``sim_digest`` follows the seed.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_suite(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--quick", "--repeats",
         "1", *args], capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def sim_digest(lines):
    return next(line.split()[1] for line in lines
                if line.strip().startswith("sim_digest "))


@pytest.fixture(scope="module")
def traced():
    return {w: parse(run_suite("--workload", w, "--trace"))
            for w in WORKLOADS}


@pytest.fixture(scope="module")
def fleet_default():
    return parse(run_suite("--workload", "fleet_wave"))


def test_every_metric_is_printed_with_its_unit(traced, fleet_default):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload, (lines, line) in traced.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0, workload
        assert line["attempted"] >= 1
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        assert printed == per_layer, workload
        table = {cols[0]: cols[1] for cols in (l.split() for l in lines)
                 if len(cols) >= 3 and cols[0] in end_to_end}
        assert table == end_to_end, workload
    _lines, line = fleet_default
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        end_to_end
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_layer_self_times_add_up_to_the_profile(traced):
    layers = [m["name"] for m in SPEC["per_layer"]
              if m["name"].endswith(".self_s")]
    assert "other.self_s" in layers
    for workload, (_lines, line) in traced.items():
        metrics = line["metrics"]
        total = metrics["trace.total_s"]["value"]
        assert total > 0
        summed = sum(metrics[name]["value"] for name in layers)
        assert summed == pytest.approx(total, rel=0.01), workload


def test_foreign_frames_go_to_the_nearest_layer():
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.suite import layers

    repro = str(ROOT / "src" / "repro")
    net = (f"{repro}/net/fluid.py", 1, "transfer")
    sim = (f"{repro}/sim/core.py", 1, "run")
    ldap = (f"{repro}/ldap/directory.py", 1, "query")
    stdlib = ("/usr/lib/python3/heapq.py", 1, "heappush")
    builtin = ("~", 0, "<built-in method len>")
    suite = (str(SUITE / "workloads.py"), 1, "run")
    stats = {
        net: (1, 1, 0.5, 1.0, {sim: (1, 1, 0.5, 1.0)}),
        sim: (1, 1, 0.2, 1.5, {}),
        ldap: (1, 1, 0.1, 0.6, {suite: (1, 1, 0.1, 0.6)}),
        suite: (1, 1, 0.05, 0.65, {}),
        # stdlib frame reached only from ldap: its callee's time is ldap's
        stdlib: (2, 2, 0.2, 0.3, {ldap: (2, 2, 0.2, 0.3)}),
        builtin: (4, 4, 0.4, 0.4, {net: (1, 1, 0.3, 0.3),
                                   stdlib: (3, 3, 0.1, 0.1)}),
    }
    split = layers.split_self_time(stats)
    assert split["net"] == pytest.approx(0.5 + 0.3)
    assert split["ldap"] == pytest.approx(0.1 + 0.2 + 0.1)
    assert split["sim"] == pytest.approx(0.2)
    assert split["other"] == pytest.approx(0.05)
    assert split["total"] == pytest.approx(1.45)


def test_recursive_foreign_frames_go_to_the_layer_that_entered_them():
    """Self-recursion and mutual recursion among stdlib frames entered
    only from ``ldap``: all their time, and their callees', is ldap's."""
    sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.suite import layers

    repro = str(ROOT / "src" / "repro")
    ldap = (f"{repro}/ldap/directory.py", 1, "query")
    deepcopy = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    reconstruct = ("/usr/lib/python3/copy.py", 2, "_reconstruct")
    builtin = ("~", 0, "<built-in method getattr>")
    stats = {
        ldap: (1, 1, 0.1, 1.0, {}),
        # ldap -> deepcopy, deepcopy -> deepcopy, and
        # deepcopy <-> _reconstruct
        deepcopy: (3, 1, 0.3, 0.9, {ldap: (1, 1, 0.1, 0.9),
                                    deepcopy: (1, 1, 0.1, 0.5),
                                    reconstruct: (1, 1, 0.1, 0.4)}),
        reconstruct: (1, 1, 0.2, 0.6, {deepcopy: (1, 1, 0.2, 0.6)}),
        builtin: (2, 2, 0.4, 0.4, {reconstruct: (1, 1, 0.1, 0.1),
                                   deepcopy: (1, 1, 0.3, 0.3)}),
    }
    split = layers.split_self_time(stats)
    assert split["ldap"] == pytest.approx(1.0)
    assert split["other"] == pytest.approx(0.0)
    assert split["total"] == pytest.approx(1.0)


def test_speed_correction_scales_wall_time_by_kernel_time():
    """Wall time at the reference kernel time counts in full, and wall
    time at twice that kernel time counts half."""
    from benchmarks.suite import speed

    ref = speed.REF_KERNEL_S
    meter = speed.SpeedMeter()
    meter.samples = [(i / 10, ref if i <= 10 else 2 * ref)
                     for i in range(21)]
    assert meter.corrected(0.0, 0.5) == pytest.approx(0.5)
    assert meter.corrected(1.5, 2.0) == pytest.approx(0.25)

    meter = speed.SpeedMeter()
    meter.start()
    try:
        begin = meter.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        end = meter.mark()
    finally:
        meter.stop()
    assert len(meter.samples) >= 5
    assert meter.spent > 0
    assert end - begin == pytest.approx(0.2 - meter.spent, abs=0.02)
    assert meter.corrected(begin, end) > 0


def test_same_seed_gives_the_same_digest(traced, fleet_default):
    assert sim_digest(traced["fleet_wave"][0]) == \
        sim_digest(fleet_default[0])


def test_another_seed_gives_another_digest(fleet_default):
    lines, _line = parse(run_suite("--workload", "fleet_wave", "--seed",
                                   "99"))
    assert sim_digest(lines) != sim_digest(fleet_default[0])


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the suite, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_suite("--workload", "fleet_wave", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
