"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_grammar():
    parser = build_parser()
    args = parser.parse_args(["--seed", "3", "table1",
                              "--minutes", "5"])
    assert args.seed == 3
    assert args.command == "table1"
    assert args.minutes == 5.0
    args = parser.parse_args(["portal", "pr"])
    assert args.variable == "pr"
    args = parser.parse_args(["trace", "--spans"])
    assert args.command == "trace" and args.spans
    args = parser.parse_args(["metrics", "--json"])
    assert args.command == "metrics" and args.json
    with pytest.raises(SystemExit):
        parser.parse_args([])  # command required
    with pytest.raises(SystemExit):
        parser.parse_args(["portal", "nonsense"])


def test_browse_command(capsys):
    assert main(["browse"]) == 0
    out = capsys.readouterr().out
    assert "pcmdi.ncar_csm.run1" in out
    assert "tas" in out


def test_table1_command_short(capsys):
    assert main(["--seed", "3", "table1", "--minutes", "1"]) == 0
    out = capsys.readouterr().out
    assert "Peak transfer rate over 0.1 seconds" in out
    assert "Striped servers at source location" in out


def test_figure8_command_short(capsys):
    assert main(["--seed", "5", "figure8", "--hours", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "Mb/s" in out
    assert "plateau" in out


def test_demo_command(capsys):
    assert main(["--seed", "4", "demo"]) == 0
    out = capsys.readouterr().out
    assert "scale:" in out          # a rendered field
    assert "simulated seconds" in out


def test_portal_command(capsys):
    assert main(["--seed", "4", "portal", "tas"]) == 0
    out = capsys.readouterr().out
    assert "server-side January mean" in out
    assert "less than a full download" in out


def test_trace_command(capsys):
    assert main(["--seed", "4", "trace", "--spans"]) == 0
    out = capsys.readouterr().out
    assert "=== lifelines" in out
    assert "=== per-stage latency ===" in out
    assert "select=" in out and "stream=" in out
    assert "TTFB:" in out
    assert "[INCOMPLETE]" not in out
    assert "trace ticket-" in out       # --spans tree
    assert "rm.file" in out


_F = "file=pcmdi.ncar_csm.run1.1995"
GOLDEN_SPANS = f"""\
=== spans ===
trace ticket-1
  - rm.ticket [90.007s +65.708s] ok files=3 ticket=1
    - rm.file [90.007s +65.708s] done {_F}.m06-m06.nc ticket=1
      - rm.attempt [90.027s +65.688s] ok bytes=50743 {_F}.m06-m06.nc \
host=gridftp.lbnl-pdsf.gov
    - rm.file [90.007s +0.781s] done {_F}.m07-m07.nc ticket=1
      - rm.attempt [90.027s +0.760s] ok bytes=50743 {_F}.m07-m07.nc \
host=gridftp.anl.gov
    - rm.file [90.007s +1.037s] done {_F}.m08-m08.nc ticket=1
      - rm.attempt [90.027s +1.016s] ok bytes=50743 {_F}.m08-m08.nc \
host=gridftp.lbnl-clipper.gov
"""


def test_trace_spans_golden(capsys):
    """The demo's span tree, rebuilt from the ULM log, line for line."""
    assert main(["--seed", "4", "trace", "--spans"]) == 0
    out = capsys.readouterr().out
    assert out[out.index("=== spans ==="):] == GOLDEN_SPANS


def test_metrics_command(capsys):
    assert main(["--seed", "4", "metrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE rm_transfers_total counter" in out
    assert "rm_transfer_seconds_bucket" in out


def test_metrics_command_json(capsys):
    import json
    assert main(["--seed", "4", "metrics", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["metrics"]["rm.transfers_total"]["type"] == "counter"
    samples = blob["metrics"]["rm.transfers_total"]["samples"]
    assert sum(s["value"] for s in samples) > 0


def test_parser_grammar_slo_and_report():
    parser = build_parser()
    args = parser.parse_args(["slo", "--ttfb", "1.5"])
    assert args.command == "slo" and args.ttfb == 1.5
    args = parser.parse_args(["report", "--files", "4",
                              "--inject-discrepancy"])
    assert args.command == "report"
    assert args.files == 4 and args.inject_discrepancy


def test_trace_command_reports_reconstruction(capsys):
    assert main(["--seed", "4", "trace"]) == 0
    out = capsys.readouterr().out
    assert "lifelines:" in out
    assert "log records dropped" in out


def test_metrics_command_shows_netlogger_drops(capsys):
    assert main(["--seed", "4", "metrics"]) == 0
    out = capsys.readouterr().out
    assert "# netlogger_events_emitted" in out
    assert "# netlogger_events_dropped" in out


def test_metrics_json_includes_netlogger_section(capsys):
    import json
    assert main(["--seed", "4", "metrics", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["netlogger"]["emitted"] > 0
    assert blob["netlogger"]["dropped"] >= 0


def test_slo_command(capsys):
    assert main(["--seed", "4", "slo"]) == 0
    out = capsys.readouterr().out
    assert "=== SLO summary" in out
    assert "client-ttfb" in out
    assert "client-goodput" in out
    # staging off tape blows a 2 s TTFB bound: the engine must page
    assert "BREACHING" in out or "breach:" in out


def test_report_command_clean_certificate(capsys):
    assert main(["--seed", "4", "report", "--files", "4"]) == 0
    out = capsys.readouterr().out
    assert "reconciliation report" in out
    assert "verdict: CLEAN (0 discrepancies)" in out


def test_report_command_detects_injected_corruption(capsys):
    assert main(["--seed", "4", "report", "--files", "4",
                 "--inject-discrepancy"]) == 1
    out = capsys.readouterr().out
    assert "destination-digest-mismatch" in out
    assert "DISCREPANT" in out
