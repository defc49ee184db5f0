"""The assembled detection ruleset, end to end over small record streams."""

import pytest

from flowsentry import pipeline, scanrules
from flowsentry.config import EngineConfig
from flowsentry.engine import run_engine
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.reporting import FwLine
from flowsentry.scanrules import Direction, ScanAlert, ScanKind, VulnAlert, Watchlist, WatchlistEntry, evidence_line

from conftest import make_record, slow_probe_records


def default_watchlist():
    return Watchlist([WatchlistEntry("NetBus", 12346, "in")])


class SpySinks:
    def __init__(self):
        self.items = []

    def emit(self, item):
        self.items.append(item)


def test_evidence_line_golden():
    assert evidence_line(make_record()) == "5.5.5.10:3434 to 10.0.0.7:12346 at 14:03:33"


def test_ruleset_rule_matches_every_flow_record():
    ruleset = build_scan_ruleset(EngineConfig(date="2004/11/05"))
    (rule,) = ruleset.rules
    assert rule.matcher(make_record()) is True


def test_slow_probes_become_one_horizontal_alert():
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    report = run_engine(slow_probe_records(), build_scan_ruleset(config, default_watchlist()))
    scans = [a for a in report.alerts if isinstance(a, ScanAlert)]
    assert len(scans) == 1
    alert = scans[0]
    assert alert.kind is ScanKind.HORIZONTAL
    assert alert.remote_ip == "5.5.5.10"
    assert alert.fixed == 12346
    assert alert.evidence == (
        "5.5.5.10:3434 to 10.0.0.1:12346 at 14:03:33",
        "5.5.5.10:3434 to 10.0.0.2:12346 at 14:15:13",
        "5.5.5.10:3434 to 10.0.0.3:12346 at 14:28:32",
        "5.5.5.10:3434 to 10.0.0.4:12346 at 14:40:11",
    )
    # One horizontal context plus a one-probe vertical context per host.
    assert report.contexts_created == 5
    assert report.contexts_fired == 1


def test_short_timeout_splits_the_probes_apart():
    config = EngineConfig(timeout_value=60.0, date="2004/11/05")
    report = run_engine(slow_probe_records(), build_scan_ruleset(config, default_watchlist()))
    assert not [a for a in report.alerts if isinstance(a, ScanAlert)]
    assert report.contexts_created == 8
    assert report.contexts_expired == 8
    assert report.contexts_fired == 0


def test_vertical_scan_detected_on_one_host():
    records = [make_record(time=f"14:00:{i:02d}", dst="10.0.0.7", dport=7000 + i) for i in range(3)]
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    report = run_engine(records, build_scan_ruleset(config, default_watchlist()))
    scans = [a for a in report.alerts if isinstance(a, ScanAlert)]
    assert [a.kind for a in scans] == [ScanKind.VERTICAL]
    assert scans[0].fixed == "10.0.0.7"


def test_outgoing_traffic_never_builds_scan_contexts():
    records = [make_record(src="10.0.0.1", dst=f"10.0.0.{i + 2}", dport=12346) for i in range(4)]
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    sinks = SpySinks()
    report = run_engine(records, build_scan_ruleset(config, default_watchlist()), sinks=sinks)
    assert report.contexts_created == 0
    fw = [i for i in sinks.items if isinstance(i, FwLine)]
    assert len(fw) == 4
    assert all(line.direction is Direction.OUTGOING for line in fw)
    assert all(line.text.startswith("FWOUT,") for line in fw)


def test_watched_service_hit_emits_a_vulnerability_alert():
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    report = run_engine([make_record(dport=12346)], build_scan_ruleset(config, default_watchlist()))
    vulns = [a for a in report.alerts if isinstance(a, VulnAlert)]
    assert len(vulns) == 1
    assert vulns[0].entry.name == "NetBus"


def test_incoming_traffic_splits_to_fwin(tmp_path):
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    sinks = SpySinks()
    run_engine([make_record(dport=80)], build_scan_ruleset(config, default_watchlist()), sinks=sinks)
    fw = [i for i in sinks.items if isinstance(i, FwLine)]
    assert [line.text for line in fw] == ["FWIN,2004/11/05,14:03:33 -5:00 GMT,5.5.5.10:3434,10.0.0.7:80,TCP"]


def test_a_run_without_sinks_formats_no_traffic_lines(monkeypatch):
    calls = []
    real_format_fw_line = pipeline.format_fw_line

    def counting_format_fw_line(*args):
        calls.append(args)
        return real_format_fw_line(*args)

    monkeypatch.setattr(pipeline, "format_fw_line", counting_format_fw_line)
    config = EngineConfig(timeout_value=900.0, date="2004/11/05")
    ruleset = build_scan_ruleset(config, default_watchlist())
    report = run_engine(slow_probe_records(), ruleset)
    assert calls == []
    assert [a for a in report.alerts if isinstance(a, ScanAlert)]
    # With sinks attached, every record is formatted once.
    run_engine(slow_probe_records(), ruleset, sinks=SpySinks())
    assert len(calls) == len(slow_probe_records())


@pytest.mark.parametrize("mode", ["min_messages", "distinct_targets"])
def test_trigger_runs_once_per_expired_context(monkeypatch, mode):
    calls = []
    real_trigger_holds = scanrules.trigger_holds

    def counting_trigger_holds(ctx, policy):
        calls.append(ctx)
        return real_trigger_holds(ctx, policy)

    monkeypatch.setattr(scanrules, "trigger_holds", counting_trigger_holds)
    monkeypatch.setattr(pipeline, "trigger_holds", counting_trigger_holds)
    vertical = [make_record(time=f"15:00:{i:02d}", src="6.6.6.6", dport=7000 + i) for i in range(3)]
    lone = [make_record(time="15:10:00", src="7.7.7.7")]
    config = EngineConfig(timeout_value=900.0, trigger_policy=mode, min_messages=2, date="2004/11/05")
    report = run_engine(slow_probe_records() + vertical + lone, build_scan_ruleset(config, default_watchlist()))
    # Both scans fire; the one-probe contexts expire quietly.
    assert report.contexts_fired == 2
    assert report.contexts_expired > report.contexts_fired
    assert len(calls) == report.contexts_expired
