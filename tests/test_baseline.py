"""The adjacent-entry batch detector and the engine/baseline diff."""

import flowsentry.baseline as baseline_mod
from flowsentry.baseline import BaselineScanEvent, baseline_scan, compare_reports
from flowsentry.reporting import SinkSet
from flowsentry.scanrules import ScanAlert, ScanKind, Watchlist, WatchlistEntry

from conftest import make_record

NETS = ("10.0.0.0/8",)
DATE = "2004/11/05"
TZ = "-5:00"


def netbus_watchlist():
    return Watchlist([WatchlistEntry("NetBus", 12346, "in")])


def horizontal_probes():
    return [make_record(time=f"14:03:{33 + i:02d}", dst=f"10.0.0.{i + 1}", dport=12346) for i in range(4)]


def background(i):
    # Unique remote source per call so no two background records pair up.
    return make_record(time="14:03:35", src=f"99.0.{i}.1", sport=40000 + i, dst="10.0.0.200", dport=80)


def run(records, watchlist=None, **kwargs):
    return baseline_scan(records, watchlist or netbus_watchlist(), NETS, DATE, TZ, **kwargs)


def test_two_adjacent_probes_on_one_host_are_a_vertical_scan():
    records = [
        make_record(time="14:03:33", dst="10.0.0.7", dport=80),
        make_record(time="14:03:40", dst="10.0.0.7", dport=81),
    ]
    report = run(records)
    assert report.portscans == 1
    assert report.portscan_lines == [
        "Potential vertical portscan from 5.5.5.10 at 14:03:33",
        "5.5.5.10:3434 -> 10.0.0.7:80",
        "5.5.5.10:3434 -> 10.0.0.7:81",
    ]
    assert report.scan_events == [BaselineScanEvent(ScanKind.VERTICAL, "5.5.5.10", "14:03:33")]


def test_adjacent_horizontal_run_counts_once_and_logs_every_probe():
    report = run(horizontal_probes())
    assert report.portscans == 1
    assert len(report.portscan_lines) == 5
    assert report.portscan_lines[0] == "Potential horizontal portscan from 5.5.5.10 at 14:03:33"
    assert report.portscan_lines[1] == "5.5.5.10:3434 -> 10.0.0.1:12346"
    assert report.portscan_lines[-1] == "5.5.5.10:3434 -> 10.0.0.4:12346"


def test_incoming_watchlist_check_happens_only_inside_a_scan():
    # All four probes hit the watched port, but the first probe of the run
    # is never checked: the lookup sits behind the pair comparison.
    report = run(horizontal_probes())
    assert len(report.vulscan_lines) == 3
    assert all(line.startswith("Potential Vulnerability: NetBus.") for line in report.vulscan_lines)
    # The same probes with anything between them are never checked at all.
    probes = horizontal_probes()
    interleaved = [probes[0], background(1), probes[1], background(2), probes[2], background(3), probes[3]]
    assert run(interleaved).vulscan_lines == []


def test_interleaved_probes_are_invisible():
    probes = horizontal_probes()
    interleaved = [probes[0], background(1), probes[1], background(2), probes[2], background(3), probes[3]]
    report = run(interleaved)
    assert report.portscans == 0
    assert report.portscan_lines == []
    assert report.incoming_count == 7


def test_outgoing_traffic_breaks_adjacency():
    probes = horizontal_probes()
    ours = make_record(src="10.0.0.1", sport=50000, dst="5.5.5.10", dport=80)
    report = run([probes[0], ours, probes[1]])
    assert report.portscans == 0
    assert report.outgoing_count == 1


def test_identical_retries_do_not_pair():
    records = [make_record(time="14:03:33"), make_record(time="14:03:34")]
    assert run(records).portscans == 0


def test_scan_counter_moves_on_each_quiet_to_scanning_edge():
    probes = horizontal_probes()
    records = [probes[0], probes[1], background(1), probes[2], probes[3]]
    report = run(records)
    assert report.portscans == 2
    assert len(report.scan_events) == 2


def test_outgoing_watchlist_checked_on_every_record():
    watchlist = Watchlist([WatchlistEntry("sshd", 22, "out")])
    ours = [
        make_record(src="10.0.0.1", sport=22, dst="5.5.5.10", dport=50000),
        make_record(src="10.0.0.2", sport=22, dst="6.6.6.6", dport=50001),
    ]
    report = run(ours, watchlist=watchlist)
    assert len(report.vulscan_lines) == 2
    assert report.vulscan_lines[0].startswith("Potential Vulnerability: sshd.")


def test_progress_callback_fires_on_the_interval(monkeypatch):
    monkeypatch.setattr(baseline_mod, "PROGRESS_EVERY", 2)
    seen = []
    records = [background(i) for i in range(5)]
    run(records, progress=seen.append)
    assert seen == [2, 4]


def test_sinks_receive_traffic_and_alert_lines(tmp_path):
    paths = {name: tmp_path / name for name in ("incoming", "outgoing", "portscans", "vulscans")}
    sinks = SinkSet(*(str(paths[n]) for n in ("incoming", "outgoing", "portscans", "vulscans")))
    records = [
        make_record(src="10.0.0.1", sport=50000, dst="5.5.5.10", dport=80),
        make_record(time="14:03:33", dst="10.0.0.7", dport=80),
        make_record(time="14:03:40", dst="10.0.0.7", dport=81),
    ]
    with sinks:
        report = run(records, sinks=sinks)
    assert paths["outgoing"].read_text().startswith("FWOUT,2004/11/05,")
    assert paths["incoming"].read_text().count("FWIN,") == 2
    assert paths["portscans"].read_text().splitlines() == report.portscan_lines
    assert paths["vulscans"].read_text() == ""


def test_diff_classifies_engine_only_sources_as_non_adjacent():
    alert = ScanAlert(ScanKind.HORIZONTAL, "5.5.5.10", 12346, ("e1", "e2"), "14:03:33", "14:40:11", 4)
    empty = run([background(1)])
    diff = compare_reports([alert], empty)
    assert diff.engine_only == ("5.5.5.10",)
    assert diff.common == ()
    assert "engine only: 1" in diff.summary_lines()[1]
    assert any("5.5.5.10 (non-adjacent)" in line for line in diff.summary_lines())


def test_diff_agreement_and_baseline_only():
    alert = ScanAlert(ScanKind.VERTICAL, "5.5.5.10", "10.0.0.7", ("e1", "e2"), "14:03:33", "14:03:40", 2)
    report = run(
        [
            make_record(time="14:03:33", dst="10.0.0.7", dport=80),
            make_record(time="14:03:40", dst="10.0.0.7", dport=81),
            background(1),
            make_record(time="14:10:00", src="8.8.8.8", dst="10.0.0.9", dport=80),
            make_record(time="14:10:01", src="8.8.8.8", dst="10.0.0.9", dport=81),
        ]
    )
    diff = compare_reports([alert], report)
    assert diff.common == ("5.5.5.10",)
    assert diff.baseline_only == ("8.8.8.8",)
    assert diff.engine_only == ()
