"""Output line formats, byte for byte, and sink routing."""

import builtins

import pytest

from flowsentry import reporting
from flowsentry.ingest import Protocol
from flowsentry.reporting import (
    FwLine,
    SinkSet,
    format_fw_line,
    format_scan_alert,
    format_vuln_alert,
)
from flowsentry.scanrules import Direction, ScanAlert, ScanKind, VulnAlert, WatchlistEntry

from conftest import make_record

DATE = "2004/11/05"
TZ = "-5:00"


def horizontal_alert():
    return ScanAlert(
        kind=ScanKind.HORIZONTAL,
        remote_ip="5.5.5.10",
        fixed=12346,
        evidence=(
            "5.5.5.10:3434 to 10.0.0.1:12346 at 14:03:33",
            "5.5.5.10:3434 to 10.0.0.2:12346 at 14:15:13",
        ),
        first_seen="14:03:33",
        last_seen="14:15:13",
        distinct_targets=2,
    )


def test_fwout_line_golden():
    record = make_record(src="10.0.0.1", sport=3434, dst="1.2.3.5", dport=12346)
    line = format_fw_line(record, Direction.OUTGOING, DATE, TZ)
    assert line == "FWOUT,2004/11/05,14:03:33 -5:00 GMT,10.0.0.1:3434,1.2.3.5:12346,TCP"


def test_fwin_line_golden():
    record = make_record(time="09:05:01", protocol=Protocol.UDP, src="5.5.5.10", sport=53, dst="10.0.0.7", dport=53)
    line = format_fw_line(record, Direction.INCOMING, DATE, TZ)
    assert line == "FWIN,2004/11/05,09:05:01 -5:00 GMT,5.5.5.10:53,10.0.0.7:53,UDP"


def test_fw_line_renders_portless_as_zero():
    record = make_record(protocol=Protocol.ICMP, sport=0, dport=0)
    line = format_fw_line(record, Direction.INCOMING, DATE, TZ)
    assert line == "FWIN,2004/11/05,14:03:33 -5:00 GMT,5.5.5.10:0,10.0.0.7:0,ICMP"


def test_scan_alert_block_golden():
    assert format_scan_alert(horizontal_alert()) == (
        "Horizontal scan:\n"
        "5.5.5.10:3434 to 10.0.0.1:12346 at 14:03:33\n"
        "5.5.5.10:3434 to 10.0.0.2:12346 at 14:15:13"
    )


def test_vertical_header():
    alert = ScanAlert(ScanKind.VERTICAL, "5.5.5.10", "10.0.0.7", ("e",), "14:03:33", "14:03:33", 1)
    assert format_scan_alert(alert).startswith("Vertical scan:\n")


def test_vuln_alert_golden():
    alert = VulnAlert(WatchlistEntry("NetBus", 12346, "in"), make_record())
    assert format_vuln_alert(alert) == (
        "Potential Vulnerability: NetBus.\n"
        " 14:03:33: 5.5.5.10:3434 -> 10.0.0.7:12346"
    )


def test_sinks_route_traffic_by_direction(tmp_path):
    incoming = tmp_path / "incoming"
    outgoing = tmp_path / "outgoing"
    with SinkSet(str(incoming), str(outgoing)) as sinks:
        sinks.emit(FwLine(Direction.INCOMING, "in-1"))
        sinks.emit(FwLine(Direction.OUTGOING, "out-1"))
        sinks.emit(FwLine(Direction.INCOMING, "in-2"))
    assert incoming.read_text() == "in-1\nin-2\n"
    assert outgoing.read_text() == "out-1\n"


def test_sinks_write_alert_files_and_console(tmp_path, capsys):
    portscans = tmp_path / "portscans"
    vulscans = tmp_path / "vulscans"
    with SinkSet(portscans_path=str(portscans), vulscans_path=str(vulscans), console=True) as sinks:
        sinks.emit(horizontal_alert())
        sinks.emit(VulnAlert(WatchlistEntry("NetBus", 12346, "in"), make_record()))
    block = format_scan_alert(horizontal_alert())
    assert portscans.read_text() == block + "\n"
    assert vulscans.read_text().startswith("Potential Vulnerability: NetBus.\n")
    assert capsys.readouterr().out == block + "\n"


def test_console_off_keeps_stdout_quiet(tmp_path, capsys):
    with SinkSet(portscans_path=str(tmp_path / "p")) as sinks:
        sinks.emit(horizontal_alert())
    assert capsys.readouterr().out == ""


def test_null_sinks_swallow_everything(capsys):
    with SinkSet.null() as sinks:
        sinks.emit(FwLine(Direction.INCOMING, "x"))
        sinks.emit(horizontal_alert())
    assert capsys.readouterr().out == ""
    assert sinks.write_failures == 0


def test_a_failed_open_closes_the_files_already_open(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        handle = builtins.open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(reporting, "open", recording_open, raising=False)
    # The portscans path is a directory, so the third open fails.
    sinks = SinkSet(str(tmp_path / "incoming"), str(tmp_path / "outgoing"), str(tmp_path))
    with pytest.raises(OSError):
        sinks.open()
    assert len(opened) == 2
    assert all(handle.closed for handle in opened)


def test_raw_line_writers_for_the_batch_detector(tmp_path):
    portscans = tmp_path / "portscans"
    vulscans = tmp_path / "vulscans"
    with SinkSet(portscans_path=str(portscans), vulscans_path=str(vulscans)) as sinks:
        sinks.write_portscans("banner line")
        sinks.write_vulscans("vuln line")
    assert portscans.read_text() == "banner line\n"
    assert vulscans.read_text() == "vuln line\n"


def test_same_emissions_give_identical_bytes(tmp_path):
    def run(out_dir):
        out_dir.mkdir()
        with SinkSet(str(out_dir / "in"), str(out_dir / "out"), str(out_dir / "scan")) as sinks:
            sinks.emit(FwLine(Direction.INCOMING, "a"))
            sinks.emit(horizontal_alert())
            sinks.emit(FwLine(Direction.OUTGOING, "b"))
        return [(p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())]

    assert run(tmp_path / "first") == run(tmp_path / "second")
