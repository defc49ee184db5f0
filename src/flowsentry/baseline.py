"""Single-pass batch scan detector that only compares adjacent log entries.

This is the pre-streaming design kept as a comparison oracle. It walks the
records once, holding just the previous entry: an incoming record whose
source matches the previous record's source, and which repeats either the
destination address (new port) or the destination port (new address),
continues or starts a scan. One flag tracks whether a scan is ongoing, so
the counter only moves on the quiet-to-scanning edge. Anything breaking the
adjacency, even one unrelated line, resets the flag, which is exactly why
slow or interleaved scans are invisible to it.

The vulnerability lookup for incoming traffic happens only inside the
scan branch, as the original did; outgoing traffic is checked on every
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .ingest import FlowRecord, format_tod
from .reporting import FwLine, SinkSet, format_fw_line, format_vuln_alert
from .scanrules import Direction, LocalNetworks, ScanAlert, ScanKind, VulnAlert, Watchlist, classify_direction

PROGRESS_EVERY = 10000


@dataclass(frozen=True)
class BaselineScanEvent:
    kind: ScanKind
    source_ip: str
    start_time: str


@dataclass
class BaselineReport:
    portscans: int = 0
    portscan_lines: list[str] = field(default_factory=list)
    vulscan_lines: list[str] = field(default_factory=list)
    incoming_count: int = 0
    outgoing_count: int = 0
    scan_events: list[BaselineScanEvent] = field(default_factory=list)


def _endpoint_line(r: FlowRecord) -> str:
    return f"{r.source_ip}:{r.source_port} -> {r.dest_ip}:{r.dest_port}"


def baseline_scan(
    records: Iterable[FlowRecord],
    watchlist: Watchlist,
    local_nets: LocalNetworks | Iterable[str],
    date: str,
    tz: str,
    *,
    sinks: SinkSet | None = None,
    progress: Callable[[int], None] | None = None,
) -> BaselineReport:
    """Run the adjacent-entry detector over an ordered record stream.

    Traffic lines go to sinks when given (they are not kept in the report);
    portscan and vulnerability lines are both kept and written.
    """
    nets = local_nets if isinstance(local_nets, LocalNetworks) else LocalNetworks(local_nets)
    report = BaselineReport()
    prev: FlowRecord | None = None
    ongoing = False
    counter = 0

    def scan_out(text: str) -> None:
        report.portscan_lines.append(text)
        if sinks is not None:
            sinks.write_portscans(text)

    def vuln_out(text: str) -> None:
        report.vulscan_lines.append(text)
        if sinks is not None:
            sinks.write_vulscans(text)

    for record in records:
        direction = classify_direction(record, nets)
        if direction is Direction.OUTGOING:
            report.outgoing_count += 1
            if sinks is not None:
                sinks.emit(FwLine(direction, format_fw_line(record, direction, date, tz)))
            entry = watchlist.outgoing.get(record.source_port)
            if entry is not None:
                vuln_out(format_vuln_alert(VulnAlert(entry, record)))
        else:
            report.incoming_count += 1
            if sinks is not None:
                sinks.emit(FwLine(direction, format_fw_line(record, direction, date, tz)))
            pair = prev is not None and record.source_ip == prev.source_ip and (
                (record.dest_ip == prev.dest_ip and record.dest_port != prev.dest_port)
                or (record.dest_port == prev.dest_port and record.dest_ip != prev.dest_ip)
            )
            if pair:
                entry = watchlist.incoming.get(record.dest_port)
                if entry is not None:
                    vuln_out(format_vuln_alert(VulnAlert(entry, record)))
                if not ongoing:
                    ongoing = True
                    report.portscans += 1
                    kind = ScanKind.VERTICAL if record.dest_ip == prev.dest_ip else ScanKind.HORIZONTAL
                    start = format_tod(prev.event_time)
                    report.scan_events.append(BaselineScanEvent(kind, prev.source_ip, start))
                    scan_out(f"Potential {kind.value} portscan from {prev.source_ip} at {start}")
                    scan_out(_endpoint_line(prev))
                    scan_out(_endpoint_line(record))
                else:
                    scan_out(_endpoint_line(record))
            else:
                ongoing = False
        prev = record
        counter += 1
        if progress is not None and counter % PROGRESS_EVERY == 0:
            progress(counter)
    return report


@dataclass(frozen=True)
class DiffSummary:
    """Scanning sources flagged by each detector on the same input."""

    common: tuple[str, ...]
    engine_only: tuple[str, ...]
    baseline_only: tuple[str, ...]

    def classify(self) -> dict[str, str]:
        # Contexts survive interleaving; the adjacency pass does not.
        return {ip: "non-adjacent" for ip in self.engine_only}

    def summary_lines(self) -> list[str]:
        lines = [
            f"flagged by both: {len(self.common)}",
            f"engine only: {len(self.engine_only)}",
            f"baseline only: {len(self.baseline_only)}",
        ]
        for ip in self.common:
            lines.append(f"  both      {ip}")
        for ip in self.engine_only:
            lines.append(f"  engine    {ip} (non-adjacent)")
        for ip in self.baseline_only:
            lines.append(f"  baseline  {ip}")
        return lines


def compare_reports(engine_alerts: Iterable[object], baseline_report: BaselineReport) -> DiffSummary:
    """Diff the scanning-source sets found by the engine and the baseline."""
    engine_ips = {a.remote_ip for a in engine_alerts if isinstance(a, ScanAlert)}
    baseline_ips = {e.source_ip for e in baseline_report.scan_events}
    return DiffSummary(
        common=tuple(sorted(engine_ips & baseline_ips)),
        engine_only=tuple(sorted(engine_ips - baseline_ips)),
        baseline_only=tuple(sorted(baseline_ips - engine_ips)),
    )
