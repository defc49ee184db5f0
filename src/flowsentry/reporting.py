"""Output formatting and sinks: firewall-style traffic splits, scan and
vulnerability files, and the console."""

from __future__ import annotations

import sys
from typing import IO, Any, Callable, NamedTuple

from .ingest import PROTOCOL_TEXT, FlowRecord, format_tod
from .scanrules import OUTGOING, VERTICAL, Direction, ScanAlert, VulnAlert


class FwLine(NamedTuple):
    direction: Direction
    text: str


def format_fw_line(record: FlowRecord, direction: Direction, date: str, tz: str) -> str:
    """One firewall-log style line; portless records render their port as 0."""
    tag = "FWOUT" if direction is OUTGOING else "FWIN"
    return (
        f"{tag},{date},{format_tod(record.event_time)} {tz} GMT,"
        f"{record.source_ip}:{record.source_port},"
        f"{record.dest_ip}:{record.dest_port},{PROTOCOL_TEXT[record.protocol]}"
    )


def format_scan_alert(alert: ScanAlert) -> str:
    """Header naming the scan kind, then one line per captured probe."""
    header = "Vertical scan:" if alert.kind is VERTICAL else "Horizontal scan:"
    return "\n".join([header, *alert.evidence])


def format_vuln_alert(alert: VulnAlert) -> str:
    r = alert.record
    return (
        f"Potential Vulnerability: {alert.entry.name}.\n"
        f" {format_tod(r.event_time)}: {r.source_ip}:{r.source_port} -> {r.dest_ip}:{r.dest_port}"
    )


class SinkSet:
    """Where engine output goes. Any path may be None (that stream is
    dropped); console echoes scan alerts to stdout. A SinkSet has one
    producer: every write comes from the thread that runs the engine.

    write(name, line) is the one line writer: emit and baseline_scan write
    alerts through it. traffic() writes a traffic line to its direction's
    file with its own inline check, as it runs once per record.
    Files are buffered: flush() pushes them out (run_follow calls it once
    per poll). A failed write, flush or close is counted in write_failures,
    never raised; a failed console write, such as one to a closed pipe, also
    turns the console off.
    """

    def __init__(
        self,
        incoming_path: str | None = None,
        outgoing_path: str | None = None,
        portscans_path: str | None = None,
        vulscans_path: str | None = None,
        console: bool = False,
    ):
        self.incoming_path = incoming_path
        self.outgoing_path = outgoing_path
        self.portscans_path = portscans_path
        self.vulscans_path = vulscans_path
        self.console = console
        self.write_failures = 0
        self._handles: dict[str, IO[str]] = {}
        self._open = False

    @classmethod
    def null(cls) -> "SinkSet":
        return cls()

    def open(self) -> "SinkSet":
        if not self._open:
            try:
                for name in ("incoming", "outgoing", "portscans", "vulscans"):
                    path = getattr(self, f"{name}_path")
                    if path is not None:
                        self._handles[name] = open(path, "w", encoding="utf-8")
            except OSError:
                self.close()
                raise
            self._open = True
        return self

    def _attempt(self, call: Callable[..., Any], *args: Any) -> bool:
        """Run call(*args): False, with the failure counted, if it raised OSError."""
        try:
            call(*args)
        except OSError:
            self.write_failures += 1
            return False
        return True

    def flush(self) -> None:
        """Flush every open file, and stdout when the console is on."""
        for handle in self._handles.values():
            self._attempt(handle.flush)
        if self.console:
            self._attempt(sys.stdout.flush)

    def close(self) -> None:
        """Close every file, even if one fails (closing flushes it), then flush()."""
        for handle in self._handles.values():
            self._attempt(handle.close)
        self._handles.clear()
        self._open = False
        self.flush()

    def __enter__(self) -> "SinkSet":
        return self.open()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def write(self, name: str, line: str) -> bool:
        """Write one line to the named file ("incoming", "outgoing",
        "portscans" or "vulscans"); True when that file is open, even if the
        write failed."""
        handle = self._handles.get(name)
        if handle is None:
            return False
        self._attempt(handle.write, line + "\n")
        return True

    def traffic(self, direction: Direction, text: str) -> None:
        """Write one firewall-style traffic line to its direction's file."""
        handle = self._handles.get("outgoing" if direction is OUTGOING else "incoming")
        if handle is not None:
            try:
                handle.write(text + "\n")
            except OSError:
                self.write_failures += 1

    def emit(self, item: Any) -> bool:
        """Route one alert or traffic line to its destinations. True when an
        open file or the console took an alert (even if a file write failed),
        so the caller need not keep it; False for a traffic line."""
        if isinstance(item, FwLine):
            self.traffic(item.direction, item.text)
            return False
        if isinstance(item, ScanAlert):
            block = format_scan_alert(item)
            taken = self.write("portscans", block)
            if self.console and not self._attempt(sys.stdout.write, block + "\n"):
                self.console = False
            return taken or self.console
        if isinstance(item, VulnAlert):
            return self.write("vulscans", format_vuln_alert(item))
        return False
