"""Output formatting and sinks: firewall-style traffic splits, scan and
vulnerability files, and the console."""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import IO, Any

from .ingest import FlowRecord, format_tod
from .scanrules import Direction, ScanAlert, ScanKind, VulnAlert


@dataclass(frozen=True, slots=True)
class FwLine:
    direction: Direction
    text: str


def format_fw_line(record: FlowRecord, direction: Direction, date: str, tz: str) -> str:
    """One firewall-log style line; portless records render their port as 0."""
    tag = "FWOUT" if direction is Direction.OUTGOING else "FWIN"
    return (
        f"{tag},{date},{format_tod(record.event_time)} {tz} GMT,"
        f"{record.source_ip}:{record.source_port},"
        f"{record.dest_ip}:{record.dest_port},{record.protocol.value}"
    )


def format_scan_alert(alert: ScanAlert) -> str:
    """Header naming the scan kind, then one line per captured probe."""
    header = "Vertical scan:" if alert.kind is ScanKind.VERTICAL else "Horizontal scan:"
    return "\n".join([header, *alert.evidence])


def format_vuln_alert(alert: VulnAlert) -> str:
    r = alert.record
    return (
        f"Potential Vulnerability: {alert.entry.name}.\n"
        f" {format_tod(r.event_time)}: {r.source_ip}:{r.source_port} -> {r.dest_ip}:{r.dest_port}"
    )


class SinkSet:
    """Where engine output goes. Any path may be None (that stream is
    dropped); console echoes scan alerts to stdout. Writes are serialized
    so concurrent producers cannot interleave partial lines.
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
        self._lock = threading.Lock()
        self._handles: dict[str, IO[str]] = {}
        self._open = False

    @classmethod
    def null(cls) -> "SinkSet":
        return cls()

    def open(self) -> "SinkSet":
        if not self._open:
            for name in ("incoming", "outgoing", "portscans", "vulscans"):
                path = getattr(self, f"{name}_path")
                if path is not None:
                    self._handles[name] = open(path, "w")
            self._open = True
        return self

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._open = False

    def __enter__(self) -> "SinkSet":
        return self.open()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _write(self, name: str, text: str, flush: bool = False) -> None:
        handle = self._handles.get(name)
        if handle is None:
            return
        try:
            handle.write(text)
            if flush:
                handle.flush()
        except OSError:
            self.write_failures += 1

    def write_portscans(self, text: str) -> None:
        with self._lock:
            self._write("portscans", text + "\n", flush=True)

    def write_vulscans(self, text: str) -> None:
        with self._lock:
            self._write("vulscans", text + "\n", flush=True)

    def emit(self, item: Any) -> None:
        """Route one alert or traffic line to its destinations, in call order."""
        if isinstance(item, FwLine):
            # One per record; skip the lock when the stream is dropped.
            name = "outgoing" if item.direction is Direction.OUTGOING else "incoming"
            if name not in self._handles:
                return
            with self._lock:
                self._write(name, item.text + "\n")
            return
        with self._lock:
            if isinstance(item, ScanAlert):
                block = format_scan_alert(item)
                self._write("portscans", block + "\n", flush=True)
                if self.console:
                    sys.stdout.write(block + "\n")
                    sys.stdout.flush()
            elif isinstance(item, VulnAlert):
                self._write("vulscans", format_vuln_alert(item) + "\n", flush=True)
