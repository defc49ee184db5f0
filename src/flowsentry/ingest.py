"""Flow log line parsing plus batch and follow-mode file ingestion."""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import BinaryIO, Callable, Iterator

logger = logging.getLogger(__name__)

# The line grammar, with one capture per field (the time split into its
# components). Field 8 is validated but carries no meaning for detection;
# it is kept on the record so lines can be reproduced verbatim.
_PARSE_RE = re.compile(
    r"([0-9]+),([0-9]+),([0-9]+):([0-9]+):([0-9]+),(TCP|UDP|ICMP),"
    r"([0-9.]+):([0-9]+|--),([0-9.]+):([0-9]+|--),([0-9]+),([0-9]+)"
)

# Per-token scan of the grammar, used only to locate the first offending
# byte once the fast path has failed.
_STEPS: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"[0-9]+"), "first numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "second numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "hours"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+"), "minutes"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+"), "seconds"),
    (re.compile(r","), "comma"),
    (re.compile(r"TCP|UDP|ICMP"), "protocol"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9.]+"), "source address"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+|--"), "source port"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9.]+"), "destination address"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+|--"), "destination port"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "eighth numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "packet count"),
]


class Protocol(str, Enum):
    TCP = "TCP"
    UDP = "UDP"
    ICMP = "ICMP"


class ParseError(ValueError):
    """Raised for a line that violates the grammar; carries the byte offset
    of the first violation."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One parsed log line. event_time is seconds of day; a port of 0 means
    the source token was '--' (portless, e.g. ICMP)."""

    raw_field_1: int
    raw_field_2: int
    event_time: int
    protocol: Protocol
    source_ip: str
    source_port: int
    dest_ip: str
    dest_port: int
    raw_field_8: int
    packets: int


@dataclass
class IngestStats:
    lines_read: int = 0
    records_parsed: int = 0
    parse_failures: int = 0


@dataclass(frozen=True)
class StreamReset:
    """Emitted in follow mode when the file shrank underneath the reader or
    a new file took its name (log rotation)."""

    line_number: int


@cache
def format_tod(seconds: int) -> str:
    """HH:MM:SS for a second of the day. Cached: parsed records carry a
    time of day, so the cache holds at most 86,400 strings (about 10 MB
    when a stream covers every second of a day)."""
    h, rest = divmod(seconds, 3600)
    m, s = divmod(rest, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def _violation_offset(line: str) -> tuple[int, str]:
    pos = 0
    for pattern, what in _STEPS:
        m = pattern.match(line, pos)
        if m is None:
            return pos, f"expected {what}"
        pos = m.end()
    return pos, "unexpected trailing text"


_PROTOCOLS = {member.value: member for member in Protocol}


# A dotted quad: four non-empty decimal parts, each at most 255 once its
# leading zeros are stripped ("0255" passes, "256" and "999" do not).
_OCTET = r"0*(?:[0-9]{1,2}|1[0-9]{2}|2[0-4][0-9]|25[0-5])"
_ipv4_match = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}").fullmatch


def parse_line(line: str) -> FlowRecord:
    """Parse one log line. Raises ParseError (with the offset of the first
    grammar violation) on anything else; never raises anything different."""
    m = _PARSE_RE.fullmatch(line)
    if m is None:
        offset, reason = _violation_offset(line)
        raise ParseError(offset, reason)
    raw_1, raw_2, hours, minutes, seconds, protocol, source_ip, source_token, dest_ip, dest_token, raw_8, packets = (
        m.groups()
    )
    if _ipv4_match(source_ip) is None:
        raise ParseError(m.start(7), "source address is not a dotted-quad IPv4 address")
    if _ipv4_match(dest_ip) is None:
        raise ParseError(m.start(9), "destination address is not a dotted-quad IPv4 address")
    source_port = 0 if source_token == "--" else int(source_token)
    if source_port > 65535:
        raise ParseError(m.start(8), "source port out of range")
    dest_port = 0 if dest_token == "--" else int(dest_token)
    if dest_port > 65535:
        raise ParseError(m.start(10), "destination port out of range")
    return FlowRecord(
        int(raw_1),
        int(raw_2),
        (int(hours) * 3600 + int(minutes) * 60 + int(seconds)) % 86400,
        _PROTOCOLS[protocol],
        source_ip,
        source_port,
        dest_ip,
        dest_port,
        int(raw_8),
        int(packets),
    )


def _port_token(port: int) -> str:
    return "--" if port == 0 else str(port)


def format_line(record: FlowRecord) -> str:
    """Inverse of parse_line for records with normalized fields."""
    return (
        f"{record.raw_field_1},{record.raw_field_2},{format_tod(record.event_time)},"
        f"{record.protocol.value},{record.source_ip}:{_port_token(record.source_port)},"
        f"{record.dest_ip}:{_port_token(record.dest_port)},{record.raw_field_8},{record.packets}"
    )


# Most bytes one poll() reads, so a burst of growth is taken in bounded
# steps rather than in one read.
READ_CHUNK_BYTES = 1 << 20


class TailReader:
    """Non-blocking incremental reader for a file that may still be growing.

    poll() returns complete lines that arrived since the last call, as
    (line_number, text) pairs, reading at most READ_CHUNK_BYTES per call.
    The file stays open between polls. Truncation, or a different file
    under the path (a rename-and-recreate rotation, seen as a new device
    and inode), shows up as a StreamReset item, and reading restarts from
    the top of the file; on a rotation the old file is first read to its
    end, so lines written to it before the rename are kept. While the path
    is missing, between a rotation's rename and re-create, poll() reads
    only what the old file still gains.
    """

    def __init__(self, path: str):
        self._path = path
        self._pos = 0
        self._buf = b""
        self._line_no = 0
        # Fail fast on unreadable paths.
        self._handle = open(path, "rb")
        self._file_id = self._id_of(self._handle)

    @staticmethod
    def _id_of(handle: BinaryIO) -> tuple[int, int]:
        st = os.fstat(handle.fileno())
        return st.st_dev, st.st_ino

    def close(self) -> None:
        self._handle.close()

    def poll(self) -> list[tuple[int, str] | StreamReset]:
        out: list[tuple[int, str] | StreamReset] = []
        try:
            st = os.stat(self._path)
        except FileNotFoundError:
            st = None
        budget = READ_CHUNK_BYTES
        if st is not None and (st.st_dev, st.st_ino) != self._file_id:
            budget -= self._read(out, budget)
            if budget == 0:
                return out  # the old file may hold more; drain it first
            try:
                handle = open(self._path, "rb")
            except FileNotFoundError:
                return out
            self._handle.close()
            self._handle = handle
            self._file_id = self._id_of(handle)
            self._restart(out)
        elif st is not None and st.st_size < self._pos:
            self._restart(out)
        self._read(out, budget)
        return out

    def _restart(self, out: list[tuple[int, str] | StreamReset]) -> None:
        out.append(StreamReset(self._line_no))
        self._handle.seek(0)
        self._pos = 0
        self._buf = b""

    def _read(self, out: list[tuple[int, str] | StreamReset], budget: int) -> int:
        chunk = self._handle.read(budget)
        if not chunk:
            return 0
        self._pos += len(chunk)
        *complete, self._buf = (self._buf + chunk).split(b"\n")
        for raw in complete:
            self._line_no += 1
            out.append((self._line_no, raw.decode("utf-8", errors="replace").rstrip("\r")))
        return len(chunk)


def open_stream(
    source: str,
    mode: str = "batch",
    *,
    poll_interval: float = 0.1,
    stop: Callable[[], bool] | None = None,
) -> Iterator[tuple[int, str] | StreamReset]:
    """Yield (line_number, text) items from a log file.

    Batch mode reads to EOF and stops. Follow mode keeps polling for growth
    until stop() turns true, reporting truncation as a StreamReset item.
    """
    if mode == "batch":
        with open(source, "r", errors="replace") as handle:
            for number, raw in enumerate(handle, 1):
                yield number, raw.rstrip("\r\n")
        return
    if mode != "follow":
        raise ValueError(f"unknown mode {mode!r}")
    reader = TailReader(source)
    try:
        while stop is None or not stop():
            items = reader.poll()
            if items:
                yield from items
            else:
                time.sleep(poll_interval)
    finally:
        reader.close()


def ingest(
    source: str,
    mode: str = "batch",
    *,
    poll_interval: float = 0.1,
    stop: Callable[[], bool] | None = None,
) -> tuple[Iterator[FlowRecord], IngestStats]:
    """Parse a log file into records.

    Returns a lazy record iterator plus a stats object that fills in as the
    iterator is consumed. Malformed lines are counted and skipped, never
    fatal; lines_read == records_parsed + parse_failures holds at all times.
    """
    stats = IngestStats()

    def records() -> Iterator[FlowRecord]:
        for item in open_stream(source, mode, poll_interval=poll_interval, stop=stop):
            if isinstance(item, StreamReset):
                logger.warning("%s was truncated or replaced; following from the top", source)
                continue
            stats.lines_read += 1
            try:
                record = parse_line(item[1])
            except ParseError:
                stats.parse_failures += 1
                continue
            stats.records_parsed += 1
            yield record

    return records(), stats
