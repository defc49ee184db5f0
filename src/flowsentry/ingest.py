"""Flow log line parsing plus batch and follow-mode file ingestion."""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import BinaryIO, Callable, Iterator, NamedTuple

logger = logging.getLogger(__name__)


class Protocol(str, Enum):
    TCP = "TCP"
    UDP = "UDP"
    ICMP = "ICMP"


# A dotted quad: four non-empty decimal parts, each at most 255 once its
# leading zeros are stripped ("0255" passes, "256" and "999" do not). The
# three-digit forms are tried first, as most parts of an address have three
# digits, and the four parts are spelled out: `re` runs a repeated group
# with alternatives more slowly.
_OCTET = r"0*(?:25[0-5]|2[0-4][0-9]|1[0-9]{2}|[0-9]{1,2})"
_IPV4 = r"\.".join([_OCTET] * 4)
_ipv4_match = re.compile(_IPV4).fullmatch

# The line grammar, the one place it is spelled: each field's name, its
# pattern and the separator that follows it. Field 8 is validated but
# carries no meaning for detection; it is kept on the record so lines can
# be reproduced verbatim.
_GRAMMAR = (
    ("first numeric field", r"[0-9]+", ","),
    ("second numeric field", r"[0-9]+", ","),
    ("hours", r"[0-9]+", ":"),
    ("minutes", r"[0-9]+", ":"),
    ("seconds", r"[0-9]+", ","),
    ("protocol", "|".join(member.value for member in Protocol), ","),
    ("source address", _IPV4, ":"),
    ("source port", r"[0-9]+|--", ","),
    ("destination address", _IPV4, ":"),
    ("destination port", r"[0-9]+|--", ","),
    ("eighth numeric field", r"[0-9]+", ","),
    ("packet count", r"[0-9]+", ""),
)
_SEPARATOR_NAMES = {",": "comma", ":": "colon"}

# The whole grammar as one pattern with one capture per field, for lines
# that parse.
_LINE_MATCH = re.compile("".join(f"({pattern}){re.escape(sep)}" for _, pattern, sep in _GRAMMAR)).fullmatch

# The grammar one token at a time, used only to locate the first offending
# byte once the whole-line match has failed. An address is scanned as any
# run of digits and dots, so a later grammar fault is reported ahead of a
# bad address; the address itself is checked when the rest of the line
# holds.
_ADDRESS_TOKEN = re.compile(r"[0-9.]+")


def _token_steps() -> list[tuple[re.Pattern[str], str]]:
    steps = []
    for what, pattern, sep in _GRAMMAR:
        steps.append((_ADDRESS_TOKEN if pattern == _IPV4 else re.compile(pattern), what))
        if sep:
            steps.append((re.compile(re.escape(sep)), _SEPARATOR_NAMES[sep]))
    return steps


_STEPS = _token_steps()


class ParseError(ValueError):
    """Raised for a line that violates the grammar; carries the byte offset
    of the first violation."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class FlowRecord(NamedTuple):
    """One parsed log line, an immutable named tuple with its fields in line
    order. event_time is seconds of day; a port of 0 means the source token
    was '--' (portless, e.g. ICMP)."""

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
    """Offset and reason of the first violation in a line the whole-line
    match rejected: the first token out of place, else trailing text, else
    the first address that is not a dotted quad, source before
    destination."""
    pos = 0
    bad_address = None
    for pattern, what in _STEPS:
        m = pattern.match(line, pos)
        if m is None:
            return pos, f"expected {what}"
        if bad_address is None and pattern is _ADDRESS_TOKEN and _ipv4_match(m[0]) is None:
            bad_address = pos, f"{what} is not a dotted-quad IPv4 address"
        pos = m.end()
    if bad_address is not None and pos == len(line):
        return bad_address
    return pos, "unexpected trailing text"


_PROTOCOLS = {member.value: member for member in Protocol}
# Protocol text by member: a dict lookup costs a fraction of the Enum
# `.value` property on the per-line formatting paths.
PROTOCOL_TEXT = {member: member.value for member in Protocol}


def parse_line(line: str) -> FlowRecord:
    """Parse one log line. Raises ParseError (with the offset of the first
    grammar violation) on anything else; never raises anything different."""
    m = _LINE_MATCH(line)
    if m is None:
        offset, reason = _violation_offset(line)
        raise ParseError(offset, reason)
    raw_1, raw_2, hours, minutes, seconds, protocol, source_ip, source_token, dest_ip, dest_token, raw_8, packets = (
        m.groups()
    )
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
        f"{PROTOCOL_TEXT[record.protocol]},{record.source_ip}:{_port_token(record.source_port)},"
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
    end, so lines written to it before the rename are kept, the last one
    too when it has no newline. While the path is missing, between a
    rotation's rename and re-create, poll() reads only what the old file
    still gains.
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
            if self._buf:
                # The old file is read to its end: its last line is complete
                # even without a newline, as it is in batch mode.
                self._emit(out, self._buf)
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
            self._emit(out, raw)
        return len(chunk)

    def _emit(self, out: list[tuple[int, str] | StreamReset], raw: bytes) -> None:
        self._line_no += 1
        out.append((self._line_no, raw.decode("utf-8", errors="replace").rstrip("\r")))


def open_stream(
    source: str,
    mode: str = "batch",
    *,
    poll_interval: float = 0.1,
    stop: Callable[[], bool] | None = None,
) -> Iterator[tuple[int, str] | StreamReset]:
    """Yield (line_number, text) items from a log file.

    Both modes split a file into the same lines: a line ends only at a
    newline byte (or, in batch mode, at the end of the file), trailing
    carriage returns are dropped, and text is decoded as UTF-8 with
    undecodable bytes replaced.

    Batch mode reads to EOF and stops. Follow mode keeps polling for growth
    until stop() turns true, reporting truncation and rotation as a
    StreamReset item. stop() is called once before every poll: first before
    the first poll, then after the consumer has taken a poll's items, or
    after the idle sleep when a poll found nothing. A caller may do periodic
    work inside it.
    """
    if mode == "batch":
        with open(source, "r", encoding="utf-8", errors="replace", newline="\n") as handle:
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
