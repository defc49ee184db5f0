"""Flow log line parsing, file ingestion and tailing of a growing file."""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import chain, repeat
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

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
_LINE_PATTERN = "".join(f"({pattern}){re.escape(sep)}" for _, pattern, sep in _GRAMMAR)
_LINE_MATCH = re.compile(_LINE_PATTERN).fullmatch

# The same grammar over a block of whole lines: one match per line, each a
# tuple of the twelve fields. A line the grammar rejects, a blank one
# included, matches the second alternative, so its first field is empty.
# Carriage returns at a line's end, which open_stream drops, are skipped.
_find_lines = re.compile(rf"^(?:{_LINE_PATTERN}\r*|.*)$", re.M).findall

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
# Builds a named tuple from a ready tuple of its fields without the Python
# frame of the class's generated __new__; called once per parsed line.
_new_tuple = tuple.__new__


def _seconds_of_day(hours: str, minutes: str, seconds: str) -> int:
    return (int(hours) * 3600 + int(minutes) * 60 + int(seconds)) % 86400


def _record(
    raw_1: str,
    raw_2: str,
    event_time: int,
    protocol: str,
    source_ip: str,
    source_token: str,
    dest_ip: str,
    dest_token: str,
    raw_8: str,
    packets: str,
) -> FlowRecord:
    """The record of a line's field texts, given its event_time. A port may
    come out above 65535, which the caller rejects."""
    return _new_tuple(
        FlowRecord,
        (
            int(raw_1),
            int(raw_2),
            event_time,
            _PROTOCOLS[protocol],
            source_ip,
            0 if source_token == "--" else int(source_token),
            dest_ip,
            0 if dest_token == "--" else int(dest_token),
            int(raw_8),
            int(packets),
        ),
    )


def _overlong_field(m: re.Match[str]) -> ParseError:
    """The error for a line whose fields match the grammar but one of
    whose digit runs int() refuses: longer than the interpreter's limit on
    digits converted from text (sys.get_int_max_str_digits())."""
    for group, (what, _, _) in enumerate(_GRAMMAR, 1):
        text = m[group]
        if text.isdigit():
            try:
                int(text)
            except ValueError:
                return ParseError(m.start(group), f"{what} has too many digits")
    raise AssertionError("no field of the line is too long to convert")


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
    try:
        event_time = _seconds_of_day(hours, minutes, seconds)
        record = _record(
            raw_1, raw_2, event_time, protocol, source_ip, source_token, dest_ip, dest_token, raw_8, packets
        )
    except ValueError:
        raise _overlong_field(m) from None
    if record.source_port > 65535:
        raise ParseError(m.start(8), "source port out of range")
    if record.dest_port > 65535:
        raise ParseError(m.start(10), "destination port out of range")
    return record


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
# steps rather than in one read. A poll's text is parsed by one regex call,
# whose list of field tuples grows with the text.
READ_CHUNK_BYTES = 1 << 16


class TailReader:
    """Non-blocking incremental reader for a file that may still be growing.

    poll() returns the complete lines that arrived since the last call as
    one string, each line ending in a newline, or "" when none did. It
    reads at most READ_CHUNK_BYTES per call and decodes as open_stream
    does. The file stays open between polls. Truncation, or a different
    file under the path (a rename-and-recreate rotation, seen as a new
    device and inode), is logged as a warning, and reading restarts from
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
        # Fail fast on unreadable paths.
        self._handle = open(path, "rb")
        self._file_id = self._id_of(self._handle)

    @staticmethod
    def _id_of(handle: BinaryIO) -> tuple[int, int]:
        st = os.fstat(handle.fileno())
        return st.st_dev, st.st_ino

    def close(self) -> None:
        self._handle.close()

    def poll(self) -> str:
        out = bytearray()
        try:
            st = os.stat(self._path)
        except FileNotFoundError:
            st = None
        budget = READ_CHUNK_BYTES
        if st is not None and (st.st_dev, st.st_ino) != self._file_id:
            budget -= self._read(out, budget)
            if budget:  # else the old file may hold more; drain it first
                self._reopen(out)
        elif st is not None and st.st_size < self._pos:
            self._restart()
        self._read(out, budget)
        return out.decode("utf-8", errors="replace")

    def _reopen(self, out: bytearray) -> None:
        try:
            handle = open(self._path, "rb")
        except FileNotFoundError:
            return
        self._handle.close()
        self._handle = handle
        self._file_id = self._id_of(handle)
        if self._buf:
            # The old file is read to its end: its last line is complete
            # even without a newline, as it is in batch mode.
            out += self._buf + b"\n"
        self._restart()

    def _restart(self) -> None:
        logger.warning("%s was truncated or replaced; following from the top", self._path)
        self._handle.seek(0)
        self._pos = 0
        self._buf = b""

    def _read(self, out: bytearray, budget: int) -> int:
        chunk = self._handle.read(budget)
        self._pos += len(chunk)
        self._buf += chunk
        end = self._buf.rfind(b"\n") + 1
        out += self._buf[:end]
        self._buf = self._buf[end:]
        return len(chunk)


def _open_text(source: str) -> TextIO:
    """A log file opened for reading as open_stream describes: split only at
    newline bytes, decoded as UTF-8 with undecodable bytes replaced."""
    return open(source, "r", encoding="utf-8", errors="replace", newline="\n")


# Characters batch ingest reads at a time; each read's whole lines are
# parsed by one regex call.
BLOCK_CHARS = 1 << 14


def _file_blocks(source: str) -> Iterator[tuple[str, int]]:
    """A file's lines as (text, end) blocks: text[:end] holds whole lines
    joined by newlines. A read's unfinished last line is carried into the
    next block, and at the end of the file it is a line of its own."""
    with _open_text(source) as handle:
        pieces = []
        while chunk := handle.read(BLOCK_CHARS):
            pieces.append(chunk)
            end = chunk.rfind("\n")
            if end >= 0:
                text = "".join(pieces)
                end += len(text) - len(chunk)
                yield text, end
                pieces = [text[end + 1 :]]
    tail = "".join(pieces)
    if tail:
        yield tail, len(tail)


def open_stream(source: str, mode: str = "batch") -> Iterator[tuple[int, str]]:
    """Yield (line_number, text) for each line of a log file, read to its
    end. "batch" is the only mode.

    A line ends only at a newline byte or at the end of the file, trailing
    carriage returns are dropped, and text is decoded as UTF-8 with
    undecodable bytes replaced. TailReader splits and decodes a growing
    file the same way.
    """
    if mode != "batch":
        raise ValueError(f"unknown mode {mode!r}")
    with _open_text(source) as handle:
        yield from enumerate(map(str.rstrip, handle, repeat("\r\n")), 1)


def parse_blocks(blocks: Iterable[tuple[str, int]], stats: IngestStats) -> Iterator[FlowRecord]:
    """The one parse-and-count loop: the records of the lines in (text, end)
    blocks, where text[:end] holds whole lines joined by newlines. Fields
    are converted as parse_line does. Malformed lines are counted in stats
    and skipped, never fatal; lines_read == records_parsed + parse_failures
    holds at all times."""
    # Logs come in time order, so most lines repeat the stamp texts last
    # converted, and reuse that event_time.
    hours_seen = minutes_seen = seconds_seen = None
    event_time = 0
    for text, end in blocks:
        for (
            raw_1, raw_2, hours, minutes, seconds, protocol,
            source_ip, source_token, dest_ip, dest_token, raw_8, packets,
        ) in _find_lines(text, 0, end):
            stats.lines_read += 1
            if not raw_1:
                stats.parse_failures += 1
                continue
            try:
                if seconds != seconds_seen or minutes != minutes_seen or hours != hours_seen:
                    event_time = _seconds_of_day(hours, minutes, seconds)
                    hours_seen, minutes_seen, seconds_seen = hours, minutes, seconds
                record = _record(
                    raw_1, raw_2, event_time, protocol, source_ip, source_token, dest_ip, dest_token, raw_8, packets
                )
            except ValueError:  # a digit run longer than int() converts
                stats.parse_failures += 1
                continue
            if record[5] > 65535 or record[7] > 65535:  # source_port, dest_port
                stats.parse_failures += 1
                continue
            stats.records_parsed += 1
            yield record


def ingest(*sources: str) -> tuple[Iterator[FlowRecord], IngestStats]:
    """Parse log files, each read to its end, into records.

    Returns a lazy record iterator plus a stats object that fills in as the
    iterator is consumed. Several files are read one after another as one
    stream with one stats object; each file's last line is a line of its
    own even without a newline. A file is split into lines as open_stream
    splits it, and parsed by parse_blocks; run_follow runs the same loop
    over each poll of a growing file.
    """
    stats = IngestStats()
    return parse_blocks(chain.from_iterable(map(_file_blocks, sources)), stats), stats
