"""Port scan detection vocabulary: traffic direction, context keys, trigger
policies, and the vulnerable-service watchlist."""

from __future__ import annotations

import ipaddress
import logging
import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .engine import Context, ContextSpec
from .ingest import FlowRecord, format_tod

logger = logging.getLogger(__name__)

WATCHLIST_GRAMMAR = re.compile(r"^([a-zA-Z0-9 ]+),([0-9]+),(in|out)$")


class ScanKind(str, Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class Direction(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"


# The members as module constants for per-record code: on Python 3.10 and
# 3.11, reading one off its Enum class costs several times a global lookup.
INCOMING, OUTGOING, VERTICAL, HORIZONTAL = Direction.INCOMING, Direction.OUTGOING, ScanKind.VERTICAL, ScanKind.HORIZONTAL


# What a scan context groups on: (kind, remote_ip, fixed). Vertical: one
# remote source probing ports on one local host, so fixed is the
# destination address. Horizontal: one remote source probing one port
# across local hosts, so fixed is the destination port as text. Keys are
# plain tuples so they hash and sort in C; the port stays text so keys sort
# as text ("12346" before "9").
ScanKey = tuple[ScanKind, str, str]


@dataclass(frozen=True)
class WatchlistEntry:
    name: str
    port: int
    direction: str  # "in" or "out"


class ScanAlert(NamedTuple):
    """One fired scan context, built in one step as an immutable tuple."""

    kind: ScanKind
    remote_ip: str
    fixed: str | int
    evidence: tuple[str, ...]
    first_seen: str
    last_seen: str
    distinct_targets: int


@dataclass(frozen=True)
class VulnAlert:
    entry: WatchlistEntry
    record: FlowRecord


_NO_LOCAL_OCTETS = dict.fromkeys(map(str, range(256)), False)


class LocalNetworks:
    """Membership test for the configured IPv4 local address space. A
    first-octet table answers for most addresses; octets that a prefix
    longer than /8 cuts into, and first octets written with leading zeros,
    go through the network masks."""

    def __init__(self, cidrs: Iterable[str]):
        nets = [ipaddress.ip_network(c) for c in cidrs]
        if not nets:
            raise ValueError("local_nets must not be empty")
        for net in nets:
            if net.version != 4:
                raise ValueError(f"local network {net} is not IPv4")
        self.cidrs = tuple(str(n) for n in nets)
        self._masks = [(int(n.network_address), int(n.netmask)) for n in nets]
        # First octet as text -> True (a network covers the whole octet),
        # False (no network touches it) or None (a longer prefix cuts into it).
        table: dict[str, bool | None] = dict(_NO_LOCAL_OCTETS)
        for n in nets:
            first = int(n.network_address) >> 24
            if n.prefixlen <= 8:
                for octet in range(first, first + (1 << (8 - n.prefixlen))):
                    table[str(octet)] = True
            elif table[str(first)] is False:
                table[str(first)] = None
        self._first_octet = table

    def contains(self, ip: str) -> bool:
        local = self._first_octet.get(ip.partition(".")[0])
        if local is not None:
            return local
        a, b, c, d = ip.split(".")
        value = (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)
        for net, mask in self._masks:
            if value & mask == net:
                return True
        return False


def classify_direction(record: FlowRecord, nets: LocalNetworks) -> Direction:
    """Outgoing when the source address is local, incoming otherwise."""
    return OUTGOING if nets.contains(record.source_ip) else INCOMING


def derive_keys(record: FlowRecord) -> tuple[ScanKey, ScanKey]:
    """Both scan keys for a record; every incoming record belongs to exactly
    one vertical and one horizontal context."""
    source_ip = record.source_ip
    return (
        (VERTICAL, source_ip, record.dest_ip),
        (HORIZONTAL, source_ip, str(record.dest_port)),
    )


# As in ingest: a named tuple from a ready tuple of its fields, without the
# Python frame of the class's __new__.
_new_tuple = tuple.__new__


def evidence_line(record: FlowRecord) -> str:
    """One evidence line of a scan alert: "src:sport to dst:dport at
    HH:MM:SS". It is also the scan rule's held message (ContextSpec.hold),
    built when the engine holds the record, so the contexts that one hold
    call fills share the one string."""
    return (
        f"{record.source_ip}:{record.source_port} to "
        f"{record.dest_ip}:{record.dest_port} at {format_tod(record.event_time)}"
    )


# The trigger policy modes, in the order the CLI offers them.
TRIGGER_MODES = ("min_messages", "distinct_targets")


@dataclass(frozen=True)
class TriggerPolicy:
    """When an expiring scan context becomes an alert.

    min_messages: any N-or-more messages. distinct_targets: N-or-more
    distinct destination ports (vertical) or addresses (horizontal), so
    repeated retries against one service stay quiet.
    """

    mode: str = "min_messages"
    min_messages: int = 2

    def __post_init__(self) -> None:
        if self.mode not in TRIGGER_MODES:
            raise ValueError(f"unknown trigger policy {self.mode!r}")
        if self.min_messages < 2:
            raise ValueError("min_messages floor is 2")

    def trigger(self) -> Callable[[ScanKey, Sequence[str]], bool]:
        """The policy as a ContextSpec trigger: a predicate on a context's
        key and evidence lines, with the mode decided here, not at each
        expiry."""
        threshold = self.min_messages
        if self.mode == "min_messages":
            return lambda key, messages: len(messages) >= threshold
        return lambda key, messages: count_distinct_targets(key, messages) >= threshold


_source_ip = attrgetter("source_ip")


def scan_spec(timeout_value: float, policy: TriggerPolicy) -> ContextSpec:
    """The scan rule's ContextSpec. Both keys of a record share its remote
    source, the grouping, so a source seen once is one engine entry; a
    policy's threshold is at least 2, so no alert needs the trigger call
    that one-message contexts skip. A context holds each record as its
    evidence line, formatted in arrival order as the engine holds the
    record, one string for both of its contexts; the trigger and
    scan_alert read only those lines."""
    return ContextSpec(
        timeout_value,
        trigger=policy.trigger(),
        on_fire=scan_alert,
        grouping=(_source_ip, derive_keys),
        hold=evidence_line,
    )


def count_distinct_targets(key: ScanKey, messages: Sequence[str]) -> int:
    """Distinct destination endpoints ("dst:dport", the third word of an
    evidence line) among a scan context's lines. The key fixes the other
    half of the endpoint, so this counts distinct ports in a vertical
    context and distinct addresses in a horizontal one."""
    return len({line.split(" ", 3)[2] for line in messages})


def scan_alert(ctx: Context) -> ScanAlert:
    """Build the alert for a scan context whose trigger already held, from
    its evidence lines: first_seen and last_seen are the times the first
    and the last line end with."""
    kind, remote_ip, fixed = ctx.key
    messages = ctx.messages
    return _new_tuple(
        ScanAlert,
        (
            kind,
            remote_ip,
            fixed if kind is VERTICAL else int(fixed),
            tuple(messages),
            messages[0].rpartition(" at ")[2],
            messages[-1].rpartition(" at ")[2],
            count_distinct_targets(ctx.key, messages),
        ),
    )


def load_watchlist(path: str) -> tuple[list[WatchlistEntry], int]:
    """Read watchlist lines (<name>,<port>,<in|out>). Malformed lines are
    skipped; the second return value counts them."""
    entries: list[WatchlistEntry] = []
    skipped = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for raw in handle:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            m = WATCHLIST_GRAMMAR.match(line)
            # Past five digits after its leading zeros a port is too big,
            # and int() refuses a run of more than 4,300.
            if m is None or len(m.group(2).lstrip("0")) > 5 or int(m.group(2)) > 65535:
                skipped += 1
                logger.warning("skipping malformed watchlist line: %r", line)
                continue
            entries.append(WatchlistEntry(m.group(1), int(m.group(2)), m.group(3)))
    return entries, skipped


class Watchlist:
    """Port lookup split by direction. Incoming traffic is checked on its
    destination port, outgoing on its source port; later duplicate ports
    overwrite earlier ones."""

    def __init__(self, entries: Iterable[WatchlistEntry] = ()):
        self.incoming: dict[int, WatchlistEntry] = {}
        self.outgoing: dict[int, WatchlistEntry] = {}
        for entry in entries:
            table = self.incoming if entry.direction == "in" else self.outgoing
            table[entry.port] = entry

    def __len__(self) -> int:
        return len(self.incoming) + len(self.outgoing)


def check_watchlist(record: FlowRecord, direction: Direction, watchlist: Watchlist) -> VulnAlert | None:
    if direction is INCOMING:
        entry = watchlist.incoming.get(record.dest_port)
    else:
        entry = watchlist.outgoing.get(record.source_port)
    return VulnAlert(entry, record) if entry is not None else None
