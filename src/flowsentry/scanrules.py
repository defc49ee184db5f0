"""Port scan detection vocabulary: traffic direction, context keys, trigger
policies, and the vulnerable-service watchlist."""

from __future__ import annotations

import ipaddress
import logging
import re
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .ingest import FlowRecord, format_tod

if TYPE_CHECKING:
    from .engine import Context

logger = logging.getLogger(__name__)

WATCHLIST_GRAMMAR = re.compile(r"^([a-zA-Z0-9 ]+),([0-9]+),(in|out)$")


class ScanKind(str, Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class Direction(Enum):
    INCOMING = "incoming"
    OUTGOING = "outgoing"


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


@dataclass(frozen=True)
class ScanAlert:
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
    return Direction.OUTGOING if nets.contains(record.source_ip) else Direction.INCOMING


def derive_keys(record: FlowRecord) -> tuple[ScanKey, ScanKey]:
    """Both scan keys for a record; every incoming record belongs to exactly
    one vertical and one horizontal context."""
    source_ip = record.source_ip
    return (
        (ScanKind.VERTICAL, source_ip, record.dest_ip),
        (ScanKind.HORIZONTAL, source_ip, str(record.dest_port)),
    )


def evidence_line(record: FlowRecord) -> str:
    """One evidence line of a scan alert, built from the record when its
    context fires."""
    return (
        f"{record.source_ip}:{record.source_port} to "
        f"{record.dest_ip}:{record.dest_port} at {format_tod(record.event_time)}"
    )


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
        if self.mode not in ("min_messages", "distinct_targets"):
            raise ValueError(f"unknown trigger policy {self.mode!r}")
        if self.min_messages < 2:
            raise ValueError("min_messages floor is 2")


def count_distinct_targets(ctx: "Context") -> int:
    if ctx.key[0] is ScanKind.VERTICAL:
        return len({m.dest_port for m in ctx.messages})
    return len({m.dest_ip for m in ctx.messages})


def trigger_holds(ctx: "Context", policy: TriggerPolicy) -> bool:
    if policy.mode == "min_messages":
        return len(ctx.messages) >= policy.min_messages
    return count_distinct_targets(ctx) >= policy.min_messages


def scan_alert(ctx: "Context") -> ScanAlert:
    """Build the alert for a scan context whose trigger already held."""
    kind, remote_ip, fixed = ctx.key
    messages = ctx.messages
    return ScanAlert(
        kind=kind,
        remote_ip=remote_ip,
        fixed=int(fixed) if kind is ScanKind.HORIZONTAL else fixed,
        evidence=tuple(evidence_line(m) for m in messages),
        first_seen=format_tod(messages[0].event_time),
        last_seen=format_tod(messages[-1].event_time),
        distinct_targets=count_distinct_targets(ctx),
    )


def scan_trigger(ctx: "Context", policy: TriggerPolicy) -> ScanAlert | None:
    """Build the alert for an expiring scan context, or None when it stays
    below the policy threshold (a lone probe never alerts)."""
    return scan_alert(ctx) if trigger_holds(ctx, policy) else None


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
            if m is None or int(m.group(2)) > 65535:
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
    if direction is Direction.INCOMING:
        entry = watchlist.incoming.get(record.dest_port)
    else:
        entry = watchlist.outgoing.get(record.source_port)
    return VulnAlert(entry, record) if entry is not None else None
