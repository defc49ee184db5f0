"""Seeded workload builders for the benchmark.

Each builder turns a seed into a Corpus: the log lines the program reads,
the line numbers that were made malformed on purpose, and the scans that
were injected. The same seed always gives the same bytes. The expected
outputs are derived from a Corpus by reference.expected(), not here.

unique-remote goes through the package's own generator. repeat-client and
egress-mix have no generator preset, so they are built here from
FlowRecord and format_line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from flowsentry.generator import GenConfig, ScanSpec, generate
from flowsentry.ingest import FlowRecord, Protocol, format_line
from flowsentry.scanrules import ScanKind

LOCAL_NETS = ("10.0.0.0/8",)
LOCAL_PREFIX = 10  # first octet of LOCAL_NETS

# The watchlist the benchmark passes to analyze: "<name>,<port>,<in|out>".
WATCHLIST = ("NetBus,12346,in", "SubSeven,27374,in", "BackOrifice,31337,out")


@dataclass(frozen=True)
class Corpus:
    lines: list[str]
    malformed: frozenset[int]  # 0-based indices of lines built to be rejected
    scans: tuple[tuple[str, str, str], ...]  # injected (kind, scanner, target)


def _remote_ip(rng: random.Random, taken: set[str]) -> str:
    """A remote (non-local) address not in taken, which it joins."""
    while True:
        a = rng.randint(1, 223)
        if a in (LOCAL_PREFIX, 127):
            continue
        ip = f"{a}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randint(1, 254)}"
        if ip not in taken:
            taken.add(ip)
            return ip


def _local_ip(rng: random.Random) -> str:
    return f"{LOCAL_PREFIX}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randint(1, 254)}"


def _local_ips(rng: random.Random, count: int) -> list[str]:
    out: dict[str, None] = {}
    while len(out) < count:
        out[_local_ip(rng)] = None
    return list(out)


def _flow(rng: random.Random, tod: int, src: str, sport: int, dst: str, dport: int, protocol=Protocol.TCP) -> FlowRecord:
    return FlowRecord(
        raw_field_1=rng.randint(0, 9999),
        raw_field_2=rng.randint(0, 9999),
        event_time=tod % 86400,
        protocol=protocol,
        source_ip=src,
        source_port=sport,
        dest_ip=dst,
        dest_port=dport,
        raw_field_8=rng.randint(0, 999),
        packets=rng.randint(1, 40),
    )


def _scan_flows(
    rng: random.Random, taken: set[str], start_tod: int, duration: int, local_hosts: list[str]
) -> tuple[list[tuple[int, FlowRecord]], tuple[tuple[str, str, str], ...]]:
    """A slow horizontal NetBus sweep and a slow vertical port walk, each
    from a fresh scanner and with probe gaps well under the timeout."""
    entries = []
    h_scanner, v_scanner = _remote_ip(rng, taken), _remote_ip(rng, taken)
    sport = rng.randint(1024, 65535)
    start, gap = rng.randrange(duration // 10, duration // 3), min(600, duration // 6)
    for i, host in enumerate(rng.sample(local_hosts, 5)):
        t = start + i * gap
        entries.append((t, _flow(rng, start_tod + t, h_scanner, sport, host, 12346)))
    target = rng.choice(local_hosts)
    start, gap = rng.randrange(duration // 3, duration // 2), min(450, duration // 12)
    for i, port in enumerate(rng.sample(range(1, 1024), 6)):
        t = start + i * gap
        entries.append((t, _flow(rng, start_tod + t, v_scanner, sport, target, port)))
    scans = (("horizontal", h_scanner, "12346"), ("vertical", v_scanner, target))
    return entries, scans


def _sorted_lines(entries: list[tuple[int, FlowRecord]]) -> list[str]:
    # Stable sort on the time offset keeps the order of equal-time flows.
    entries.sort(key=lambda e: e[0])
    return [format_line(record) for _, record in entries]


def unique_remote(seed: int, lines: int = 40_000) -> Corpus:
    """Generator background where every remote source is fresh, plus a slow
    horizontal and a slow vertical scan; the stream crosses midnight."""
    rate = 28.0
    duration = int(lines / rate)
    rng = random.Random(f"unique-remote:{seed}")
    config = GenConfig(
        duration=duration,
        background_rate=rate,
        local_nets=LOCAL_NETS,
        seed=seed,
        start_tod=86400 - duration // 2,
        scans=(
            ScanSpec(ScanKind.HORIZONTAL, f"198.51.100.{rng.randint(1, 254)}", 12346, probes=5,
                     inter_probe_gap=min(600, duration // 6), start_time=rng.randrange(duration // 10, duration // 3)),
            ScanSpec(ScanKind.VERTICAL, f"203.0.113.{rng.randint(1, 254)}", _local_ip(rng), probes=6,
                     inter_probe_gap=min(450, duration // 12), start_time=rng.randrange(duration // 3, duration // 2)),
        ),
    )
    out, truth = generate(config)
    scans = tuple((s.kind.value, s.scanner_ip, str(s.target)) for s in truth.scans)
    return Corpus(out, frozenset(), scans)


def repeat_client(seed: int, lines: int = 40_000) -> Corpus:
    """1,000 remote clients talk to 20 local servers on port 443. Each client
    sends on a jittered schedule whose gaps stay far below the 900 s timeout,
    so its horizontal context never expires before the end of the log."""
    rng = random.Random(f"repeat-client:{seed}")
    clients_n, servers_n, duration, start_tod = 1000, 20, 3600, 9 * 3600
    taken: set[str] = set()
    clients = [_remote_ip(rng, taken) for _ in range(clients_n)]
    servers = _local_ips(rng, servers_n)
    per_client = max(1, (lines - 11) // clients_n)
    period = duration / per_client
    entries = []
    for client in clients:
        sport = rng.randint(1024, 65535)
        for k in range(per_client):
            t = int(k * period + rng.uniform(0, period))
            sport = sport + 1 if sport < 65535 else 1024
            entries.append((t, _flow(rng, start_tod + t, client, sport, rng.choice(servers), 443)))
    scan_entries, scans = _scan_flows(rng, taken, start_tod, duration, _local_ips(rng, 40))
    entries.extend(scan_entries)
    return Corpus(_sorted_lines(entries), frozenset(), scans)


def _malformed(rng: random.Random, line: str) -> str:
    """A copy of a well-formed line broken in one of the ways real logs are."""
    fields = line.split(",")
    how = rng.randrange(6)
    if how == 0:
        return line[: rng.randrange(1, line.rfind(","))]  # cut before the last field
    if how == 1:
        fields[3] = "SCTP"
    elif how == 2:
        fields[4] = "300." + fields[4].split(".", 1)[1]
    elif how == 3:
        fields[5] = fields[5].rsplit(":", 1)[0] + ":70000"
    elif how == 4:
        fields[2] = fields[2].replace(":", ".")
    else:
        fields.append("x")
    return ",".join(fields)


def egress_mix(seed: int, lines: int = 80_000) -> Corpus:
    """Mostly outgoing traffic from local hosts, fresh incoming sources, an
    outgoing watchlist hit now and then, and 1% malformed lines."""
    rng = random.Random(f"egress-mix:{seed}")
    rate, start_tod = 45.0, 13 * 3600
    duration = int(lines / rate)
    taken: set[str] = set()
    hosts = _local_ips(rng, 300)
    entries = []
    for _ in range(lines - 11):
        t = rng.randrange(duration)
        if rng.random() < 0.90:
            sport = 31337 if rng.random() < 0.003 else rng.randint(1024, 65535)
            remote = f"{rng.randint(11, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randint(1, 254)}"
            record = _flow(rng, start_tod + t, rng.choice(hosts), sport, remote, rng.choice((80, 443, 53, 123)),
                           Protocol.UDP if rng.random() < 0.2 else Protocol.TCP)
        else:
            record = _flow(rng, start_tod + t, _remote_ip(rng, taken), rng.randint(1024, 65535),
                           rng.choice(hosts), rng.choice((80, 443, 25)))
        entries.append((t, record))
    scan_entries, scans = _scan_flows(rng, taken, start_tod, duration, hosts)
    entries.extend(scan_entries)
    out = _sorted_lines(entries)
    scan_lines = {format_line(record) for _, record in scan_entries}
    candidates = [i for i, line in enumerate(out) if line not in scan_lines]
    malformed = frozenset(rng.sample(candidates, len(out) // 100))
    for i in sorted(malformed):
        out[i] = _malformed(rng, out[i])
    return Corpus(out, malformed, scans)


BUILDERS = {"unique-remote": unique_remote, "repeat-client": repeat_client, "egress-mix": egress_mix}
