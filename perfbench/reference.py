"""Independent reference for checking the program's output.

Nothing here imports flowsentry: lines are split by hand, and scan alerts
come from a small reference correlator. Incoming flows are grouped by
(source, destination address) and by (source, destination port); a group
splits wherever the gap to its previous flow is at least the timeout, on a
timeline that adds a day whenever the time of day falls back by more than
half a day; every run of at least min_messages flows is one alert.

An alert is compared as (kind, remote, fixed, evidence count, first seen,
last seen). Order is left out on purpose.
"""

from __future__ import annotations

import ipaddress
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

_HALF_DAY, _DAY = 43200, 86400
_EVIDENCE = re.compile(r"^([0-9.]+):([0-9]+) to ([0-9.]+):([0-9]+) at ([0-9]{2}:[0-9]{2}:[0-9]{2})$")
_SUMMARY = re.compile(r"^([0-9]+) lines read, ([0-9]+) parsed, ([0-9]+) malformed$")
_HEADERS = {"Vertical scan:": "vertical", "Horizontal scan:": "horizontal"}


class Flow(NamedTuple):
    tod: int
    src: str
    sport: int
    dst: str
    dport: int


def split_line(line: str) -> Flow:
    """Fields of a line known to be well formed."""
    _, _, tod, _, src, dst, _, _ = line.split(",")
    h, m, s = tod.split(":")
    src_ip, sport = src.rsplit(":", 1)
    dst_ip, dport = dst.rsplit(":", 1)
    return Flow(
        (int(h) * 3600 + int(m) * 60 + int(s)) % _DAY,
        src_ip,
        0 if sport == "--" else int(sport),
        dst_ip,
        0 if dport == "--" else int(dport),
    )


def _tod_text(tod: int) -> str:
    return f"{tod // 3600:02d}:{tod // 60 % 60:02d}:{tod % 60:02d}"


class _Nets:
    def __init__(self, cidrs):
        nets = [ipaddress.ip_network(c) for c in cidrs]
        self._masks = [(int(n.network_address), int(n.netmask)) for n in nets]

    def local(self, ip: str) -> bool:
        a, b, c, d = ip.split(".")
        value = (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)
        return any(value & mask == net for net, mask in self._masks)


def reference_alerts(flows: list[Flow], local_nets, timeout: float, min_messages: int) -> Counter:
    """Scan alerts the correlator must raise for a stream of flows."""
    nets = _Nets(local_nets)
    alerts: Counter = Counter()
    open_runs: dict[tuple[str, str, str], list[tuple[float, int]]] = {}

    def close(key, run):
        if len(run) >= min_messages:
            alerts[(*key, len(run), _tod_text(run[0][1]), _tod_text(run[-1][1]))] += 1

    day, last = 0, None
    for flow in flows:
        if last is not None and last - flow.tod > _HALF_DAY:
            day += 1
        last = flow.tod
        if nets.local(flow.src):
            continue
        now = day * _DAY + flow.tod
        for key in (("vertical", flow.src, flow.dst), ("horizontal", flow.src, str(flow.dport))):
            run = open_runs.get(key)
            if run is not None and now - run[-1][0] >= timeout:
                close(key, run)
                run = None
            if run is None:
                run = open_runs[key] = []
            run.append((now, flow.tod))
    for key, run in open_runs.items():
        close(key, run)
    return alerts


@dataclass
class Expected:
    lines: int
    malformed: int
    incoming: int
    outgoing: int
    vulns: int
    alerts: Counter
    scans: tuple[tuple[str, str, str], ...]

    def as_json(self) -> dict:
        return {
            "lines": self.lines,
            "malformed": self.malformed,
            "incoming": self.incoming,
            "outgoing": self.outgoing,
            "vulns": self.vulns,
            "scan_alerts": sum(self.alerts.values()),
            "injected_scans": [list(s) for s in self.scans],
        }


def parse_watchlist(entries) -> tuple[set[int], set[int]]:
    incoming, outgoing = set(), set()
    for entry in entries:
        _, port, direction = entry.split(",")
        (incoming if direction == "in" else outgoing).add(int(port))
    return incoming, outgoing


def expected(lines, malformed, scans, *, local_nets, watchlist, timeout: float, min_messages: int) -> Expected:
    """Everything an analyze run over these lines must report."""
    flows = [split_line(line) for i, line in enumerate(lines) if i not in malformed]
    nets = _Nets(local_nets)
    watch_in, watch_out = parse_watchlist(watchlist)
    incoming = outgoing = vulns = 0
    for flow in flows:
        if nets.local(flow.src):
            outgoing += 1
            vulns += flow.sport in watch_out
        else:
            incoming += 1
            vulns += flow.dport in watch_in
    return Expected(
        lines=len(lines),
        malformed=len(malformed),
        incoming=incoming,
        outgoing=outgoing,
        vulns=vulns,
        alerts=reference_alerts(flows, local_nets, timeout, min_messages),
        scans=tuple(scans),
    )


def read_scan_alerts(path: str) -> tuple[Counter, list[str]]:
    """Alerts in a portscans file, plus a note for each malformed block."""
    alerts: Counter = Counter()
    problems: list[str] = []
    blocks: list[tuple[str, list[str]]] = []
    with open(path, "r") as handle:
        for raw in handle:
            line = raw.rstrip("\n")
            if line in _HEADERS:
                blocks.append((_HEADERS[line], []))
            elif blocks:
                blocks[-1][1].append(line)
            else:
                problems.append(f"portscans: text before the first header: {line!r}")
    for kind, evidence in blocks:
        matches = [_EVIDENCE.match(line) for line in evidence]
        if not matches or not all(matches):
            problems.append(f"portscans: malformed {kind} block {evidence[:2]!r}")
            continue
        remotes = {m.group(1) for m in matches}
        fixed = {m.group(3) if kind == "vertical" else m.group(4) for m in matches}
        if len(remotes) != 1 or len(fixed) != 1:
            problems.append(f"portscans: {kind} block mixes keys {sorted(remotes)} {sorted(fixed)}")
            continue
        alerts[(kind, remotes.pop(), fixed.pop(), len(matches), matches[0].group(5), matches[-1].group(5))] += 1
    return alerts, problems


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


def _count_prefix(path: str, prefix: str) -> int:
    with open(path, "r") as handle:
        return sum(line.startswith(prefix) for line in handle)


@dataclass
class RunCheck:
    problems: list[str] = field(default_factory=list)
    alerts: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_run(out_dir: str, base: str, stdout: str, want: Expected) -> RunCheck:
    """Compare one analyze run's summary and four output files with want."""
    check = RunCheck()
    problems = check.problems
    summary = [m for m in map(_SUMMARY.match, stdout.splitlines()) if m]
    if len(summary) != 1:
        problems.append("no ingest summary line on stdout")
    else:
        read, parsed, bad = (int(g) for g in summary[0].groups())
        if (read, parsed, bad) != (want.lines, want.lines - want.malformed, want.malformed):
            problems.append(f"ingest read/parsed/malformed {read}/{parsed}/{bad}, want "
                            f"{want.lines}/{want.lines - want.malformed}/{want.malformed}")
    paths = {name: os.path.join(out_dir, f"{name}_{base}") for name in ("incoming", "outgoing", "portscans", "vulscans")}
    missing = [p for p in paths.values() if not os.path.isfile(p)]
    if missing:
        problems.append(f"missing output files {missing}")
        return check
    for name in ("incoming", "outgoing"):
        got = _count_lines(paths[name])
        if got != getattr(want, name):
            problems.append(f"{name}: {got} lines, want {getattr(want, name)}")
    vulns = _count_prefix(paths["vulscans"], "Potential Vulnerability:")
    if vulns != want.vulns:
        problems.append(f"vulscans: {vulns} alerts, want {want.vulns}")
    check.alerts, notes = read_scan_alerts(paths["portscans"])
    problems.extend(notes)
    if check.alerts != want.alerts:
        extra, lost = check.alerts - want.alerts, want.alerts - check.alerts
        problems.append(f"scan alerts differ from the reference: {sum(extra.values())} unexpected "
                        f"(e.g. {list(extra)[:2]}), {sum(lost.values())} missing (e.g. {list(lost)[:2]})")
    return check


def score(alerts: Counter, scans) -> tuple[float, int]:
    """(share of injected scans alerted, scan alerts matching no injected scan)."""
    injected = set(map(tuple, scans))
    found = {(kind, remote, fixed) for kind, remote, fixed, *_ in alerts}
    false_alerts = sum(n for (kind, remote, fixed, *_), n in alerts.items() if (kind, remote, fixed) not in injected)
    recall = len(injected & found) / len(injected) if injected else 1.0
    return recall, false_alerts
