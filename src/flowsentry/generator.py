"""Deterministic synthetic flow logs with injected scan campaigns and
line-accurate ground truth."""

from __future__ import annotations

import ipaddress
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .config import DEFAULT_LOCAL_NETS, PRESET_NAMES, ConfigError, check_int, check_keys, check_number, check_str, string_tuple
from .ingest import FlowRecord, Protocol, format_line
from .scanrules import LocalNetworks, ScanAlert, ScanKind

BENIGN_PORTS = (80, 443, 53, 22, 25, 110, 143, 8080)

_MAX_REJECTS = 1000


@dataclass(frozen=True)
class ScanSpec:
    """One injected scan: a vertical spec fixes the target address and walks
    ports, a horizontal spec fixes the port and walks local addresses.

    adjacency controls placement in the finished log: "adjacent" probes sit
    on consecutive lines, "interleaved" probes always have background
    traffic between them.
    """

    kind: ScanKind
    scanner_ip: str
    target: str | int
    probes: int
    inter_probe_gap: int
    start_time: int
    adjacency: str = "interleaved"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ScanKind(self.kind))
        check_str(self.scanner_ip, "scanner_ip")
        for name in ("probes", "inter_probe_gap", "start_time"):
            check_int(getattr(self, name), name)
        if self.adjacency not in ("adjacent", "interleaved"):
            raise ConfigError(f"unknown adjacency {self.adjacency!r}")
        if self.probes < 2:
            raise ConfigError("a scan needs at least 2 probes")
        if self.inter_probe_gap < 0 or self.start_time < 0:
            raise ConfigError("scan times must be non-negative")

    def probe_times(self) -> list[int]:
        return [self.start_time + i * self.inter_probe_gap for i in range(self.probes)]


@dataclass(frozen=True)
class GenConfig:
    duration: int
    background_rate: float
    local_nets: tuple[str, ...] = DEFAULT_LOCAL_NETS
    seed: int = 0
    scans: tuple[ScanSpec, ...] = ()
    start_tod: int = 14 * 3600  # time of day of the first second of the log

    def __post_init__(self) -> None:
        object.__setattr__(self, "scans", tuple(self.scans))
        object.__setattr__(self, "local_nets", tuple(self.local_nets))
        check_int(self.duration, "duration")
        check_number(self.background_rate, "background_rate")
        check_int(self.seed, "seed")
        check_int(self.start_tod, "start_tod")
        if self.duration < 1:
            raise ConfigError("duration must be at least 1 second")
        # Written so that NaN fails too.
        if not 0 <= self.background_rate < math.inf:
            raise ConfigError("background_rate must be finite and non-negative")
        if not 0 <= self.start_tod < 86400:
            raise ConfigError("start_tod must be a time of day in seconds")
        try:
            nets = LocalNetworks(self.local_nets)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for spec in self.scans:
            self._check_scan(spec, nets)

    def _check_scan(self, spec: ScanSpec, nets: LocalNetworks) -> None:
        try:
            ipaddress.IPv4Address(spec.scanner_ip)
        except ValueError as exc:
            raise ConfigError(f"bad scanner_ip {spec.scanner_ip!r}") from exc
        if nets.contains(spec.scanner_ip):
            raise ConfigError(f"scanner {spec.scanner_ip} must be outside local_nets")
        if spec.kind is ScanKind.VERTICAL:
            if not isinstance(spec.target, str):
                raise ConfigError("vertical scan target must be an address")
            try:
                ipaddress.IPv4Address(spec.target)
            except ValueError as exc:
                raise ConfigError(f"bad vertical target {spec.target!r}") from exc
            if not nets.contains(spec.target):
                raise ConfigError(f"vertical target {spec.target} must be local")
        else:
            if isinstance(spec.target, bool) or not isinstance(spec.target, int) or not 1 <= spec.target <= 65535:
                raise ConfigError("horizontal scan target must be a port number")
        if spec.probe_times()[-1] > self.duration:
            raise ConfigError("scan does not fit inside duration")


@dataclass(frozen=True)
class GroundTruthScan:
    kind: ScanKind
    scanner_ip: str
    target: str | int
    line_numbers: tuple[int, ...]


@dataclass(frozen=True)
class GroundTruth:
    scans: tuple[GroundTruthScan, ...]


def ground_truth_to_text(truth: GroundTruth) -> str:
    """One scan per line: kind,scanner,target,probes,lineno;lineno;..."""
    lines = ["# kind,scanner_ip,target,probes,line_numbers"]
    for scan in truth.scans:
        numbers = ";".join(str(n) for n in scan.line_numbers)
        lines.append(f"{scan.kind.value},{scan.scanner_ip},{scan.target},{len(scan.line_numbers)},{numbers}")
    return "\n".join(lines) + "\n"


def ground_truth_from_text(text: str) -> GroundTruth:
    scans = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, scanner, target, count, numbers = line.split(",")
        parsed = tuple(int(n) for n in numbers.split(";"))
        if len(parsed) != int(count):
            raise ValueError(f"ground truth count mismatch on {line!r}")
        fixed: str | int = int(target) if ScanKind(kind) is ScanKind.HORIZONTAL else target
        scans.append(GroundTruthScan(ScanKind(kind), scanner, fixed, parsed))
    return GroundTruth(tuple(scans))


def _ip_text(value: int) -> str:
    return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


class _AddressSpace:
    """Seeded draws of local and remote addresses. Remote sources are never
    repeated, never local, and never a scanner, so background traffic can
    not look like a scan no matter what timeout or policy reads it back."""

    def __init__(self, rng: random.Random, cidrs: Sequence[str], scanner_ips: Iterable[str]):
        self._rng = rng
        self._nets = LocalNetworks(cidrs)
        self._bases = [(int(n.network_address), n.num_addresses) for n in map(ipaddress.ip_network, cidrs)]
        self._taken = {int(ipaddress.IPv4Address(ip)) for ip in scanner_ips}

    def local_ip(self) -> str:
        base, size = self._bases[self._rng.randrange(len(self._bases))]
        offset = self._rng.randrange(1, size - 1) if size > 2 else self._rng.randrange(size)
        return _ip_text(base + offset)

    def distinct_local_ips(self, count: int) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for _ in range(_MAX_REJECTS):
            ip = self.local_ip()
            if ip not in seen:
                seen.add(ip)
                out.append(ip)
                if len(out) == count:
                    return out
        raise ConfigError("local_nets too small for the requested probe count")

    def fresh_remote_ip(self) -> str:
        for _ in range(_MAX_REJECTS):
            value = self._rng.randrange(1, 1 << 32)
            ip = _ip_text(value)
            if value in self._taken or self._nets.contains(ip):
                continue
            self._taken.add(value)
            return ip
        raise ConfigError("could not draw a fresh remote address")


def _background_record(rng: random.Random, space: _AddressSpace, tod: int) -> FlowRecord:
    roll = rng.random()
    if roll < 0.02:
        protocol, sport, dport = Protocol.ICMP, 0, 0
    else:
        protocol = Protocol.UDP if roll < 0.10 else Protocol.TCP
        sport = rng.randint(1024, 65535)
        dport = rng.choice(BENIGN_PORTS)
    return FlowRecord(
        raw_field_1=rng.randint(0, 9999),
        raw_field_2=rng.randint(0, 9999),
        event_time=tod,
        protocol=protocol,
        source_ip=space.fresh_remote_ip(),
        source_port=sport,
        dest_ip=space.local_ip(),
        dest_port=dport,
        raw_field_8=rng.randint(0, 999),
        packets=rng.randint(1, 40),
    )


def _probe_record(rng: random.Random, spec: ScanSpec, sport: int, dst_ip: str, dst_port: int, tod: int) -> FlowRecord:
    return FlowRecord(
        raw_field_1=rng.randint(0, 9999),
        raw_field_2=rng.randint(0, 9999),
        event_time=tod,
        protocol=Protocol.TCP,
        source_ip=spec.scanner_ip,
        source_port=sport,
        dest_ip=dst_ip,
        dest_port=dst_port,
        raw_field_8=rng.randint(0, 999),
        packets=rng.randint(1, 6),
    )


def _draw_background_time(rng: random.Random, duration: int, forbidden: list[tuple[int, int]]) -> int:
    for _ in range(_MAX_REJECTS):
        t = rng.randrange(duration)
        if not any(lo <= t <= hi for lo, hi in forbidden):
            return t
    raise ConfigError("background flows cannot avoid the adjacent scan windows")


def generate(config: GenConfig) -> tuple[list[str], GroundTruth]:
    """Produce log lines sorted by time plus ground truth locating every
    injected probe by line number. Same config, same bytes."""
    rng = random.Random(config.seed)
    space = _AddressSpace(rng, config.local_nets, (s.scanner_ip for s in config.scans))
    tod = lambda offset: (config.start_tod + offset) % 86400

    # entries: (time offset, record, index of the scan a probe belongs to)
    probes: list[tuple[int, FlowRecord, int | None]] = []
    for si, spec in enumerate(config.scans):
        sport = rng.randint(1024, 65535)
        if spec.kind is ScanKind.VERTICAL:
            ports = rng.sample(range(1, 65536), spec.probes)
            targets = [(str(spec.target), port) for port in ports]
        else:
            hosts = space.distinct_local_ips(spec.probes)
            targets = [(host, int(spec.target)) for host in hosts]
        for (dst_ip, dst_port), t in zip(targets, spec.probe_times()):
            probes.append((t, _probe_record(rng, spec, sport, dst_ip, dst_port, tod(t)), si))

    forbidden = [(s.start_time, s.probe_times()[-1]) for s in config.scans if s.adjacency == "adjacent"]
    entries = []
    for _ in range(round(config.background_rate * config.duration)):
        t = _draw_background_time(rng, config.duration, forbidden)
        entries.append((t, _background_record(rng, space, tod(t)), None))
    # The sort is stable, so background sorts before probes at the same
    # second (probes of one scan stay contiguous when their gap is zero) and
    # each group keeps the order it was drawn in.
    entries += probes
    entries.sort(key=itemgetter(0))

    for si, spec in enumerate(config.scans):
        if spec.adjacency == "adjacent":
            at = [i for i, entry in enumerate(entries) if entry[2] == si]
            if at[-1] - at[0] != len(at) - 1:
                raise ConfigError(f"scan {si} cannot stay adjacent; scans overlap in time")
            continue
        # A background flow goes between any two probes of scan si that touch.
        walked = []
        for entry in entries:
            if entry[2] == si and walked and walked[-1][2] == si:
                t, record, _ = walked[-1]
                walked.append((t, _background_record(rng, space, record.event_time), None))
            walked.append(entry)
        entries = walked

    # Format in place so records are freed as lines appear; corpora can run
    # to millions of entries. Probes of a scan appear in the order drawn.
    lines: list[str] = []
    numbers: list[list[int]] = [[] for _ in config.scans]
    for i, (_, record, si) in enumerate(entries):
        lines.append(format_line(record))
        if si is not None:
            numbers[si].append(i + 1)
        entries[i] = None  # type: ignore[call-overload]
    scans = (GroundTruthScan(s.kind, s.scanner_ip, s.target, tuple(n)) for s, n in zip(config.scans, numbers))
    return lines, GroundTruth(tuple(scans))


def ground_truth_check(detections: Iterable[object], truth: GroundTruth) -> tuple[float, int]:
    """Score detections against ground truth.

    A detection matches a scan when kind, scanner, and target agree; a
    target of None (detectors that do not report one) matches on the first
    two alone. Returns (recall, false positive count).
    """
    expected = [(s.kind, s.scanner_ip, s.target) for s in truth.scans]
    matched: set[int] = set()
    false_positives = 0
    for det in detections:
        if isinstance(det, ScanAlert):
            kind, scanner, target = det.kind, det.remote_ip, det.fixed
        else:
            kind, scanner, target = det  # type: ignore[misc]
        kind = ScanKind(kind)
        hit = False
        for i, (ek, es, et) in enumerate(expected):
            if kind is ek and scanner == es and (target is None or target == et):
                matched.add(i)
                hit = True
        if not hit:
            false_positives += 1
    recall = len(matched) / len(expected) if expected else 1.0
    return recall, false_positives


def _netbus_slow() -> GenConfig:
    # Four probes to one service port across four hosts, twelve minutes
    # apart, buried in an hour of benign noise.
    return GenConfig(
        duration=3600,
        background_rate=3.0,
        seed=1105,
        scans=(
            ScanSpec(
                kind=ScanKind.HORIZONTAL,
                scanner_ip="5.5.5.10",
                target=12346,
                probes=4,
                inter_probe_gap=720,
                start_time=213,
                adjacency="interleaved",
            ),
        ),
    )


_PRESETS = {"netbus-slow": _netbus_slow}


def preset(name: str) -> GenConfig:
    maker = _PRESETS.get(name)
    if maker is None:
        raise ConfigError(f"unknown preset {name!r} (have: {', '.join(PRESET_NAMES)})")
    return maker()


def gen_config_from_dict(data: dict) -> GenConfig:
    """Build a GenConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError("generator config must be a mapping")
    check_keys(data, GenConfig, "generator config")
    items = data.get("scans", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ConfigError("scans must be a list of mappings")
    for item in items:
        check_keys(item, ScanSpec, "scan")
    kwargs = {k: v for k, v in data.items() if k != "scans"}
    if "local_nets" in kwargs:
        kwargs["local_nets"] = string_tuple(kwargs["local_nets"], "local_nets")
    try:
        return GenConfig(scans=tuple(ScanSpec(**item) for item in items), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
