"""End-to-end acceptance checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion. Criterion 7 generates and replays million-line corpora, so this
file takes a few minutes.
"""

import contextlib
import dataclasses
import random
import re
import time

import pytest

from flowsentry.baseline import baseline_scan, compare_reports
from flowsentry.bench import REFERENCE_MSGS_PER_SEC, measure_throughput
from flowsentry.config import EngineConfig
from flowsentry.engine import Context, ContextSpec, CorrelationEngine, Rule, Ruleset, run_engine
from flowsentry.generator import GenConfig, ScanSpec, generate, ground_truth_check, preset
from flowsentry.ingest import ParseError, ingest, parse_line
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.reporting import format_fw_line, format_scan_alert, format_vuln_alert
from flowsentry.cli import run_command
from flowsentry.scanrules import (
    Direction,
    LocalNetworks,
    ScanAlert,
    ScanKind,
    TriggerPolicy,
    VulnAlert,
    Watchlist,
    WatchlistEntry,
    classify_direction,
    derive_keys,
    scan_trigger,
    trigger_holds,
)

from conftest import make_record

DATE = "2004/11/05"
TZ = "-5:00"
NETS = ("10.0.0.0/8",)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({label}): FAIL")
        raise
    print(f"\ncriterion {number} ({label}): PASS")


def netbus_watchlist():
    return Watchlist([WatchlistEntry("NetBus", 12346, "in")])


def ruleset_for(timeout):
    config = EngineConfig(timeout_value=timeout, date=DATE)
    return build_scan_ruleset(config, netbus_watchlist())


def scan_alerts(report):
    return [a for a in report.alerts if isinstance(a, ScanAlert)]


@pytest.fixture(scope="module")
def slow_corpus():
    config = preset("netbus-slow")
    lines, truth = generate(config)
    return config, lines, truth


def test_criterion_1_slow_scan_detection(slow_corpus):
    with criterion(1, "slow scan found at 900s timeout, missed at 60s, fast"):
        _, lines, truth = slow_corpus
        assert len(lines) >= 10000
        records = [parse_line(line) for line in lines]
        started = time.perf_counter()
        wide = run_engine(iter(records), ruleset_for(900.0))
        narrow = run_engine(iter(records), ruleset_for(60.0))
        elapsed = time.perf_counter() - started
        found = scan_alerts(wide)
        assert len(found) == 1
        alert = found[0]
        assert alert.kind is ScanKind.HORIZONTAL
        assert alert.remote_ip == "5.5.5.10"
        assert alert.fixed == 12346
        assert len(alert.evidence) == 4
        assert ground_truth_check(found, truth) == (1.0, 0)
        assert scan_alerts(narrow) == []
        assert elapsed < 5.0


def test_criterion_2_adjacency_blindness(slow_corpus):
    with criterion(2, "adjacent-entry pass blind to interleaved, sees adjacent"):
        config, lines, _ = slow_corpus
        records = [parse_line(line) for line in lines]
        spread = baseline_scan(records, netbus_watchlist(), NETS, DATE, TZ)
        assert spread.portscans == 0
        assert spread.scan_events == []

        packed_config = dataclasses.replace(
            config,
            scans=tuple(dataclasses.replace(s, adjacency="adjacent") for s in config.scans),
        )
        packed_lines, _ = generate(packed_config)
        packed = baseline_scan(
            [parse_line(line) for line in packed_lines], netbus_watchlist(), NETS, DATE, TZ
        )
        assert packed.portscans == 1
        assert packed.scan_events[0].kind is ScanKind.HORIZONTAL
        assert packed.scan_events[0].source_ip == "5.5.5.10"
        assert packed.portscan_lines[0] == "Potential horizontal portscan from 5.5.5.10 at 14:03:33"


def test_criterion_3_engine_matches_baseline_on_adjacent_corpora():
    with criterion(3, "engine and adjacent-entry pass agree on 100 corpora"):
        agreements = 0
        for seed in range(1, 101):
            rng = random.Random(seed)
            scans = []
            for k in range(rng.randint(1, 3)):
                scanner = f"77.{seed % 250}.{k + 1}.{rng.randint(1, 250)}"
                probes = rng.randint(2, 4)
                gap = rng.randint(1, 20)
                start = 50 + k * 150
                if rng.random() < 0.5:
                    spec = ScanSpec(ScanKind.HORIZONTAL, scanner, rng.randint(1, 65535), probes, gap, start, "adjacent")
                else:
                    target = f"10.0.{rng.randint(0, 255)}.{rng.randint(1, 254)}"
                    spec = ScanSpec(ScanKind.VERTICAL, scanner, target, probes, gap, start, "adjacent")
                scans.append(spec)
            lines, _ = generate(GenConfig(duration=600, background_rate=0.5, seed=seed, scans=tuple(scans)))
            records = [parse_line(line) for line in lines]
            engine_report = run_engine(iter(records), ruleset_for(900.0))
            baseline_report = baseline_scan(records, netbus_watchlist(), NETS, DATE, TZ)
            diff = compare_reports(scan_alerts(engine_report), baseline_report)
            expected = {spec.scanner_ip for spec in scans}
            if not diff.engine_only and not diff.baseline_only and set(diff.common) == expected:
                agreements += 1
        assert agreements == 100


def test_criterion_4_context_invariants_under_fuzzing():
    with criterion(4, "context invariants hold on 1000 random streams"):
        timeout = 300.0
        nets = LocalNetworks(NETS)
        policy = TriggerPolicy("min_messages", 2)
        sources = [f"20.0.0.{i}" for i in range(1, 6)] + ["10.0.0.3"]
        dests = [f"10.0.0.{i}" for i in range(1, 5)]
        ports = [80, 81, 12346, 0]

        def build_stream(rng):
            t = 30000
            records = []
            for _ in range(rng.randint(10, 40)):
                t += rng.randint(0, 450)
                records.append(
                    make_record(
                        time=t,
                        src=rng.choice(sources),
                        sport=rng.randint(1024, 65535),
                        dst=rng.choice(dests),
                        dport=rng.choice(ports),
                    )
                )
            return records

        def run_instrumented(records):
            fired = []

            def fire(ctx):
                fired.append(ctx)
                return scan_trigger(ctx, policy)

            def holds(ctx):
                return trigger_holds(ctx, policy)

            spec = ContextSpec(timeout, trigger=holds, on_fire=fire)

            def action(engine, record):
                if classify_direction(record, nets) is Direction.OUTGOING:
                    return
                for key in derive_keys(record):
                    engine.add_to_context(engine.ensure_context(key, spec), record)

            engine = CorrelationEngine(Ruleset([Rule("scan", lambda r: True, [action])]))
            for record in records:
                engine.process(record)
                now = engine.now
                for ctx in engine.live_contexts():
                    # Live contexts always have time left and agree with
                    # their own messages about the key and the deadline.
                    assert ctx.deadline > now
                    assert ctx.deadline == ctx.messages[-1].event_time + timeout
                    assert all(ctx.key in derive_keys(m) for m in ctx.messages)
            report = engine.finish()
            # fired holds every fired context, so identities cannot be reused.
            assert len(fired) == len({id(ctx) for ctx in fired})
            assert report.contexts_fired <= report.contexts_expired
            assert report.contexts_expired == report.contexts_created
            return report

        for seed in range(1000):
            records = build_stream(random.Random(9000 + seed))
            first = run_instrumented(records)
            second = run_instrumented(records)
            assert first.alerts == second.alerts


def test_criterion_5_single_probes_never_alert():
    with criterion(5, "no single-message context fires under any policy"):
        for mode in ("min_messages", "distinct_targets"):
            with pytest.raises(ValueError):
                TriggerPolicy(mode, 1)
            for threshold in (2, 3, 4, 5):
                policy = TriggerPolicy(mode, threshold)
                for kind in (ScanKind.VERTICAL, ScanKind.HORIZONTAL):
                    for size in range(0, 6):
                        for distinct in range(1 if size else 0, size + 1):
                            records = []
                            for i in range(size):
                                if kind is ScanKind.VERTICAL:
                                    records.append(make_record(dst="10.0.0.7", dport=7000 + i % distinct))
                                else:
                                    records.append(make_record(dst=f"10.0.0.{i % distinct + 1}", dport=12346))
                            probe = records[0] if records else make_record()
                            key = derive_keys(probe)[0 if kind is ScanKind.VERTICAL else 1]
                            ctx = Context(key, ContextSpec(900.0, trigger=lambda c: True, on_fire=lambda c: None))
                            ctx.messages.extend(records)
                            alert = scan_trigger(ctx, policy)
                            should_fire = size > 0 and (size if mode == "min_messages" else distinct) >= threshold
                            assert (alert is not None) == should_fire
                            if size <= 1:
                                assert alert is None


def test_criterion_6_parser_totality(tmp_path):
    with criterion(6, "parser accepts the corpus and fails mutations closed"):
        lines, _ = generate(
            GenConfig(
                duration=400,
                background_rate=2.0,
                seed=61,
                scans=(ScanSpec(ScanKind.HORIZONTAL, "5.5.5.10", 12346, 4, 30, 60),),
            )
        )
        for line in lines:
            parse_line(line)

        oracle = re.compile(
            r"^([0-9]+),([0-9]+),([0-9]+):([0-9]+):([0-9]+),(TCP|UDP|ICMP),"
            r"([0-9.]+):([0-9]+|--),([0-9.]+):([0-9]+|--),([0-9]+),([0-9]+)$"
        )

        def oracle_accepts(text):
            m = oracle.match(text)
            if m is None:
                return False
            for group in (7, 9):
                parts = m.group(group).split(".")
                if len(parts) != 4 or not all(p and int(p) <= 255 for p in parts):
                    return False
            for group in (8, 10):
                token = m.group(group)
                if token != "--" and int(token) > 65535:
                    return False
            return True

        pool = "0123456789.,:-|TUDPICM abcxyZ!"
        rng = random.Random(606)

        def mutate(text):
            for _ in range(rng.randint(1, 3)):
                if not text:
                    text = rng.choice(pool)
                    continue
                roll = rng.random()
                i = rng.randrange(len(text))
                if roll < 0.4:
                    text = text[:i] + rng.choice(pool) + text[i + 1 :]
                elif roll < 0.7:
                    text = text[:i] + rng.choice(pool) + text[i:]
                else:
                    text = text[:i] + text[i + 1 :]
            return text

        disagreements = 0
        for i in range(10000):
            line = mutate(rng.choice(lines[:200]))
            try:
                parse_line(line)
                accepted = True
            except ParseError as err:
                accepted = False
                assert 0 <= err.offset <= len(line)
            # Anything other than ParseError propagates and fails the test.
            if accepted != oracle_accepts(line):
                disagreements += 1
        assert disagreements == 0

        # Malformed lines are skipped and accounted for, never fatal.
        mixed = tmp_path / "mixed.log"
        good, bad = lines[:50], ["junk"] * 7
        mixed.write_text("\n".join(good + bad) + "\n")
        records, stats = ingest(str(mixed))
        assert len(list(records)) == 50
        assert (stats.records_parsed, stats.parse_failures) == (50, 7)
        assert stats.lines_read == 57


def test_criterion_7_throughput_scales_linearly(tmp_path):
    with criterion(7, "a doubled corpus costs at most tripled wall time"):
        rate = 1_000_000 / 3600
        config = EngineConfig(timeout_value=60.0, date=DATE)
        results = {}
        for label, duration, seed in (("half", 1800, 71), ("full", 3600, 72)):
            lines, _ = generate(GenConfig(duration=duration, background_rate=rate, seed=seed))
            path = tmp_path / f"{label}.log"
            with open(path, "w") as handle:
                for line in lines:
                    handle.write(line + "\n")
            expected = len(lines)
            del lines
            results[label] = measure_throughput(str(path), config, repetitions=3)
            assert results[label].messages == expected
        half, full = results["half"], results["full"]
        assert abs(half.messages - 500_000) <= 2
        assert abs(full.messages - 1_000_000) <= 2
        print(
            f"\n  500k: {half.wall_time:.2f}s ({half.throughput:,.0f} msg/s); "
            f"1M: {full.wall_time:.2f}s ({full.throughput:,.0f} msg/s); "
            f"reference {REFERENCE_MSGS_PER_SEC:,} msg/s "
            f"({full.throughput / REFERENCE_MSGS_PER_SEC:.2f}x, informational)"
        )
        assert full.wall_time <= 3 * half.wall_time


def test_criterion_8_output_bytes_are_exact(tmp_path, slow_corpus):
    with criterion(8, "alert and traffic formats are byte-exact, runs reproducible"):
        out_record = make_record(src="10.0.0.1", sport=3434, dst="1.2.3.5", dport=12346)
        assert (
            format_fw_line(out_record, Direction.OUTGOING, DATE, TZ)
            == "FWOUT,2004/11/05,14:03:33 -5:00 GMT,10.0.0.1:3434,1.2.3.5:12346,TCP"
        )
        in_record = make_record(src="5.5.5.10", sport=3434, dst="10.0.0.7", dport=12346)
        assert (
            format_fw_line(in_record, Direction.INCOMING, DATE, TZ)
            == "FWIN,2004/11/05,14:03:33 -5:00 GMT,5.5.5.10:3434,10.0.0.7:12346,TCP"
        )
        alert = ScanAlert(
            ScanKind.HORIZONTAL,
            "5.5.5.10",
            12346,
            ("5.5.5.10:3434 to 10.0.0.1:12346 at 14:03:33", "5.5.5.10:3434 to 10.0.0.2:12346 at 14:15:13"),
            "14:03:33",
            "14:15:13",
            2,
        )
        assert format_scan_alert(alert) == (
            "Horizontal scan:\n"
            "5.5.5.10:3434 to 10.0.0.1:12346 at 14:03:33\n"
            "5.5.5.10:3434 to 10.0.0.2:12346 at 14:15:13"
        )
        assert format_vuln_alert(VulnAlert(WatchlistEntry("NetBus", 12346, "in"), in_record)) == (
            "Potential Vulnerability: NetBus.\n 14:03:33: 5.5.5.10:3434 -> 10.0.0.7:12346"
        )
        banner_report = baseline_scan(
            [
                make_record(time="14:03:33", dst="10.0.0.7", dport=80),
                make_record(time="14:03:40", dst="10.0.0.7", dport=81),
            ],
            netbus_watchlist(),
            NETS,
            DATE,
            TZ,
        )
        assert banner_report.portscan_lines == [
            "Potential vertical portscan from 5.5.5.10 at 14:03:33",
            "5.5.5.10:3434 -> 10.0.0.7:80",
            "5.5.5.10:3434 -> 10.0.0.7:81",
        ]

        _, lines, _ = slow_corpus
        log = tmp_path / "slow.log"
        log.write_text("\n".join(lines) + "\n")
        for out in ("first", "second"):
            code = run_command(
                [
                    "analyze",
                    str(log),
                    "--timeout",
                    "900",
                    "--date",
                    DATE,
                    "--out-dir",
                    str(tmp_path / out),
                    "--no-console",
                ]
            )
            assert code == 0
        for name in ("incoming", "outgoing", "portscans", "vulscans"):
            first = (tmp_path / "first" / f"{name}_slow.log").read_bytes()
            second = (tmp_path / "second" / f"{name}_slow.log").read_bytes()
            assert first == second
        assert (tmp_path / "first" / "portscans_slow.log").read_text().startswith("Horizontal scan:\n")
