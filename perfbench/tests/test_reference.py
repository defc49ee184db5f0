"""The reference correlator and output check agree with the program."""

import os
import random
from collections import Counter

import pytest

from flowsentry.cli import run_command
from flowsentry.config import EngineConfig
from flowsentry.engine import run_engine
from flowsentry.ingest import FlowRecord, Protocol, format_line, parse_line
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.reporting import SinkSet
from flowsentry.scanrules import ScanAlert

from reference import check_run, expected, reference_alerts, score, split_line
from workloads import BUILDERS, LOCAL_NETS, WATCHLIST

TIMEOUT = 300


def flow(tod, src, dst, dport, sport=40000):
    return FlowRecord(1, 2, tod % 86400, Protocol.TCP, src, sport, dst, dport, 3, 4)


def engine_alerts(records, timeout=TIMEOUT):
    config = EngineConfig(timeout_value=float(timeout), local_nets=LOCAL_NETS)
    report = run_engine(records, build_scan_ruleset(config), sinks=SinkSet.null())
    return Counter(
        (a.kind.value, a.remote_ip, str(a.fixed), len(a.evidence), a.first_seen, a.last_seen)
        for a in report.alerts
        if isinstance(a, ScanAlert)
    )


def ref_alerts(records, timeout=TIMEOUT):
    flows = [split_line(format_line(r)) for r in records]
    return reference_alerts(flows, LOCAL_NETS, float(timeout), 2)


def test_gap_equal_to_timeout_splits_the_run():
    records = [flow(1000, "5.5.5.5", "10.0.0.1", 80), flow(1000 + TIMEOUT, "5.5.5.5", "10.0.0.1", 80)]
    assert ref_alerts(records) == Counter()
    assert engine_alerts(records) == Counter()


def test_gap_just_under_timeout_keeps_the_run():
    records = [flow(1000, "5.5.5.5", "10.0.0.1", 80), flow(999 + TIMEOUT, "5.5.5.5", "10.0.0.1", 80)]
    want = Counter({
        ("vertical", "5.5.5.5", "10.0.0.1", 2, "00:16:40", "00:21:39"): 1,
        ("horizontal", "5.5.5.5", "80", 2, "00:16:40", "00:21:39"): 1,
    })
    assert ref_alerts(records) == want
    assert engine_alerts(records) == want


def test_midnight_crossing_is_a_short_gap():
    records = [flow(86400 - 60, "5.5.5.5", "10.0.0.1", 22), flow(60, "5.5.5.5", "10.0.0.2", 22)]
    want = Counter({("horizontal", "5.5.5.5", "22", 2, "23:59:00", "00:01:00"): 1})
    assert ref_alerts(records) == want
    assert engine_alerts(records) == want


def test_long_gap_across_midnight_splits():
    records = [flow(86400 - 200, "5.5.5.5", "10.0.0.1", 22), flow(200, "5.5.5.5", "10.0.0.2", 22)]
    assert ref_alerts(records) == Counter()
    assert engine_alerts(records) == Counter()


def test_both_scan_kinds_and_outgoing_traffic():
    records = [
        flow(100, "6.6.6.6", "10.0.0.9", 21),
        flow(110, "10.0.0.9", "6.6.6.6", 4444),  # outgoing: never a scan context
        flow(120, "6.6.6.6", "10.0.0.9", 22),
        flow(130, "6.6.6.6", "10.0.0.9", 23),
        flow(140, "7.7.7.7", "10.0.0.1", 445),
        flow(150, "7.7.7.7", "10.0.0.2", 445),
    ]
    want = Counter({
        ("vertical", "6.6.6.6", "10.0.0.9", 3, "00:01:40", "00:02:10"): 1,
        ("horizontal", "7.7.7.7", "445", 2, "00:02:20", "00:02:30"): 1,
    })
    assert ref_alerts(records) == want
    assert engine_alerts(records) == want


@pytest.mark.parametrize("seed", range(12))
def test_reference_matches_engine_on_seeded_corpora(seed):
    rng = random.Random(seed)
    sources = [f"5.5.5.{i}" for i in range(1, 5)] + ["10.0.0.200"]
    start = rng.choice((3600, 86400 - 1500))  # half of the corpora cross midnight
    t, records = start, []
    for _ in range(400):
        # Mostly short gaps, some exactly at the timeout, some well past it.
        t += rng.choice((0, 1, 5, 20, 60, TIMEOUT, TIMEOUT, 2 * TIMEOUT))
        src = rng.choice(sources)
        records.append(flow(t, src, f"10.0.0.{rng.randint(1, 4)}", rng.choice((22, 80, 443))))
    assert ref_alerts(records) == engine_alerts(records)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_check_accepts_analyze_output_and_rejects_a_lost_alert(tmp_path, capsys, name):
    corpus = BUILDERS[name](5, lines=3000)
    log = tmp_path / f"{name}.log"
    log.write_text("\n".join(corpus.lines) + "\n")
    watchlist = tmp_path / "watchlist.txt"
    watchlist.write_text("\n".join(WATCHLIST) + "\n")
    out = tmp_path / "out"
    argv = ["analyze", str(log), "--no-console", "--date", "2026/03/14", "--watchlist", str(watchlist),
            "--out-dir", str(out), "--local-net", LOCAL_NETS[0]]
    assert run_command(argv) == 0
    stdout = capsys.readouterr().out
    want = expected(corpus.lines, corpus.malformed, corpus.scans, local_nets=LOCAL_NETS, watchlist=WATCHLIST,
                    timeout=900.0, min_messages=2)
    check = check_run(str(out), log.name, stdout, want)
    assert check.problems == []
    assert score(check.alerts, corpus.scans)[0] == 1.0

    portscans = out / f"portscans_{log.name}"
    lines = portscans.read_text().splitlines()
    del lines[1]  # first evidence line of the first alert
    portscans.write_text("\n".join(lines) + "\n")
    assert not check_run(str(out), log.name, stdout, want).ok


def test_malformed_lines_are_exactly_what_the_parser_rejects():
    corpus = BUILDERS["egress-mix"](3, lines=5000)
    rejected = set()
    for i, line in enumerate(corpus.lines):
        try:
            parse_line(line)
        except ValueError:
            rejected.add(i)
    assert rejected == set(corpus.malformed)
    assert len(rejected) == len(corpus.lines) // 100
