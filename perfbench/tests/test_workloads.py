"""Workload builders are seeded, and the benchmark matches its declaration."""

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import run
from reference import split_line
from workloads import BUILDERS, LOCAL_PREFIX

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_seed_same_bytes(name):
    first = BUILDERS[name](7, lines=4000)
    second = BUILDERS[name](7, lines=4000)
    assert first.lines == second.lines
    assert first.malformed == second.malformed
    assert first.scans == second.scans
    assert BUILDERS[name](8, lines=4000).lines != first.lines


def test_repeat_clients_never_go_quiet_for_the_timeout():
    corpus = BUILDERS["repeat-client"](1)
    times = defaultdict(list)
    for line in corpus.lines:
        flow = split_line(line)
        times[flow.src].append(flow.tod)
    scanners = {scanner for _, scanner, _ in corpus.scans}
    clients = {src: t for src, t in times.items() if src not in scanners}
    assert len(clients) == 1000
    assert max(b - a for t in clients.values() for a, b in zip(t, t[1:])) < run.TIMEOUT_S


def test_unique_remote_sources_are_fresh_and_cross_midnight():
    corpus = BUILDERS["unique-remote"](1, lines=4000)
    scanners = {scanner for _, scanner, _ in corpus.scans}
    flows = [split_line(line) for line in corpus.lines]
    background = [f.src for f in flows if f.src not in scanners]
    assert len(set(background)) == len(background)
    assert any(a.tod > b.tod for a, b in zip(flows, flows[1:]))


def test_egress_mix_is_mostly_outgoing():
    corpus = BUILDERS["egress-mix"](1, lines=4000)
    flows = [split_line(line) for i, line in enumerate(corpus.lines) if i not in corpus.malformed]
    outgoing = sum(f.src.startswith(f"{LOCAL_PREFIX}.") for f in flows)
    assert 0.85 < outgoing / len(flows) < 0.95


def test_declaration_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(BUILDERS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "egress-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
