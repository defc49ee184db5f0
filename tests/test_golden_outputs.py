"""analyze output pinned byte for byte.

Each case runs the CLI over a fixed corpus and compares sha256 digests of
the four output files and of stdout, and the summary lines as text, with
values recorded from a known-good build. A change that is meant to leave
output alone must leave these alone too.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from flowsentry.cli import run_command
from flowsentry.generator import generate, preset
from flowsentry.ingest import FlowRecord, Protocol, format_line

OUTPUTS = ("incoming", "outgoing", "portscans", "vulscans")
POLICIES = {
    "min2-900": ["--policy", "min_messages", "--min-messages", "2", "--timeout", "900"],
    "distinct3-300": ["--policy", "distinct_targets", "--min-messages", "3", "--timeout", "300"],
}


def _flow(rng, tod, src, sport, dst, dport, protocol=Protocol.TCP):
    return FlowRecord(rng.randint(0, 9999), rng.randint(0, 9999), tod % 86400, protocol,
                      src, sport, dst, dport, rng.randint(0, 999), rng.randint(1, 40))


def repeat_client_lines():
    """150 remote clients each talk to 8 local servers on port 443 every
    five minutes or so, plus outgoing flows, a slow horizontal NetBus sweep
    and a vertical port walk. The stream crosses midnight, and every 97th
    line is swapped with the next, so engine time steps back now and then."""
    rng = random.Random("golden-repeat-client")
    start_tod, duration = 86400 - 1800, 3600
    clients = [f"{rng.randint(11, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.{i}" for i in range(1, 151)]
    servers = [f"10.1.{rng.randrange(256)}.{i}" for i in range(1, 9)]
    entries = []
    for client in clients:
        sport = rng.randint(1024, 60000)
        for k in range(12):
            t = int(k * 300 + rng.uniform(0, 300))
            entries.append((t, _flow(rng, start_tod + t, client, sport + k, rng.choice(servers), 443)))
    for _ in range(300):
        t = rng.randrange(duration)
        remote = f"{rng.randint(11, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randint(1, 254)}"
        entries.append((t, _flow(rng, start_tod + t, rng.choice(servers), rng.randint(1024, 65535), remote, 53,
                                 Protocol.UDP)))
    for i, host in enumerate(servers[:4]):
        entries.append((400 + 200 * i, _flow(rng, start_tod + 400 + 200 * i, "198.51.100.7", 4321, host, 12346)))
    for i, port in enumerate((21, 22, 23, 25, 80)):
        entries.append((1500 + 250 * i, _flow(rng, start_tod + 1500 + 250 * i, "203.0.113.9", 5555, servers[5], port)))
    entries.sort(key=lambda e: e[0])
    lines = [format_line(record) for _, record in entries]
    for i in range(0, len(lines) - 1, 97):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def netbus_slow_lines():
    return generate(preset("netbus-slow"))[0]


CORPORA = {"netbus-slow": netbus_slow_lines, "repeat-client": repeat_client_lines}

GOLDEN = {
    ("netbus-slow", "min2-900"): {
        "incoming": "7dd10d49228f928805966e9541986bf2284cb73c01fe91022523154cc2c35248",
        "outgoing": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "portscans": "d27c2975d7f083f52871bbd35936f47d630926064e8c3ae1de189c0bb7b1809b",
        "vulscans": "ff4bcede3d613b803dc25a8ac6f509e59d950b0573253d1cf0a478b0b803320e",
        "rc": 0,
        "stdout": "60cf809532f3888b322ad8a8c08af5b5b3c71c472b571e858942cf76aafb4db3",
        "summary": [
            "10804 lines read, 10804 parsed, 0 malformed",
            "21605 contexts created, 1 fired",
            "1 scan alerts -> out/portscans_flows.log",
            "4 vulnerability alerts -> out/vulscans_flows.log",
        ],
    },
    ("netbus-slow", "distinct3-300"): {
        "incoming": "7dd10d49228f928805966e9541986bf2284cb73c01fe91022523154cc2c35248",
        "outgoing": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "portscans": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "vulscans": "ff4bcede3d613b803dc25a8ac6f509e59d950b0573253d1cf0a478b0b803320e",
        "rc": 0,
        "stdout": "846a962cc0cb4ffda91dfada42da76df0858339f0a05d3c1a3f5340f0ecf3329",
        "summary": [
            "10804 lines read, 10804 parsed, 0 malformed",
            "21608 contexts created, 0 fired",
            "0 scan alerts -> out/portscans_flows.log",
            "4 vulnerability alerts -> out/vulscans_flows.log",
        ],
    },
    ("repeat-client", "min2-900"): {
        "incoming": "c782ee93e0576f012f863c2d8f59daf4d1bbc2f08cc2561c53d90615fd2eb0b2",
        "outgoing": "eade6fd447a4df609a78f8f5b5ee3abc2014be84e7564fd6a7d189d2d93ea7fe",
        "portscans": "dba3e6b42da0d30464d636bb069cb2bbb522e6e143304fd75a2a5e7413ea52b2",
        "vulscans": "6171e9a80e72e38898ea12a9300412da23cd41b4b9b8e934225453ead5136a1e",
        "rc": 0,
        "stdout": "c8b061516bde5d60bc760298aec11a7e2d47e7d3d0ac9002440458c4bd39ad17",
        "summary": [
            "2109 lines read, 2109 parsed, 0 malformed",
            "1529 contexts created, 496 fired",
            "496 scan alerts -> out/portscans_flows.log",
            "4 vulnerability alerts -> out/vulscans_flows.log",
        ],
    },
    ("repeat-client", "distinct3-300"): {
        "incoming": "c782ee93e0576f012f863c2d8f59daf4d1bbc2f08cc2561c53d90615fd2eb0b2",
        "outgoing": "eade6fd447a4df609a78f8f5b5ee3abc2014be84e7564fd6a7d189d2d93ea7fe",
        "portscans": "d769d7f98e7ded25c7a4f326212ba00088a72f1819b784ab09f3da4feed4e6fb",
        "vulscans": "6171e9a80e72e38898ea12a9300412da23cd41b4b9b8e934225453ead5136a1e",
        "rc": 0,
        "stdout": "efe59d46aa80a5bb2108e71c4a28ae0789be6da643c7b836844b894ee043af9d",
        "summary": [
            "2109 lines read, 2109 parsed, 0 malformed",
            "2671 contexts created, 142 fired",
            "142 scan alerts -> out/portscans_flows.log",
            "4 vulnerability alerts -> out/vulscans_flows.log",
        ],
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_analyze(tmp_path, monkeypatch, corpus, policy):
    (tmp_path / "flows.log").write_text("\n".join(CORPORA[corpus]()) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run_command(["analyze", "flows.log", "--out-dir", "out", "--date", "2004/11/05", *POLICIES[policy]])
    stdout = out.getvalue()
    observed = {name: sha256((tmp_path / "out" / f"{name}_flows.log").read_bytes()) for name in OUTPUTS}
    observed.update(rc=rc, stdout=sha256(stdout.encode("utf-8")), summary=stdout.splitlines()[-4:])
    return observed


@pytest.mark.parametrize("corpus, policy", sorted(GOLDEN))
def test_analyze_output_matches_golden(tmp_path, monkeypatch, corpus, policy):
    assert run_analyze(tmp_path, monkeypatch, corpus, policy) == GOLDEN[corpus, policy]
