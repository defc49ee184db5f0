"""run_engine against a small independent correlator.

The reference below imports nothing from flowsentry. It keeps each scan
key's open run as a plain list and, at every record, closes every run whose
last flow is at least the timeout behind engine time, by scanning them all.
Engine time follows the time of day, adds a day whenever the time of day
falls back by more than half a day, takes one off whenever it rises by more
than half a day (a late record from before midnight), and never steps back:
a record stamped behind the highest time seen so far is handled at that
time.
"""

from collections import Counter
from itertools import chain

from hypothesis import given, settings, strategies as st

from flowsentry.config import EngineConfig
from flowsentry.engine import run_engine
from flowsentry.ingest import ingest
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.scanrules import Watchlist

from conftest import make_line

_HALF_DAY, _DAY = 43200, 86400
LOCAL_SOURCES = ("10.0.0.3",)  # inside the default 10.0.0.0/8


def _tod_text(tod):
    return f"{tod // 3600:02d}:{tod // 60 % 60:02d}:{tod % 60:02d}"


def reference_alerts(flows, timeout, mode, threshold):
    """Alerts a correlator must raise for flows (tod, src, sport, dst,
    dport), by the instant that fires them: the index of the record on whose
    arrival the run's deadline had passed, or len(flows) at the end of the
    stream. Each instant's alerts come sorted by key."""
    fired = {}
    runs = {}
    day, last, now = 0, None, 0

    def close(instant, key):
        _, flows_in_run = runs.pop(key)
        kind, src, fixed = key
        if kind == "vertical":
            distinct = len({dport for _, _, _, _, dport in flows_in_run})
        else:
            distinct = len({dst for _, _, _, dst, _ in flows_in_run})
            fixed = int(fixed)
        size = len(flows_in_run) if mode == "min_messages" else distinct
        if size >= threshold:
            evidence = tuple(f"{s}:{sp} to {d}:{dp} at {_tod_text(t)}" for t, s, sp, d, dp in flows_in_run)
            alert = (kind, src, fixed, evidence, _tod_text(flows_in_run[0][0]), _tod_text(flows_in_run[-1][0]), distinct)
            fired.setdefault(instant, []).append(alert)

    for i, flow in enumerate(flows):
        tod, src, _, dst, dport = flow
        if last is not None and last - tod > _HALF_DAY:
            day += 1
        elif last is not None and tod - last > _HALF_DAY:
            day -= 1
        last = tod
        now = max(now, day * _DAY + tod)
        for key in sorted(key for key, (deadline, _) in runs.items() if deadline <= now):
            close(i, key)
        if src in LOCAL_SOURCES:
            continue
        for key in (("vertical", src, dst), ("horizontal", src, str(dport))):
            _, held = runs.get(key, (None, []))
            runs[key] = (now + timeout, held + [flow])
    for key in sorted(runs):
        close(len(flows), key)
    return fired


steps = st.lists(
    st.tuples(
        # Seconds since the previous flow: negative steps back, and a gap of
        # exactly one timeout lands on a deadline.
        st.one_of(st.integers(-90, 400), st.sampled_from([-300, -60, 0, 60, 300])),
        st.sampled_from(("5.5.5.1", "5.5.5.2", "6.6.6.6") + LOCAL_SOURCES),
        st.sampled_from(("10.0.0.1", "10.0.0.2", "10.0.0.3")),
        st.sampled_from((80, 443, 12346)),
    ),
    max_size=40,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    start=st.integers(_DAY - 1200, _DAY + 600),
    steps=steps,
    split=st.integers(0, 40),
    timeout=st.sampled_from([60.0, 300.0]),
    mode=st.sampled_from(["min_messages", "distinct_targets"]),
    threshold=st.integers(2, 3),
)
def test_run_engine_matches_an_independent_correlator(tmp_path_factory, start, steps, split, timeout, mode, threshold):
    # Streams start around midnight, so most cross it; the time of day wraps.
    flows, t = [], start
    for n, (gap, src, dst, dport) in enumerate(steps):
        t += gap
        flows.append((t % _DAY, src, 1000 + n, dst, dport))
    lines = [
        make_line(time=_tod_text(tod), src=src, sport=str(sp), dst=dst, dport=str(dp)) for tod, src, sp, dst, dp in flows
    ]
    # Two files read as one stream, as analyze reads several logs.
    work = tmp_path_factory.mktemp("oracle")
    paths = [work / "first.log", work / "second.log"]
    for path, part in zip(paths, (lines[:split], lines[split:])):
        path.write_text("".join(line + "\n" for line in part), encoding="utf-8")

    instant = [0]

    def numbered(records):
        for i, record in enumerate(records):
            instant[0] = i
            yield record
        instant[0] = len(flows)

    class InstantSink:
        """Notes the instant of every alert; keeps none, so report.alerts does."""

        def __init__(self):
            self.fired = []

        def emit(self, alert):
            self.fired.append((instant[0], alert))

        def traffic(self, direction, text):
            pass

    config = EngineConfig(timeout_value=timeout, trigger_policy=mode, min_messages=threshold, date="2004/11/05")
    sink = InstantSink()
    records = chain.from_iterable(ingest(str(path))[0] for path in paths)
    report = run_engine(numbered(records), build_scan_ruleset(config, Watchlist()), sinks=sink)

    def plain(alert):
        return (alert.kind.value, *alert[1:])

    want = reference_alerts(flows, timeout, mode, threshold)
    assert report.messages_processed == len(flows)
    assert Counter(map(plain, report.alerts)) == Counter(chain.from_iterable(want.values()))
    got = {}
    for i, alert in sink.fired:
        got.setdefault(i, []).append(plain(alert))
    assert got == want
