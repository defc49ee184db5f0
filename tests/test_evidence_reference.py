"""The scan rule's alerts from held evidence lines against a reference that
holds the records: the earlier form, which formatted each evidence line
from its record when the context fired. Every ScanAlert field and every
report counter must agree.
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from flowsentry.engine import CorrelationEngine, Rule, Ruleset
from flowsentry.ingest import format_tod, parse_line
from flowsentry.scanrules import VERTICAL, ScanAlert, TriggerPolicy, derive_keys, scan_spec

from conftest import make_line

_DAY = 86400


def reference_evidence_line(record):
    return (
        f"{record.source_ip}:{record.source_port} to "
        f"{record.dest_ip}:{record.dest_port} at {format_tod(record.event_time)}"
    )


def reference_count_distinct_targets(key, messages):
    if key[0] is VERTICAL:
        return len({m.dest_port for m in messages})
    return len({m.dest_ip for m in messages})


def reference_scan_alert(ctx):
    kind, remote_ip, fixed = ctx.key
    messages = ctx.messages
    return ScanAlert(
        kind,
        remote_ip,
        fixed if kind is VERTICAL else int(fixed),
        tuple(map(reference_evidence_line, messages)),
        format_tod(messages[0].event_time),
        format_tod(messages[-1].event_time),
        reference_count_distinct_targets(ctx.key, messages),
    )


def reference_trigger(policy):
    threshold = policy.min_messages
    if policy.mode == "min_messages":
        return lambda key, messages: len(messages) >= threshold
    return lambda key, messages: reference_count_distinct_targets(key, messages) >= threshold


def engine_for(spec):
    def action(engine, record):
        engine.add(derive_keys(record), spec, record)

    return CorrelationEngine(Ruleset([Rule("scan", lambda record: True, [action])]))


# Few sources, hosts and ports, so sources come back and contexts fire; a
# port of "--" parses as 0, and an address with a leading zero is another
# address as text.
steps = st.lists(
    st.tuples(
        st.one_of(st.integers(-30, 90), st.sampled_from([0, 60, 300])),
        st.sampled_from(("5.5.5.1", "6.6.6.6")),
        st.sampled_from(("3434", "--")),
        st.sampled_from(("10.0.0.1", "10.0.0.2", "010.0.0.2", "10.0.0.3")),
        st.sampled_from(("80", "443", "12346", "--")),
    ),
    min_size=5,
    max_size=60,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    start=st.integers(_DAY - 900, _DAY + 60),
    steps=steps,
    timeout=st.sampled_from([120.0, 900.0]),
    mode=st.sampled_from(["min_messages", "distinct_targets"]),
    threshold=st.integers(2, 4),
)
# Four ports on one host, the last portless, and four hosts on one port,
# one with a leading zero: each fires at threshold 4 across midnight.
@example(
    start=_DAY - 30,
    steps=[(0, "5.5.5.1", "3434", "10.0.0.1", port) for port in ("80", "443", "12346", "--")],
    timeout=120.0,
    mode="distinct_targets",
    threshold=4,
)
@example(
    start=_DAY - 30,
    steps=[(20, "6.6.6.6", "--", host, "80") for host in ("10.0.0.1", "10.0.0.2", "010.0.0.2", "10.0.0.3")],
    timeout=120.0,
    mode="distinct_targets",
    threshold=4,
)
def test_held_lines_give_the_alerts_and_counts_of_held_records(start, steps, timeout, mode, threshold):
    # Streams start around midnight, so most cross it; the time of day wraps.
    policy = TriggerPolicy(mode, threshold)
    spec = scan_spec(timeout, policy)
    reference = replace(spec, hold=None, trigger=reference_trigger(policy), on_fire=reference_scan_alert)
    lines, records = engine_for(spec), engine_for(reference)
    t = start
    for gap, src, sport, dst, dport in steps:
        t += gap
        h, rest = divmod(t % _DAY, 3600)
        record = parse_line(make_line(time=f"{h:02d}:{rest // 60:02d}:{rest % 60:02d}", src=src, sport=sport, dst=dst, dport=dport))
        lines.process(record)
        records.process(record)
        assert lines.report == records.report
    assert lines.finish() == records.finish()
    assert all(type(alert) is ScanAlert for alert in lines.report.alerts)
