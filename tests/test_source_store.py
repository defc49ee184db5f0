"""The scan rule's source-first store against the generic context store.

A spec with a grouping keeps a remote source seen once as one engine entry
and splits it into contexts only when the source comes back. The same
spec without its grouping takes the generic path, so any difference
between the two runs is the source-first store's doing.
"""

from dataclasses import replace
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from flowsentry.engine import Context, ContextSpec, CorrelationEngine, Rule, Ruleset
from flowsentry.scanrules import HORIZONTAL, VERTICAL, TriggerPolicy, derive_keys, evidence_line, scan_spec

from conftest import make_record

_DAY = 86400


def engine_for(spec):
    def action(engine, record):
        engine.add(derive_keys(record), spec, record)

    return CorrelationEngine(Ruleset([Rule("scan", lambda record: True, [action])]))


def live(engine):
    """(key, deadline, messages) of every live context, in deadline order
    and then by key: the order of equal deadlines is not part of the API."""
    contexts = engine.live_contexts()
    deadlines = [ctx.deadline for ctx in contexts]
    assert deadlines == sorted(deadlines)
    return sorted((ctx.deadline, ctx.key, tuple(ctx.messages)) for ctx in contexts)


def counts(report):
    return report.contexts_created, report.contexts_expired, report.contexts_fired


# Three sources, destinations and ports, so a source often comes back to a
# destination or a port it has already probed, or to both, or to neither.
steps = st.lists(
    st.tuples(
        # Seconds since the previous flow: negative steps back, and a gap of
        # exactly one timeout lands on a deadline.
        st.one_of(st.integers(-90, 400), st.sampled_from([-300, -60, 0, 60, 300])),
        st.sampled_from(("5.5.5.1", "5.5.5.2", "6.6.6.6")),
        st.sampled_from(("10.0.0.1", "10.0.0.2", "10.0.0.3")),
        st.sampled_from((80, 443, 12346)),
    ),
    max_size=40,
)


def stream(start, steps):
    t = start
    for n, (gap, src, dst, dport) in enumerate(steps):
        t += gap
        yield make_record(time=t % _DAY, src=src, sport=1000 + n, dst=dst, dport=dport)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    start=st.integers(_DAY - 1200, _DAY + 600),
    steps=steps,
    timeout=st.sampled_from([60.0, 300.0]),
    mode=st.sampled_from(["min_messages", "distinct_targets"]),
    threshold=st.integers(2, 3),
)
def test_the_source_first_store_matches_the_generic_store(start, steps, timeout, mode, threshold):
    # Streams start around midnight, so most cross it; the time of day wraps.
    grouped = scan_spec(timeout, TriggerPolicy(mode, threshold))
    generic = replace(grouped, grouping=None)
    # live_contexts() rebuilds every pending half on each call; a second
    # engine with the grouping is never read, to show that reads change nothing.
    read, quiet, plain = engine_for(grouped), engine_for(grouped), engine_for(generic)
    engines = (read, quiet, plain)
    for record in stream(start, steps):
        fired = []
        for engine in engines:
            seen = len(engine.report.alerts)
            engine.process(record)
            fired.append(engine.report.alerts[seen:])
        assert fired[0] == fired[1] == fired[2]
        assert counts(read.report) == counts(quiet.report) == counts(plain.report)
        assert read.queue_lengths() == quiet.queue_lengths() == plain.queue_lengths()
        assert live(read) == live(plain)
    ends = [len(engine.report.alerts) for engine in engines]
    for engine in engines:
        engine.finish()
    assert read.report.alerts[ends[0]:] == quiet.report.alerts[ends[1]:] == plain.report.alerts[ends[2]:]
    assert counts(read.report) == counts(quiet.report) == counts(plain.report)
    assert quiet.live_contexts() == [] and sum(quiet.queue_lengths().values()) == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    start=st.integers(_DAY - 1200, _DAY + 600),
    steps=steps,
    timeout=st.sampled_from([60.0, 300.0]),
    mode=st.sampled_from(["min_messages", "distinct_targets"]),
)
def test_reading_the_store_changes_no_alert_or_count(start, steps, timeout, mode):
    spec = scan_spec(timeout, TriggerPolicy(mode, 2))
    quiet, read = engine_for(spec), engine_for(spec)
    for record in stream(start, steps):
        quiet.process(record)
        read.process(record)
        for ctx in read.live_contexts():
            found = read.find_context(ctx.key)
            assert (found.key, found.deadline, found.messages) == (ctx.key, ctx.deadline, ctx.messages)
        assert read.find_context((VERTICAL, "9.9.9.9", "10.0.0.1")) is None
        assert quiet.report == read.report
    assert quiet.finish() == read.finish()


def test_a_source_splits_one_half_at_a_time_and_keeps_its_place():
    spec = scan_spec(100.0, TriggerPolicy("min_messages", 2))
    engine = engine_for(spec)
    sources, queue = engine._sources[100.0], engine._queues[100.0]

    def process(time, src, dst, dport):
        record = make_record(time=time, src=src, dst=dst, dport=dport)
        engine.process(record)
        return evidence_line(record)

    a = process(0, "5.5.5.1", "10.0.0.1", 80)
    b = process(5, "6.6.6.6", "10.0.0.1", 80)
    assert list(sources) == ["5.5.5.1", "6.6.6.6"] and len(queue) == 0
    assert engine.queue_lengths() == {100.0: 4} and engine.report.contexts_created == 4
    # Same host, another port: the vertical half splits off and slides, the
    # new port gets a context of its own, and the horizontal half keeps the
    # entry, still first in deadline order.
    a_host = process(10, "5.5.5.1", "10.0.0.1", 443)
    assert list(sources) == ["5.5.5.1", "6.6.6.6"] and sources["5.5.5.1"][0] == 100.0
    vertical = engine.find_context((VERTICAL, "5.5.5.1", "10.0.0.1"))
    assert vertical.messages == [a, a_host] and vertical.deadline == 110.0
    assert engine.find_context((HORIZONTAL, "5.5.5.1", "80")).messages == [a]
    # Same port, another host: the horizontal half splits off instead.
    b_port = process(12, "6.6.6.6", "10.0.0.2", 80)
    assert engine.find_context((HORIZONTAL, "6.6.6.6", "80")).messages == [b, b_port]
    assert engine.find_context((VERTICAL, "6.6.6.6", "10.0.0.1")).messages == [b]
    # A third record takes the half the second one left over.
    a_port = process(20, "5.5.5.1", "10.0.0.3", 80)
    assert list(sources) == ["6.6.6.6"]
    assert engine.find_context((HORIZONTAL, "5.5.5.1", "80")).messages == [a, a_port]
    assert engine.report.contexts_created == 7 and engine.queue_lengths() == {100.0: 7}
    # The half-consumed entry expires alone at its own deadline, silently.
    engine.advance(105.0)
    assert list(sources) == [] and engine.report.contexts_expired == 1
    assert engine.report.alerts == []
    report = engine.finish()
    assert (report.contexts_created, report.contexts_expired, report.contexts_fired) == (7, 7, 3)
    assert [(alert.kind, alert.remote_ip) for alert in report.alerts] == [
        (HORIZONTAL, "5.5.5.1"),
        (HORIZONTAL, "6.6.6.6"),
        (VERTICAL, "5.5.5.1"),
    ]


def test_a_grouping_never_fires_a_one_message_context():
    # The trigger always holds, so only the grouping keeps these quiet.
    spec = ContextSpec(
        100.0,
        trigger=lambda key, messages: True,
        on_fire=lambda ctx: (ctx.key, len(ctx.messages)),
        grouping=(attrgetter("source_ip"), derive_keys),
    )
    engine = engine_for(spec)

    def process(time, src, dst, dport):
        engine.process(make_record(time=time, src=src, dst=dst, dport=dport))

    # Seen once: one source-first entry, two pending halves.
    process(0, "4.4.4.4", "10.0.0.1", 80)
    # Back on the same host: the vertical half splits off with two
    # messages, the horizontal half stays pending, and the new port is a
    # one-message Context in the queue.
    process(1, "5.5.5.1", "10.0.0.1", 80)
    process(2, "5.5.5.1", "10.0.0.1", 443)
    # Back on another host and port: two new one-message Contexts.
    process(3, "6.6.6.6", "10.0.0.1", 80)
    process(4, "6.6.6.6", "10.0.0.2", 443)
    # Reads see the one-message Contexts in the queue and the pending halves.
    assert len(engine.find_context((HORIZONTAL, "5.5.5.1", "443")).messages) == 1
    assert [len(ctx.messages) for ctx in engine.live_contexts()].count(1) == 8
    # Back with no key in common: two more one-message Contexts, and the
    # first record's halves stay pending; none of these is read.
    process(5, "7.7.7.7", "10.0.0.1", 80)
    process(6, "7.7.7.7", "10.0.0.3", 8080)
    report = engine.finish()
    assert report.alerts == [((VERTICAL, "5.5.5.1", "10.0.0.1"), 2)]
    assert (report.contexts_created, report.contexts_expired, report.contexts_fired) == (13, 13, 1)


def three_keys(record):
    src = record.source_ip
    return (("host", src, record.dest_ip), ("port", src, record.dest_port), ("pair", src, record.dest_ip, record.dest_port))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(start=st.integers(0, 600), steps=steps, timeout=st.sampled_from([60.0, 300.0]))
def test_a_grouping_of_three_keys_matches_the_generic_store(start, steps, timeout):
    # Any number of a record's keys can be new, pending or in the queue.
    grouped = ContextSpec(
        timeout,
        trigger=lambda key, messages: len(messages) >= 2,
        on_fire=lambda ctx: (ctx.key, tuple(ctx.messages)),
        grouping=(attrgetter("source_ip"), three_keys),
    )
    generic = replace(grouped, grouping=None)
    engines = []
    for spec in (grouped, grouped, generic):
        def action(engine, record, spec=spec):
            engine.add(three_keys(record), spec, record)
        engines.append(CorrelationEngine(Ruleset([Rule("three", lambda record: True, [action])])))
    read, quiet, plain = engines
    for record in stream(start, steps):
        for engine in engines:
            engine.process(record)
        assert read.report == quiet.report == plain.report
        assert read.queue_lengths() == quiet.queue_lengths() == plain.queue_lengths()
        assert live(read) == live(plain)
    assert read.finish() == quiet.finish() == plain.finish()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(start=st.integers(0, 600), steps=steps, grouped=st.booleans())
def test_a_list_and_a_tuple_of_the_same_keys_leave_the_same_store(start, steps, grouped):
    spec = scan_spec(300.0, TriggerPolicy("min_messages", 2))
    if not grouped:
        spec = replace(spec, grouping=None)

    def action(engine, record):
        engine.add(list(derive_keys(record)), spec, record)

    as_tuple = engine_for(spec)
    as_list = CorrelationEngine(Ruleset([Rule("scan", lambda record: True, [action])]))
    for record in stream(start, steps):
        as_tuple.process(record)
        as_list.process(record)
        assert live(as_list) == live(as_tuple)
        assert as_list.queue_lengths() == as_tuple.queue_lengths()
    assert as_list.finish() == as_tuple.finish()


class CountingHold:
    """The scan rule's hold, recording each record it is called on."""

    def __init__(self):
        self.calls = []

    def __call__(self, record):
        self.calls.append(record)
        return evidence_line(record)


def test_sources_seen_once_are_never_held():
    hold = CountingHold()
    spec = replace(scan_spec(100.0, TriggerPolicy("min_messages", 2)), hold=hold)
    engine = engine_for(spec)
    for n in range(300):
        engine.process(make_record(time=n, src=f"5.5.{n // 250}.{n % 250 + 1}", dst="10.0.0.1", dport=80))
    report = engine.finish()
    assert (report.contexts_created, report.contexts_expired, report.contexts_fired) == (600, 600, 0)
    assert hold.calls == []


def test_a_source_first_record_is_held_as_each_of_its_halves_splits_off():
    hold = CountingHold()
    spec = replace(scan_spec(100.0, TriggerPolicy("min_messages", 2)), hold=hold)
    engine = engine_for(spec)
    first = make_record(time=0, src="5.5.5.1", dst="10.0.0.1", dport=80)
    engine.process(first)
    assert hold.calls == []
    # Back on another host and port: no half splits off, so only the new
    # record is held.
    elsewhere = make_record(time=5, src="5.5.5.1", dst="10.0.0.9", dport=8080)
    engine.process(elsewhere)
    assert hold.calls == [elsewhere]
    # The vertical half splits off first, the horizontal half later, and
    # the first record is held at each split.
    same_host = make_record(time=10, src="5.5.5.1", dst="10.0.0.1", dport=443)
    engine.process(same_host)
    assert hold.calls == [elsewhere, same_host, first]
    same_port = make_record(time=20, src="5.5.5.1", dst="10.0.0.2", dport=80)
    engine.process(same_port)
    assert hold.calls == [elsewhere, same_host, first, same_port, first]
    vertical = engine.find_context((VERTICAL, "5.5.5.1", "10.0.0.1"))
    horizontal = engine.find_context((HORIZONTAL, "5.5.5.1", "80"))
    assert vertical.messages == [evidence_line(first), evidence_line(same_host)]
    assert horizontal.messages == [evidence_line(first), evidence_line(same_port)]
    # Both halves split off at once: one call, and they share the held form.
    alone = make_record(time=30, src="6.6.6.6", dst="10.0.0.1", dport=80)
    again = make_record(time=31, src="6.6.6.6", dst="10.0.0.1", dport=80)
    engine.process(alone)
    engine.process(again)
    assert hold.calls[5:] == [again, alone]
    vertical = engine.find_context((VERTICAL, "6.6.6.6", "10.0.0.1"))
    horizontal = engine.find_context((HORIZONTAL, "6.6.6.6", "80"))
    assert vertical.messages[0] is horizontal.messages[0]
    assert vertical.messages == [evidence_line(alone), evidence_line(again)]


def test_the_generic_path_holds_each_record_once():
    hold = CountingHold()
    spec = replace(scan_spec(100.0, TriggerPolicy("min_messages", 2)), grouping=None, hold=hold)
    engine = engine_for(spec)
    records = [make_record(time=n, src="5.5.5.1", dst="10.0.0.1", dport=80 + n % 2) for n in range(4)]
    for record in records:
        engine.process(record)
    assert hold.calls == records
    vertical = engine.find_context((VERTICAL, "5.5.5.1", "10.0.0.1"))
    horizontal = engine.find_context((HORIZONTAL, "5.5.5.1", "80"))
    assert vertical.messages == list(map(evidence_line, records))
    assert horizontal.messages[0] is vertical.messages[0]


def held(contexts):
    return [(deadline, key, tuple(map(evidence_line, messages))) for deadline, key, messages in contexts]


def holding_records(spec):
    """spec holding the records themselves, with its trigger and on_fire
    reading each context's records as the evidence lines spec would hold."""
    trigger, on_fire = spec.trigger, spec.on_fire

    def as_lines(ctx):
        return Context(ctx.key, ctx.spec, ctx.deadline, list(map(evidence_line, ctx.messages)))

    return replace(
        spec,
        hold=None,
        trigger=lambda key, messages: trigger(key, list(map(evidence_line, messages))),
        on_fire=lambda ctx: on_fire(as_lines(ctx)),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    start=st.integers(_DAY - 1200, _DAY + 600),
    steps=steps,
    timeout=st.sampled_from([60.0, 300.0]),
    mode=st.sampled_from(["min_messages", "distinct_targets"]),
    threshold=st.integers(2, 3),
)
def test_holding_probes_matches_holding_records(start, steps, timeout, mode, threshold):
    lines = scan_spec(timeout, TriggerPolicy(mode, threshold))
    records = holding_records(lines)
    # A third engine that is never read keeps its entries as add left them.
    read, quiet, whole = engine_for(lines), engine_for(lines), engine_for(records)
    engines = (read, quiet, whole)
    for record in stream(start, steps):
        for engine in engines:
            engine.process(record)
        assert read.report == quiet.report == whole.report
        assert read.queue_lengths() == quiet.queue_lengths() == whole.queue_lengths()
        assert live(read) == held(live(whole))
    assert read.finish() == quiet.finish() == whole.finish()


def test_each_held_record_is_formatted_once_and_its_alerts_share_the_line():
    hold = CountingHold()
    spec = replace(scan_spec(100.0, TriggerPolicy("min_messages", 2)), hold=hold)
    engine = engine_for(spec)
    # The first two records sit in both the vertical and the horizontal
    # context, and both contexts fire.
    first = make_record(time=0, src="5.5.5.1", sport=1000, dst="10.0.0.1", dport=80)
    retry = make_record(time=1, src="5.5.5.1", sport=1001, dst="10.0.0.1", dport=80)
    same_host = make_record(time=2, src="5.5.5.1", sport=1002, dst="10.0.0.1", dport=443)
    same_port = make_record(time=3, src="5.5.5.1", sport=1003, dst="10.0.0.2", dport=80)
    records = [first, retry, same_host, same_port]
    for record in records:
        engine.process(record)
    report = engine.finish()
    assert sorted(hold.calls, key=records.index) == records
    horizontal, vertical = report.alerts
    assert (horizontal.kind, vertical.kind) == (HORIZONTAL, VERTICAL)
    assert horizontal.evidence == tuple(map(evidence_line, [first, retry, same_port]))
    assert vertical.evidence == tuple(map(evidence_line, [first, retry, same_host]))
    assert horizontal.evidence[0] is vertical.evidence[0]
    assert horizontal.evidence[1] is vertical.evidence[1]


def test_group_and_keys_never_see_a_held_message():
    # repr holds a record as text with none of its fields, so a group or
    # keys call on a held message would fail.
    spec = ContextSpec(
        100.0,
        trigger=lambda key, messages: len(messages) >= 2,
        on_fire=lambda ctx: (ctx.key, tuple(ctx.messages)),
        grouping=(attrgetter("source_ip"), derive_keys),
        hold=repr,
    )
    engine = engine_for(spec)
    first = make_record(time=0, src="5.5.5.1", dst="10.0.0.1", dport=80)
    # Back on the same host: the vertical half splits off.
    same_host = make_record(time=1, src="5.5.5.1", dst="10.0.0.1", dport=443)
    # Back on a new host: the new port's context slides, and the new host
    # misses in the queue with the source's entry still pending.
    new_host = make_record(time=2, src="5.5.5.1", dst="10.0.0.2", dport=443)
    # Back on the first host: its context slides, and the new port misses.
    new_port = make_record(time=3, src="5.5.5.1", dst="10.0.0.1", dport=8080)
    for record in (first, same_host, new_host, new_port):
        engine.process(record)
    report = engine.finish()
    assert report.alerts == [
        ((HORIZONTAL, "5.5.5.1", "443"), (repr(same_host), repr(new_host))),
        ((VERTICAL, "5.5.5.1", "10.0.0.1"), (repr(first), repr(same_host), repr(new_port))),
    ]
    assert (report.contexts_created, report.contexts_expired, report.contexts_fired) == (5, 5, 2)
