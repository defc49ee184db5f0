"""Context lifecycle, clocks, and the record-driven engine loop."""

import gc
import logging
from collections import Counter
from operator import attrgetter
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from flowsentry.engine import (
    BatchClock,
    Context,
    ContextSpec,
    CorrelationEngine,
    Rule,
    Ruleset,
    WallClock,
    run_engine,
    run_follow,
)
from flowsentry.config import EngineConfig
from flowsentry.generator import GenConfig, ScanSpec, generate
from flowsentry.ingest import Protocol, ingest
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.reporting import SinkSet
from flowsentry.scanrules import (
    INCOMING,
    ScanAlert,
    ScanKind,
    TriggerPolicy,
    VulnAlert,
    Watchlist,
    WatchlistEntry,
    classify_direction,
    derive_keys,
    scan_spec,
)

from conftest import make_line, make_record, slow_probe_records, tod
from test_source_store import steps, stream, three_keys


def count_rule(timeout=900.0, threshold=2, key_fn=lambda r: r.source_ip):
    """Counts records per source; fires (key, size) when the bucket expires."""

    def fire(ctx):
        return (ctx.key, len(ctx.messages))

    def holds(key, messages):
        return len(messages) >= threshold

    spec = ContextSpec(timeout, holds, fire)

    def action(engine, record):
        engine.add((key_fn(record),), spec, record)

    return Rule("count-by-source", lambda record: True, [action])


def fired_by_advance(engine, now):
    """engine.advance(now), returning the alerts it fired."""
    seen = len(engine.report.alerts)
    engine.advance(now)
    return engine.report.alerts[seen:]


class SpySinks:
    def __init__(self):
        self.items = []

    def emit(self, item):
        self.items.append(item)

    def traffic(self, direction, text):
        self.items.append((direction, text))


def test_rule_actions_run_only_when_the_matcher_holds():
    seen = []
    rule = Rule(
        "tcp-only",
        lambda r: r.protocol is Protocol.TCP,
        [lambda engine, record: seen.append(record.protocol)],
    )
    assert rule.matcher(make_record()) is True
    assert rule.matcher(make_record(protocol=Protocol.UDP)) is False
    # The engine runs the rule's actions only on a true match.
    engine = CorrelationEngine(Ruleset([rule]))
    engine.process(make_record())
    engine.process(make_record(protocol=Protocol.UDP))
    assert seen == [Protocol.TCP]


def test_deadline_is_message_time_plus_timeout():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=900.0)]))
    engine.process(make_record(time="14:15:13"))
    ctx = engine.find_context("5.5.5.10")
    assert ctx.deadline == tod("14:15:13") + 900
    assert ctx.deadline == tod("14:30:13")


def test_each_message_slides_the_deadline():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=900.0)]))
    engine.process(make_record(time="14:03:33"))
    engine.process(make_record(time="14:15:13"))
    ctx = engine.find_context("5.5.5.10")
    assert len(ctx.messages) == 2
    assert ctx.deadline == tod("14:15:13") + 900


def test_a_key_keeps_its_context_while_live():
    engine = CorrelationEngine(Ruleset([count_rule()]))
    engine.process(make_record())
    first = engine.find_context("5.5.5.10")
    engine.process(make_record(dport=80))
    assert engine.find_context("5.5.5.10") is first
    assert engine.report.contexts_created == 1


def test_expiry_is_exact_at_the_deadline():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0)]))
    engine.process(make_record(time=100))
    engine.advance(109.999)
    assert engine.find_context("5.5.5.10") is not None
    engine.advance(110.0)
    assert engine.find_context("5.5.5.10") is None
    assert engine.report.contexts_expired == 1


def test_expired_key_gets_a_fresh_context():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0)]))
    engine.process(make_record(time=0))
    engine.process(make_record(time=50))
    assert engine.report.contexts_created == 2
    assert len(engine.find_context("5.5.5.10").messages) == 1


def test_single_message_context_expires_without_firing():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0, threshold=2)]))
    engine.process(make_record(time=0))
    engine.advance(100.0)
    assert engine.report.contexts_expired == 1
    assert engine.report.contexts_fired == 0
    assert engine.report.alerts == []


def test_simultaneous_expiry_fires_in_key_order():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0, threshold=1)]))
    for src in ("9.9.9.2", "9.9.9.1", "9.9.9.3"):
        engine.process(make_record(time=0, src=src))
    engine.advance(10.0)
    assert [key for key, _ in engine.report.alerts] == ["9.9.9.1", "9.9.9.2", "9.9.9.3"]


def test_one_advance_over_several_deadlines_fires_in_key_order():
    engine = CorrelationEngine(
        Ruleset(
            [
                count_rule(timeout=10.0, threshold=1, key_fn=lambda r: "b-" + r.source_ip),
                count_rule(timeout=20.0, threshold=1, key_fn=lambda r: "a-" + r.source_ip),
            ]
        )
    )
    for now, src in ((0, "9.9.9.3"), (1, "9.9.9.1"), (2, "9.9.9.2")):
        engine.process(make_record(time=now, src=src))
    engine.advance(50.0)
    assert [key for key, _ in engine.report.alerts] == [
        "a-9.9.9.1", "a-9.9.9.2", "a-9.9.9.3", "b-9.9.9.1", "b-9.9.9.2", "b-9.9.9.3",
    ]


def test_rules_with_different_timeouts_expire_at_their_own_deadlines():
    engine = CorrelationEngine(
        Ruleset(
            [
                count_rule(timeout=10.0, threshold=1, key_fn=lambda r: "short-" + r.source_ip),
                count_rule(timeout=30.0, threshold=1, key_fn=lambda r: "long-" + r.source_ip),
            ]
        )
    )
    engine.process(make_record(time=0, src="9.9.9.1"))
    engine.process(make_record(time=5, src="9.9.9.2"))
    engine.process(make_record(time=8, src="9.9.9.1"))
    expired = []
    for now in (14.999, 15.0, 17.999, 18.0, 34.999, 35.0, 37.999, 38.0):
        expired.append([key for key, _ in fired_by_advance(engine, now)])
    assert expired == [[], ["short-9.9.9.2"], [], ["short-9.9.9.1"], [], ["long-9.9.9.2"], [], ["long-9.9.9.1"]]
    assert [size for _, size in engine.report.alerts] == [1, 2, 1, 2]


def test_time_behind_the_high_water_mark_expires_nothing_early():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=600.0, key_fn=lambda r: r.dest_ip)]))
    engine.process(make_record(time="14:10:00", dst="10.0.0.1"))
    # Stamped five minutes behind: engine time stays at 14:10:00.
    engine.process(make_record(time="14:05:00", dst="10.0.0.2"))
    assert engine.now == tod("14:10:00")
    assert engine.find_context("10.0.0.2").deadline == tod("14:10:00") + 600
    engine.process(make_record(time="14:19:59", dst="10.0.0.3"))
    assert engine.find_context("10.0.0.1") is not None
    assert engine.find_context("10.0.0.2") is not None
    engine.process(make_record(time="14:20:00", dst="10.0.0.3"))
    assert engine.find_context("10.0.0.1") is None
    assert engine.find_context("10.0.0.2") is None
    assert engine.report.contexts_expired == 2


def queued_contexts(engine):
    return [(timeout, ctx) for timeout, queue in engine._queues.items() for ctx in queue.values()]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(-120, 400), st.sampled_from(["9.9.9.1", "9.9.9.2", "9.9.9.3"]), st.integers(0, 2)),
        max_size=60,
    )
)
def test_queues_hold_exactly_the_live_contexts(steps):
    rules = [
        count_rule(timeout=300.0, key_fn=lambda r: ("a", r.source_ip)),
        count_rule(timeout=900.0, key_fn=lambda r: ("b", r.source_ip, r.dest_port)),
    ]
    engine = CorrelationEngine(Ruleset(rules))
    t = 50000
    for gap, src, port in steps:
        t += gap
        engine.process(make_record(time=t, src=src, dport=port))
        live = engine.live_contexts()
        queued = queued_contexts(engine)
        # No stale entries: every queued context is live, and only once.
        assert sorted(map(id, live)) == sorted(id(ctx) for _, ctx in queued)
        assert sum(engine.queue_lengths().values()) == len(live)
        for timeout, queue in engine._queues.items():
            deadlines = [ctx.deadline for ctx in queue.values()]
            assert deadlines == sorted(deadlines)
            assert all(ctx.spec.timeout_value == timeout for ctx in queue.values())
        assert all(ctx.deadline > engine.now for ctx in live)
    engine.finish()
    assert engine.live_contexts() == []
    assert queued_contexts(engine) == []
    assert engine.report.contexts_expired == engine.report.contexts_created


def fires_key(ctx):
    return (ctx.key, ctx.spec.timeout_value, len(ctx.messages))


SHORT = ContextSpec(10.0, trigger=lambda key, messages: True, on_fire=fires_key)
LONG = ContextSpec(900.0, trigger=lambda key, messages: True, on_fire=fires_key)


def engine_state(engine):
    queues = {
        timeout: [(key, ctx.deadline, list(ctx.messages)) for key, ctx in queue.items()]
        for timeout, queue in engine._queues.items()
    }
    return queues, engine.report, engine.now


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(-120, 400), st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)),
        max_size=60,
    )
)
def test_add_with_several_keys_touches_each_in_order(steps):
    spec = ContextSpec(300.0, lambda key, messages: len(messages) >= 2, fires_key)
    touched, added = CorrelationEngine(Ruleset([])), CorrelationEngine(Ruleset([]))
    t = 50000
    for gap, keys in steps:
        t += gap
        record = make_record(time=t)
        assert fired_by_advance(touched, float(t)) == fired_by_advance(added, float(t))
        for key in keys:
            touched.add((key,), spec, record)
        assert added.add(keys, spec, record) is None
        assert added.queue_lengths() == touched.queue_lengths()
        assert added.report == touched.report
    # live_contexts() builds every context that is still one message.
    live = [(ctx.key, ctx.deadline, ctx.messages) for ctx in added.live_contexts()]
    assert live == [(ctx.key, ctx.deadline, ctx.messages) for ctx in touched.live_contexts()]
    assert engine_state(added) == engine_state(touched)
    touched.finish()
    added.finish()
    assert added.report == touched.report
    assert added.live_contexts() == []


def test_expiring_one_message_contexts_fire_as_contexts_of_their_own():
    spec = ContextSpec(10.0, trigger=lambda key, messages: len(messages) == 1, on_fire=lambda ctx: ctx)
    engine = CorrelationEngine(Ruleset([]))
    records = {}
    for now, key in enumerate(("c", "a", "b")):
        records[key] = make_record(time=now, src=f"9.9.9.{now + 1}")
        engine.advance(float(now))
        engine.add((key,), spec, records[key])
    fired = fired_by_advance(engine, 50.0)
    assert [ctx.key for ctx in fired] == ["a", "b", "c"]
    assert len({id(ctx) for ctx in fired}) == 3
    for ctx in fired:
        assert isinstance(ctx, Context)
        assert ctx.spec is spec
        assert ctx.messages == [records[ctx.key]]
    assert [ctx.deadline for ctx in fired] == [11.0, 12.0, 10.0]
    assert engine.report.alerts == fired
    assert engine.report.alert_counts == {Context: 3}


def test_a_trigger_may_keep_every_key_and_message_sequence_it_is_handed():
    seen = []

    def keep(key, messages):
        seen.append((key, messages))
        return len(messages) >= 2

    spec = ContextSpec(10.0, trigger=keep, on_fire=lambda ctx: (ctx.key, list(ctx.messages)))
    engine = CorrelationEngine(Ruleset([]))
    r = {}
    for t, key in ((0, "a"), (1, "b"), (2, "a"), (20, "a"), (21, "c"), (40, "b"), (41, "b")):
        r[t] = make_record(time=t, sport=1000 + t)
        engine.advance(float(t))
        engine.add((key,), spec, r[t])
    report = engine.finish()
    # Checked after the run: each expiry handed over its own key and its
    # own messages in arrival order, in deadline order, never a Context.
    assert [(key, list(messages)) for key, messages in seen] == [
        ("b", [r[1]]),
        ("a", [r[0], r[2]]),
        ("a", [r[20]]),
        ("c", [r[21]]),
        ("b", [r[40], r[41]]),
    ]
    assert len({id(messages) for _, messages in seen}) == len(seen) == report.contexts_expired
    assert not any(isinstance(messages, Context) for _, messages in seen)
    assert report.alerts == [("a", [r[0], r[2]]), ("b", [r[40], r[41]])]


def test_a_one_message_context_keeps_its_identity_and_place_once_asked_for():
    spec = ContextSpec(10.0, trigger=lambda key, messages: True, on_fire=fires_key)
    engine = CorrelationEngine(Ruleset([]))
    first, second = make_record(dport=1), make_record(dport=2)
    engine.add(("k", "later"), spec, first)
    ctx = engine.find_context("k")
    assert ctx is engine.find_context("k")
    assert ctx.key == "k" and ctx.spec is spec and ctx.deadline == 10.0 and ctx.messages == [first]
    # Asking for it keeps its place ahead of the context created after it.
    assert [c.key for c in engine.live_contexts()] == ["k", "later"]
    assert engine.live_contexts()[0] is ctx
    engine.advance(5.0)
    for _ in range(2):
        engine.add(("k",), spec, second)
        assert engine.find_context("k") is ctx
    assert ctx.messages == [first, second, second] and ctx.deadline == 15.0
    assert engine.find_context("later") is engine.find_context("later")
    assert fired_by_advance(engine, 15.0) == [("k", 10.0, 3), ("later", 10.0, 1)]


def test_one_add_stores_one_entry_under_every_key_it_creates():
    spec = ContextSpec(10.0, trigger=lambda key, messages: True, on_fire=fires_key)
    engine = CorrelationEngine(Ruleset([]))
    first, second = make_record(dport=1), make_record(dport=2)
    engine.add(("a", "b"), spec, first)
    assert engine.queue_lengths() == {10.0: 2}
    # A second message slides a alone.
    engine.advance(5.0)
    engine.add(("a",), spec, second)
    # b expires on its own; a keeps both messages and its later deadline.
    assert fired_by_advance(engine, 10.0) == [("b", 10.0, 1)]
    ctx = engine.find_context("a")
    assert ctx.messages == [first, second] and ctx.deadline == 15.0
    assert fired_by_advance(engine, 15.0) == [("a", 10.0, 2)]


def count_contexts_built(monkeypatch):
    """A list that grows by one for each Context built from now on."""
    built = []
    real_init = Context.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Context, "__init__", counting_init)
    return built


def test_a_scan_run_builds_no_context_for_a_source_seen_once(tmp_path, monkeypatch):
    records, _ = ingest(mixed_corpus(tmp_path))
    records = list(records)
    config = EngineConfig(trigger_policy="min_messages", min_messages=2, date="2004/11/05")
    ruleset = build_scan_ruleset(config, Watchlist())
    incoming = Counter(r.source_ip for r in records if classify_direction(r, config.networks()) is INCOMING)
    returning = sum(n for n in incoming.values() if n > 1)
    built = count_contexts_built(monkeypatch)
    report = run_engine(records, ruleset)
    # Each incoming record has two keys, and only a record of a source seen
    # more than once can put one of them in a Context.
    assert report.contexts_fired >= 2
    assert report.contexts_created > 100 * report.contexts_fired
    assert sum(n == 1 for n in incoming.values()) > 100 * returning
    assert report.contexts_fired <= len(built) <= 2 * returning


def test_reading_a_queued_context_builds_nothing_and_returns_the_stored_object(monkeypatch):
    generic = ContextSpec(10.0, trigger=lambda key, messages: True, on_fire=fires_key)
    grouped = scan_spec(10.0, TriggerPolicy("min_messages", 2))
    engine = CorrelationEngine(Ruleset([]))
    first, second = make_record(dport=1), make_record(dport=2)
    engine.add(("a", "b"), generic, first)
    engine.add(("a",), generic, second)
    # A returning scanner: its second probe splits off both halves of its
    # source-first entry, and each later probe slides one context and
    # creates one with a single message.
    for dst, dport in (("10.0.0.1", 80), ("10.0.0.1", 80), ("10.0.0.1", 443), ("10.0.0.2", 80)):
        record = make_record(src="5.5.5.1", dst=dst, dport=dport)
        engine.add(derive_keys(record), grouped, record)
    built = count_contexts_built(monkeypatch)
    live = engine.live_contexts()
    assert [len(ctx.messages) for ctx in live] == [2, 1, 3, 3, 1, 1]
    assert sum(engine.queue_lengths().values()) == len(live)
    for _ in range(2):
        assert all(a is b for a, b in zip(engine.live_contexts(), live, strict=True))
        assert all(engine.find_context(ctx.key) is ctx for ctx in live)
    assert built == []


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    start=st.integers(86400 - 1200, 86400 + 600),
    steps=steps,
    timeout=st.sampled_from([60.0, 300.0]),
    keys=st.sampled_from([derive_keys, three_keys]),
)
def test_a_half_is_pending_exactly_when_its_key_is_not_queued(start, steps, timeout, keys):
    spec = ContextSpec(
        timeout,
        trigger=lambda key, messages: len(messages) >= 2,
        on_fire=lambda ctx: ctx.key,
        grouping=(attrgetter("source_ip"), keys),
    )

    def action(engine, record):
        engine.add(keys(record), spec, record)

    engine = CorrelationEngine(Ruleset([Rule("store", lambda record: True, [action])]))
    for record in stream(start, steps):
        engine.process(record)
        queue = engine._queues[timeout]
        for deadline, _, held, pending in engine._sources[timeout].values():
            record_keys = keys(held)
            assert pending == sum(key not in queue for key in record_keys)
            assert all(queue[key].deadline >= deadline for key in record_keys if key in queue)


@pytest.mark.parametrize("timeout", [float("nan"), 0.0, -5.0])
def test_context_spec_needs_a_positive_timeout(timeout):
    with pytest.raises(ValueError, match="timeout_value must be positive"):
        ContextSpec(timeout, trigger=lambda key, messages: True, on_fire=fires_key)


def test_a_short_context_created_after_a_long_one_expires_at_its_own_deadline():
    engine = CorrelationEngine(Ruleset([]))
    engine.add(("long",), LONG, make_record())
    assert fired_by_advance(engine, 100.0) == []
    engine.add(("short",), SHORT, make_record())
    assert fired_by_advance(engine, 109.0) == []
    assert fired_by_advance(engine, 110.0) == [("short", 10.0, 1)]
    assert fired_by_advance(engine, 899.0) == []
    assert fired_by_advance(engine, 900.0) == [("long", 900.0, 1)]


def test_a_key_names_one_live_context_per_timeout_value():
    engine = CorrelationEngine(Ruleset([]))
    other_short = ContextSpec(10.0, trigger=lambda key, messages: False, on_fire=fires_key)
    engine.add(("k",), SHORT, make_record())
    short = engine.find_context("k")
    # Same timeout value: the same context, still under the spec that made it.
    engine.add(("k",), other_short, make_record())
    assert engine.find_context("k") is short
    assert short.spec is SHORT and len(short.messages) == 2
    # Another timeout value: a context of its own under the same key.
    engine.add(("k",), LONG, make_record())
    long = engine.live_contexts()[1]
    assert long is not short and long.spec is LONG
    assert engine.queue_lengths() == {10.0: 1, 900.0: 1}
    assert engine.live_contexts() == [short, long]
    assert engine.find_context("k") is short
    assert fired_by_advance(engine, 10.0) == [("k", 10.0, 2)]
    assert engine.find_context("k") is long
    assert engine.queue_lengths() == {10.0: 0, 900.0: 1}


def test_finish_flushes_pending_contexts():
    report = run_engine([make_record(), make_record(time="14:05:00")], Ruleset([count_rule()]))
    assert report.messages_processed == 2
    assert report.contexts_fired == 1
    assert report.alerts == [("5.5.5.10", 2)]


def test_rules_run_in_ruleset_order():
    hits = []

    def noting(tag):
        return Rule(tag, lambda r: True, [lambda e, r: hits.append(tag)])

    run_engine([make_record()], Ruleset([noting("first"), noting("second")]))
    assert hits == ["first", "second"]


def test_emit_routes_to_report_and_sinks():
    sinks = SpySinks()
    engine = CorrelationEngine(Ruleset([]), sinks=sinks)
    engine.emit("kept")
    assert engine.report.alerts == ["kept"]
    assert sinks.items == ["kept"]


def test_batch_clock_adds_a_day_on_midnight_wrap():
    clock = BatchClock()
    assert clock.now_for(make_record(time="23:59:59")) == tod("23:59:59")
    assert clock.now_for(make_record(time="00:00:01")) == 86400 + 1
    assert clock.now_for(make_record(time="12:00:00")) == 86400 + tod("12:00:00")
    # A second midnight crossing adds another day.
    assert clock.now_for(make_record(time="23:00:00")) == 86400 + tod("23:00:00")
    assert clock.now_for(make_record(time="00:30:00")) == 2 * 86400 + tod("00:30:00")


def test_batch_clock_reads_a_late_record_across_midnight_as_a_backstep():
    clock = BatchClock()
    stamps = ("23:59:50", "00:00:05", "23:59:55", "00:00:10")
    assert [clock.now_for(make_record(time=t)) for t in stamps] == [86390, 86405, 86395, 86410]


def test_a_scan_with_a_late_record_across_midnight_fires_once():
    stamps = ("23:59:50", "00:00:05", "23:59:55", "00:00:10")
    records = [make_record(time=t, dst=f"10.0.0.{i + 1}") for i, t in enumerate(stamps)]
    scans = [alert for alert in run_engine(records, scan_ruleset()).alerts if isinstance(alert, ScanAlert)]
    assert len(scans) == 1
    assert scans[0].kind is ScanKind.HORIZONTAL and len(scans[0].evidence) == 4
    assert (scans[0].first_seen, scans[0].last_seen) == ("23:59:50", "00:00:10")


def test_batch_clock_tolerates_small_backsteps():
    clock = BatchClock()
    clock.now_for(make_record(time="14:00:00"))
    assert clock.now_for(make_record(time="13:59:00")) == tod("13:59:00")


def test_wall_clock_ignores_record_times():
    ticks = iter([5.0, 7.0])
    clock = WallClock(lambda: next(ticks))
    assert clock.now_for(make_record(time="14:00:00")) == 5.0
    assert clock.now_for(make_record(time="23:00:00")) == 7.0


@settings(max_examples=150, derandomize=True, deadline=None)
@given(gaps=st.lists(st.integers(1, 1800), max_size=25), timeout=st.sampled_from([300, 900]))
def test_one_alert_per_dense_run_of_messages(gaps, timeout):
    # Messages from one source split into segments wherever the gap reaches
    # the timeout; each segment of two or more fires exactly once.
    times = [50000.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    sizes, run = [], 1
    for gap in gaps:
        if gap >= timeout:
            sizes.append(run)
            run = 1
        else:
            run += 1
    sizes.append(run)
    expected = sum(1 for size in sizes if size >= 2)

    # Times run past one day, so engine time comes from a fake wall clock.
    clock = WallClock(iter(times).__next__)
    engine = CorrelationEngine(Ruleset([count_rule(timeout=float(timeout))]), clock=clock)
    record = make_record()
    for _ in times:
        engine.process(record)
    report = engine.finish()
    assert report.contexts_fired == expected
    assert [size for _, size in report.alerts] == [size for size in sizes if size >= 2]


def test_follow_expires_on_the_tick_without_new_traffic(tmp_path):
    path = tmp_path / "live.log"
    path.write_text(make_line() + "\n" + make_line(time="14:03:34") + "\n")
    done = threading.Event()
    timer = threading.Timer(0.7, done.set)
    timer.start()
    report, stats = run_follow(
        str(path),
        Ruleset([count_rule(timeout=0.2)]),
        tick_interval=0.05,
        poll_interval=0.01,
        stop=done.is_set,
    )
    timer.join()
    assert stats.records_parsed == 2
    assert report.contexts_fired == 1
    assert report.alerts == [("5.5.5.10", 2)]


def test_follow_never_flushes_on_stop(tmp_path):
    path = tmp_path / "live.log"
    path.write_text(make_line() + "\n" + "garbage" + "\n")
    done = threading.Event()
    timer = threading.Timer(0.1, done.set)
    timer.start()
    report, stats = run_follow(
        str(path),
        Ruleset([count_rule(timeout=60.0)]),
        tick_interval=0.02,
        poll_interval=0.01,
        stop=done.is_set,
    )
    timer.join()
    assert stats.parse_failures == 1
    assert report.contexts_created == 1
    assert report.contexts_expired == 0
    assert report.alerts == []


def test_follow_logs_truncation_and_reads_from_the_top(tmp_path, caplog):
    path = tmp_path / "live.log"
    path.write_text(make_line() + "\n" + make_line(time="14:03:34") + "\n")
    calls = []

    def stop():
        # Called before every poll: the file shrinks between the first two.
        calls.append(None)
        if len(calls) == 2:
            path.write_text(make_line(src="6.6.6.6") + "\n")
        return len(calls) > 2

    with caplog.at_level(logging.WARNING):
        report, stats = run_follow(str(path), Ruleset([count_rule(timeout=60.0)]), poll_interval=0.01, stop=stop)
    assert "was truncated or replaced; following from the top" in caplog.text
    assert stats.records_parsed == 3
    assert report.contexts_created == 2


def mixed_corpus(tmp_path):
    """A log that starts ten minutes before midnight and holds two scans
    that fire, probes of a watched port, and a malformed line every 50."""
    config = GenConfig(
        duration=1800,
        background_rate=1.0,
        seed=11,
        start_tod=86400 - 600,
        scans=(
            ScanSpec(ScanKind.HORIZONTAL, "5.5.5.10", 12346, probes=4, inter_probe_gap=60, start_time=300),
            ScanSpec(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.9", probes=5, inter_probe_gap=90, start_time=500),
        ),
    )
    lines, _ = generate(config)
    lines = [line[: len(line) // 2] if i % 50 == 49 else line for i, line in enumerate(lines)]
    path = tmp_path / "mixed.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def scan_ruleset():
    config = EngineConfig(date="2004/11/05")
    return build_scan_ruleset(config, Watchlist([WatchlistEntry("NetBus", 12346, "in")]))


def test_run_engine_leaves_no_garbage_cycles(tmp_path):
    # The premise of the collector pause: with the collector off, a whole
    # run, sinks included, leaves nothing that only a collection frees.
    log = mixed_corpus(tmp_path)
    times = [record.event_time for record in ingest(log)[0]]
    assert times[0] > times[-1]  # the stream crosses midnight
    ruleset = scan_ruleset()
    sinks = SinkSet(*(str(tmp_path / name) for name in ("in", "out", "scans", "vulns")))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        records, stats = ingest(log)
        with sinks:
            report = run_engine(records, ruleset, sinks=sinks)
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert stats.parse_failures > 0
    assert report.contexts_fired >= 2
    assert report.alert_counts[VulnAlert] > 0
    assert unreachable == 0


@pytest.mark.parametrize("make_sinks", [lambda: None, SinkSet.null, SpySinks], ids=["none", "null", "spy"])
def test_a_run_without_files_keeps_every_alert(tmp_path, make_sinks):
    log = mixed_corpus(tmp_path)
    kept = run_engine(ingest(log)[0], scan_ruleset()).alerts
    report = run_engine(ingest(log)[0], scan_ruleset(), sinks=make_sinks())
    assert report.alerts == kept
    assert report.alert_counts == Counter(alert.__class__ for alert in kept)
    assert report.alert_counts[ScanAlert] >= 2
    assert report.alert_counts[VulnAlert] > 0


def test_a_console_only_run_keeps_just_the_alerts_the_console_skips(tmp_path, capsys):
    log = mixed_corpus(tmp_path)
    report = run_engine(ingest(log)[0], scan_ruleset(), sinks=SinkSet(console=True))
    # The console echoes scan alerts; vulnerability alerts go to a file only.
    assert report.alerts
    assert all(isinstance(alert, VulnAlert) for alert in report.alerts)
    assert len(report.alerts) == report.alert_counts[VulnAlert]
    assert capsys.readouterr().out.count(" scan:\n") == report.alert_counts[ScanAlert] >= 2


SINK_NAMES = ("incoming", "outgoing", "portscans", "vulscans")


def follow_scans(tmp_path, lines, timeout=60.0):
    """Follow a log holding lines under a clock that stays at 0 for the
    first poll and then jumps past timeout. Returns the report and the text
    of the four output files as stop() saw it before each poll."""
    path = tmp_path / "live.log"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = EngineConfig(timeout_value=timeout, date="2004/11/05")
    ruleset = build_scan_ruleset(config, Watchlist([WatchlistEntry("NetBus", 12346, "in")]))
    sinks = SinkSet(*(str(tmp_path / name) for name in SINK_NAMES))
    clock = [0.0]
    seen = []

    def stop():
        seen.append({name: (tmp_path / name).read_text(encoding="utf-8") for name in SINK_NAMES})
        if len(seen) == 2:
            clock[0] = 10 * timeout
        return len(seen) == 3

    with sinks:
        report, _ = run_follow(
            str(path), ruleset, sinks=sinks, tick_interval=1.0, poll_interval=0.01, stop=stop, now_fn=lambda: clock[0]
        )
    return report, seen


def test_follow_output_reaches_every_file_once_per_poll(tmp_path):
    lines = [
        make_line(time="14:00:00", dst="10.0.0.1"),
        make_line(time="14:00:01", dst="10.0.0.2"),
        make_line(time="14:00:02", src="10.0.0.5", sport="40000", dst="1.2.3.4", dport="80"),
    ]
    report, (before, first_poll, tick) = follow_scans(tmp_path, lines)
    assert set(before.values()) == {""}
    # The poll's traffic lines and vulnerability alerts are in the files
    # before the next poll; the scan contexts are still open.
    assert first_poll["incoming"].count("FWIN,") == 2
    assert first_poll["outgoing"].count("FWOUT,") == 1
    assert first_poll["vulscans"].count("Potential Vulnerability: NetBus.") == 2
    assert first_poll["portscans"] == ""
    # The tick expires them, and the alert is in the file before the next poll.
    assert tick["portscans"].startswith("Horizontal scan:\n")
    assert report.contexts_fired == 1


def test_follow_with_files_keeps_no_alerts(tmp_path):
    sources = [f"5.5.{i // 200}.{i % 200 + 1}" for i in range(600)]
    lines = [make_line(src=src, dst=f"10.0.0.{j + 1}") for src in sources for j in range(2)]
    report, (_, _, tick) = follow_scans(tmp_path, lines)
    assert report.alert_counts == {VulnAlert: 1200, ScanAlert: 600}
    assert report.alerts == []
    assert tick["vulscans"].count("Potential Vulnerability") == 1200
    assert tick["portscans"].count("Horizontal scan:") == 600


def test_follow_writes_what_analyze_writes(tmp_path):
    # Engine time differs between the two, so the portscans file may; traffic
    # lines and vulnerability alerts come from the records alone.
    log = mixed_corpus(tmp_path)
    outputs = []
    for command in ("analyze", "follow"):
        out = tmp_path / command
        out.mkdir()
        with SinkSet(*(str(out / name) for name in SINK_NAMES)) as sinks:
            if command == "analyze":
                run_engine(ingest(log)[0], scan_ruleset(), sinks=sinks)
            else:
                # Ten polls read the whole file.
                run_follow(log, scan_ruleset(), sinks=sinks, poll_interval=0.01, stop=iter([False] * 10 + [True]).__next__)
        outputs.append({name: (out / name).read_bytes() for name in ("incoming", "outgoing", "vulscans")})
    assert outputs[0] == outputs[1]
    assert outputs[0]["incoming"] and outputs[0]["vulscans"]


def failing_records(records, after):
    for i, record in enumerate(records):
        if i == after:
            raise RuntimeError("source failed")
        yield record


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fail", [False, True])
def test_run_engine_restores_the_collector_state(enabled, fail):
    records = slow_probe_records()
    if fail:
        records = failing_records(records, after=2)
    was_enabled = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if fail:
            with pytest.raises(RuntimeError, match="source failed"):
                run_engine(records, scan_ruleset())
        else:
            assert run_engine(records, scan_ruleset()).contexts_fired == 1
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
