"""Context lifecycle, clocks, and the record-driven engine loop."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from flowsentry.engine import (
    AddToExpiredError,
    BatchClock,
    ContextSpec,
    CorrelationEngine,
    Rule,
    Ruleset,
    WallClock,
    match_rule,
    run_engine,
    run_follow,
)
from flowsentry.ingest import Protocol

from conftest import make_line, make_record, tod


def count_rule(timeout=900.0, threshold=2, key_fn=lambda r: r.source_ip):
    """Counts records per source; fires (key, size) when the bucket expires."""

    def fire(ctx):
        return (ctx.key, len(ctx.messages))

    def holds(ctx):
        return len(ctx.messages) >= threshold

    spec = ContextSpec(timeout, holds, fire)

    def action(engine, record, bindings):
        engine.add_to_context(engine.ensure_context(key_fn(record), spec), record)

    return Rule("count-by-source", lambda record: {}, [action])


class SpySinks:
    def __init__(self):
        self.items = []

    def emit(self, item):
        self.items.append(item)


def test_match_rule_returns_bindings_or_none():
    rule = Rule("tcp-only", lambda r: {"proto": r.protocol.value} if r.protocol is Protocol.TCP else None, [])
    assert match_rule(rule, make_record()) == {"proto": "TCP"}
    assert match_rule(rule, make_record(protocol=Protocol.UDP)) is None


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


def test_ensure_context_is_idempotent_while_live():
    engine = CorrelationEngine(Ruleset([count_rule()]))
    engine.process(make_record())
    first = engine.find_context("5.5.5.10")
    engine.process(make_record(dport=80))
    assert engine.find_context("5.5.5.10") is first
    assert engine.report.contexts_created == 1


def test_expiry_is_exact_at_the_deadline():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0)]))
    engine.process(make_record(), now=100.0)
    engine.advance(109.999)
    assert engine.find_context("5.5.5.10") is not None
    engine.advance(110.0)
    assert engine.find_context("5.5.5.10") is None
    assert engine.report.contexts_expired == 1


def test_expired_key_gets_a_fresh_context():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0)]))
    engine.process(make_record(), now=0.0)
    engine.process(make_record(), now=50.0)
    assert engine.report.contexts_created == 2
    assert len(engine.find_context("5.5.5.10").messages) == 1


def test_adding_to_an_expired_context_is_an_error():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0)]))
    engine.process(make_record(), now=0.0)
    stale = engine.find_context("5.5.5.10")
    engine.advance(100.0)
    with pytest.raises(AddToExpiredError):
        engine.add_to_context(stale, make_record())


def test_single_message_context_expires_without_firing():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0, threshold=2)]))
    engine.process(make_record(), now=0.0)
    engine.advance(100.0)
    assert engine.report.contexts_expired == 1
    assert engine.report.contexts_fired == 0
    assert engine.report.alerts == []


def test_empty_context_expires_without_firing():
    engine = CorrelationEngine(Ruleset([]))
    engine.ensure_context("k", ContextSpec(5.0, trigger=lambda c: len(c.messages) >= 2, on_fire=lambda c: "x"))
    engine.advance(100.0)
    assert engine.report.contexts_expired == 1
    assert engine.report.alerts == []


def test_simultaneous_expiry_fires_in_key_order():
    engine = CorrelationEngine(Ruleset([count_rule(timeout=10.0, threshold=1)]))
    for src in ("9.9.9.2", "9.9.9.1", "9.9.9.3"):
        engine.process(make_record(src=src), now=0.0)
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
    for now, src in ((0.0, "9.9.9.3"), (1.0, "9.9.9.1"), (2.0, "9.9.9.2")):
        engine.process(make_record(src=src), now=now)
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
    engine.process(make_record(src="9.9.9.1"), now=0.0)
    engine.process(make_record(src="9.9.9.2"), now=5.0)
    engine.process(make_record(src="9.9.9.1"), now=8.0)
    expired = []
    for now in (14.999, 15.0, 17.999, 18.0, 34.999, 35.0, 37.999, 38.0):
        expired.append([key for key, _ in engine.advance(now)])
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
        engine.process(make_record(time=t, src=src, dport=port), now=float(t))
        live = engine.live_contexts()
        queued = queued_contexts(engine)
        # No stale entries: every queued context is live, and only once.
        assert sorted(map(id, live)) == sorted(id(ctx) for _, ctx in queued)
        for timeout, queue in engine._queues.items():
            deadlines = [ctx.deadline for ctx in queue.values()]
            assert deadlines == sorted(deadlines)
            assert all(ctx.spec.timeout_value == timeout for ctx in queue.values())
        assert all(ctx.deadline > engine.now for ctx in live)
    engine.finish()
    assert engine.live_contexts() == []
    assert queued_contexts(engine) == []
    assert engine.report.contexts_expired == engine.report.contexts_created


def test_finish_flushes_pending_contexts():
    report = run_engine([make_record(), make_record(time="14:05:00")], Ruleset([count_rule()]))
    assert report.messages_processed == 2
    assert report.contexts_fired == 1
    assert report.alerts == [("5.5.5.10", 2)]


def test_rules_run_in_ruleset_order():
    hits = []

    def noting(tag):
        return Rule(tag, lambda r: {}, [lambda e, r, b: hits.append(tag)])

    run_engine([make_record()], Ruleset([noting("first"), noting("second")]))
    assert hits == ["first", "second"]


def test_emit_routes_to_report_and_sinks():
    sinks = SpySinks()
    engine = CorrelationEngine(Ruleset([]), sinks=sinks)
    engine.emit("kept")
    engine.emit("passthrough", record=False)
    assert engine.report.alerts == ["kept"]
    assert sinks.items == ["kept", "passthrough"]


def test_batch_clock_adds_a_day_on_midnight_wrap():
    clock = BatchClock()
    assert clock.now_for(make_record(time="23:59:59")) == tod("23:59:59")
    assert clock.now_for(make_record(time="00:00:01")) == 86400 + 1
    assert clock.now_for(make_record(time="12:00:00")) == 86400 + tod("12:00:00")
    # A second midnight crossing adds another day.
    assert clock.now_for(make_record(time="23:00:00")) == 86400 + tod("23:00:00")
    assert clock.now_for(make_record(time="00:30:00")) == 2 * 86400 + tod("00:30:00")


def test_batch_clock_tolerates_small_backsteps():
    clock = BatchClock()
    clock.now_for(make_record(time="14:00:00"))
    assert clock.now_for(make_record(time="13:59:00")) == tod("13:59:00")


def test_wall_clock_ignores_record_times():
    ticks = iter([5.0, 7.0])
    clock = WallClock(lambda: next(ticks))
    assert clock.now() == 5.0
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

    engine = CorrelationEngine(Ruleset([count_rule(timeout=float(timeout))]))
    record = make_record()
    for t in times:
        engine.process(record, now=t)
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
