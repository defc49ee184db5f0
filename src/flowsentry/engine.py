"""Correlation core: rules evaluated over a record stream, keyed contexts
with sliding timeouts, and deterministic expiry."""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable

from .ingest import FlowRecord, IngestStats, StreamReset, TailReader, parse_line, ParseError

Bindings = dict[str, str]
Matcher = Callable[[FlowRecord], "Bindings | None"]
Action = Callable[["CorrelationEngine", FlowRecord, Bindings], None]

# Seconds of day. A drop of more than half a day between consecutive
# timestamps is read as a midnight crossing.
_HALF_DAY = 43200
_DAY = 86400


class AddToExpiredError(RuntimeError):
    """Adding a message to a context that already expired is a sequencing
    bug in the caller, never a recoverable condition."""


@dataclass
class Rule:
    id: str
    matcher: Matcher
    actions: list[Action]


@dataclass
class Ruleset:
    rules: list[Rule]

    def __iter__(self):
        return iter(self.rules)


def match_rule(rule: Rule, record: FlowRecord) -> Bindings | None:
    """Evaluate a rule's matcher. None means no match."""
    return rule.matcher(record)


@dataclass(frozen=True)
class ContextSpec:
    """What every context of one rule shares: its timeout, the trigger
    evaluated once at expiry, and the callback that builds the alert when
    the trigger holds. Build one per rule, not one per context.

    The trigger must be a pure function of its context: it is evaluated as
    the context leaves the store, in deadline order. on_fire runs in key
    order, after every context due at that instant has been removed.
    """

    timeout_value: float
    trigger: Callable[["Context"], bool]
    on_fire: Callable[["Context"], Any]


class Context:
    """A correlation bucket keyed by what the messages have in common.

    The deadline slides: each added message resets it to that message's
    engine time plus spec.timeout_value. Expiry evaluates spec.trigger
    once; spec.on_fire runs only if it holds, and the context is gone
    either way.
    """

    __slots__ = ("key", "spec", "deadline", "messages")

    def __init__(self, key: Any, spec: ContextSpec, deadline: float = 0.0):
        self.key = key
        self.spec = spec
        self.deadline = deadline
        self.messages: list[FlowRecord] = []


_context_key = attrgetter("key")


@dataclass
class EngineReport:
    alerts: list[Any] = field(default_factory=list)
    messages_processed: int = 0
    contexts_created: int = 0
    contexts_expired: int = 0
    contexts_fired: int = 0


class BatchClock:
    """Maps time-of-day stamps onto a monotone engine timeline, adding a day
    whenever the stamp falls back across midnight."""

    def __init__(self) -> None:
        self._day = 0
        self._last: int | None = None

    def now_for(self, record: FlowRecord) -> float:
        tod = record.event_time
        if self._last is not None and self._last - tod > _HALF_DAY:
            self._day += 1
        self._last = tod
        return float(self._day * _DAY + tod)


class WallClock:
    """Engine time is arrival time; record timestamps are ignored."""

    def __init__(self, now_fn: Callable[[], float] = time.monotonic):
        self._now_fn = now_fn

    def now(self) -> float:
        return self._now_fn()

    def now_for(self, record: FlowRecord) -> float:
        return self._now_fn()


class CorrelationEngine:
    """Drives rules over records and owns the context store.

    Per-record order is fixed: advance engine time, expire due contexts,
    then evaluate rules in ruleset order. Sinks, when attached, receive
    alerts in the same order they enter the report.

    Engine time never steps back: it starts at 0 and advance() clamps it to
    the highest time seen so far. So within one timeout value, the order in
    which contexts were last touched is also their deadline order, and each
    timeout gets one queue kept in touch order: a slide moves the context to
    the back, expiry pops from the front.
    """

    def __init__(self, ruleset: Ruleset, *, clock: Any = None, sinks: Any = None):
        self.ruleset = ruleset
        self.clock = clock if clock is not None else BatchClock()
        self.sinks = sinks
        self.report = EngineReport()
        self._contexts: dict[Any, Context] = {}
        self._queues: dict[float, OrderedDict[Any, Context]] = {}
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def live_contexts(self) -> list[Context]:
        return list(self._contexts.values())

    def find_context(self, key: Any) -> Context | None:
        return self._contexts.get(key)

    def emit(self, item: Any, *, record: bool = True) -> None:
        if record:
            self.report.alerts.append(item)
        if self.sinks is not None:
            self.sinks.emit(item)

    def ensure_context(self, key: Any, spec: ContextSpec) -> Context:
        """Return the live context for key, creating it from spec if absent."""
        ctx = self._contexts.get(key)
        if ctx is not None:
            return ctx
        timeout = spec.timeout_value
        ctx = Context(key, spec, self._now + timeout)
        self._contexts[key] = ctx
        queue = self._queues.get(timeout)
        if queue is None:
            queue = self._queues[timeout] = OrderedDict()
        queue[key] = ctx
        self.report.contexts_created += 1
        return ctx

    def add_to_context(self, ctx: Context, message: FlowRecord) -> Context:
        """Append a message and slide the deadline to now + timeout_value."""
        key = ctx.key
        if self._contexts.get(key) is not ctx:
            raise AddToExpiredError(f"context {key!r} already expired")
        ctx.messages.append(message)
        timeout = ctx.spec.timeout_value
        deadline = self._now + timeout
        if deadline != ctx.deadline:
            ctx.deadline = deadline
            self._queues[timeout].move_to_end(key)
        return ctx

    def expire_contexts(self, now: float) -> list[Any]:
        """Remove every context whose deadline is <= now, firing triggers.

        Each due context leaves its queue from the front, in deadline order,
        and its trigger is evaluated as it leaves. Only then, with every due
        context removed, do the ones whose trigger held fire, in key order
        whatever their deadlines, so runs are reproducible regardless of
        store internals.
        """
        contexts, report = self._contexts, self.report
        triggered: list[Context] = []
        for queue in self._queues.values():
            due = 0
            for ctx in queue.values():
                if ctx.deadline > now:
                    break
                due += 1
            if not due:
                continue
            report.contexts_expired += due
            popitem = queue.popitem
            for _ in range(due):
                key, ctx = popitem(last=False)
                del contexts[key]
                if ctx.spec.trigger(ctx):
                    triggered.append(ctx)
        fired: list[Any] = []
        if not triggered:
            return fired
        if len(triggered) > 1:
            triggered.sort(key=_context_key)
        report.contexts_fired += len(triggered)
        for ctx in triggered:
            alert = ctx.spec.on_fire(ctx)
            if alert is not None:
                fired.append(alert)
                self.emit(alert)
        return fired

    def advance(self, now: float) -> list[Any]:
        """Move engine time to now, or keep it where it is if now is
        earlier, and expire what is due."""
        if now > self._now:
            self._now = now
        return self.expire_contexts(self._now)

    def process(self, record: FlowRecord, now: float | None = None) -> None:
        self.advance(self.clock.now_for(record) if now is None else now)
        self.report.messages_processed += 1
        for rule in self.ruleset.rules:
            bindings = rule.matcher(record)
            if bindings is not None:
                for action in rule.actions:
                    action(self, record, bindings)

    def finish(self) -> EngineReport:
        """End of stream: expire everything still pending, triggers included."""
        self.expire_contexts(math.inf)
        return self.report


def run_engine(records: Iterable[FlowRecord], ruleset: Ruleset, *, sinks: Any = None, clock: Any = None) -> EngineReport:
    """Run the batch pipeline over an ordered record stream.

    Engine time comes from record timestamps. Output is a pure function of
    the record sequence and the ruleset.
    """
    engine = CorrelationEngine(ruleset, clock=clock, sinks=sinks)
    for record in records:
        engine.process(record)
    return engine.finish()


def run_follow(
    source: str,
    ruleset: Ruleset,
    *,
    sinks: Any = None,
    tick_interval: float = 1.0,
    poll_interval: float = 0.1,
    stop: Callable[[], bool] | None = None,
    now_fn: Callable[[], float] = time.monotonic,
) -> tuple[EngineReport, IngestStats]:
    """Follow a growing log file, correlating as lines arrive.

    Engine time is the wall clock, and expiry is also checked on an idle
    tick so contexts die on schedule when no traffic shows up. There is no
    end-of-stream flush; the loop just stops when stop() turns true.
    """
    engine = CorrelationEngine(ruleset, clock=WallClock(now_fn), sinks=sinks)
    stats = IngestStats()
    reader = TailReader(source)
    last_tick = now_fn()
    try:
        while stop is None or not stop():
            items = reader.poll()
            for item in items:
                if isinstance(item, StreamReset):
                    continue
                stats.lines_read += 1
                try:
                    record = parse_line(item[1])
                except ParseError:
                    stats.parse_failures += 1
                    continue
                stats.records_parsed += 1
                engine.process(record, now=now_fn())
            now = now_fn()
            if not items:
                time.sleep(min(poll_interval, tick_interval))
                now = now_fn()
            if now - last_tick >= tick_interval:
                engine.advance(now)
                last_tick = now
    finally:
        reader.close()
    return engine.report, stats
