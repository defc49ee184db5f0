"""Correlation core: rules evaluated over a record stream, keyed contexts
with sliding timeouts, and deterministic expiry."""

from __future__ import annotations

import gc
import math
import time
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable

from .ingest import FlowRecord, IngestStats, ingest

Matcher = Callable[[FlowRecord], bool]
Action = Callable[["CorrelationEngine", FlowRecord], None]

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


@dataclass(frozen=True)
class ContextSpec:
    """What every context of one rule shares: its timeout, the trigger
    evaluated once at expiry, and the callback that builds the alert when
    the trigger holds. Build one per rule, not one per context.

    The trigger must be a pure function of its context: it is evaluated as
    the context leaves the store, in deadline order, once per expiring
    context, so it sits on the hot path and should be cheap. on_fire runs
    in key order, after every context due at that instant has been removed.
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

    def now_for(self, record: FlowRecord) -> float:
        return self._now_fn()


class CorrelationEngine:
    """Drives rules over records and owns the context store.

    Per-record order is fixed: advance engine time, expire due contexts,
    then, in ruleset order, run action(engine, record) for each action of
    every rule whose matcher returns true for the record.

    emit(alert) adds the alert to the report and, when sinks are attached,
    forwards it to them in the same order. Output that is not an alert,
    such as traffic lines, an action writes straight to engine.sinks; it is
    None when the run has no sinks, and then nothing needs formatting.

    Engine time never steps back: it starts at 0 and advance() clamps it to
    the highest time seen so far. So within one timeout value, the order in
    which contexts were last touched is also their deadline order, and each
    timeout gets one queue kept in touch order: a slide moves the context to
    the back, expiry pops from the front. These queues are the only store,
    so a key names one live context per timeout value: rules that share a
    key and a timeout share the context, rules with different timeouts
    do not.
    """

    def __init__(self, ruleset: Ruleset, *, clock: Any = None, sinks: Any = None):
        self.ruleset = ruleset
        self.clock = clock if clock is not None else BatchClock()
        self.sinks = sinks
        self.report = EngineReport()
        # The only context store: one touch-ordered queue per timeout value.
        self._queues: defaultdict[float, OrderedDict[Any, Context]] = defaultdict(OrderedDict)
        self._now = 0.0
        # No queued deadline is earlier: a create lowers it, a slide only
        # raises deadlines, and each expiry scan recomputes it.
        self._next_due = math.inf

    @property
    def now(self) -> float:
        return self._now

    def live_contexts(self) -> list[Context]:
        """Every live context, timeout by timeout, each in deadline order."""
        return [ctx for queue in self._queues.values() for ctx in queue.values()]

    def queue_lengths(self) -> dict[float, int]:
        return {timeout: len(queue) for timeout, queue in self._queues.items()}

    def find_context(self, key: Any) -> Context | None:
        """The live context for key under the first timeout value that has one."""
        return next((queue[key] for queue in self._queues.values() if key in queue), None)

    def emit(self, alert: Any) -> None:
        self.report.alerts.append(alert)
        if self.sinks is not None:
            self.sinks.emit(alert)

    def touch(self, key: Any, spec: ContextSpec, message: FlowRecord) -> Context:
        """ensure_context(key, spec) then add_to_context(ctx, message), in one step."""
        timeout = spec.timeout_value
        queue = self._queues[timeout]
        ctx = queue.get(key)
        deadline = self._now + timeout
        if ctx is None:
            # ensure_context's create, inlined: on traffic from fresh sources
            # nearly every touch creates.
            queue[key] = ctx = Context(key, spec, deadline)
            ctx.messages.append(message)
            self.report.contexts_created += 1
            if deadline < self._next_due:
                self._next_due = deadline
            return ctx
        if deadline != ctx.deadline:
            ctx.deadline = deadline
            queue.move_to_end(key)
        ctx.messages.append(message)
        return ctx

    def ensure_context(self, key: Any, spec: ContextSpec) -> Context:
        """Return the live context for key under spec's timeout value,
        creating it from spec if absent."""
        queue = self._queues[spec.timeout_value]
        ctx = queue.get(key)
        if ctx is None:
            deadline = self._now + spec.timeout_value
            queue[key] = ctx = Context(key, spec, deadline)
            self.report.contexts_created += 1
            if deadline < self._next_due:
                self._next_due = deadline
        return ctx

    def add_to_context(self, ctx: Context, message: FlowRecord) -> Context:
        """Append a message and slide the deadline to now + timeout_value."""
        if self._queues[ctx.spec.timeout_value].get(ctx.key) is not ctx:
            raise AddToExpiredError(f"context {ctx.key!r} already expired")
        return self.touch(ctx.key, ctx.spec, message)

    def expire_contexts(self, now: float) -> list[Any]:
        """Remove every context whose deadline is <= now, firing triggers.

        Each due context leaves its queue from the front, in deadline order,
        and its trigger is evaluated as it leaves. Only then, with every due
        context removed, do the ones whose trigger held fire, in key order
        whatever their deadlines, so runs are reproducible regardless of
        store internals.
        """
        fired: list[Any] = []
        if now < self._next_due:
            return fired
        report = self.report
        triggered: list[Context] = []
        next_due = math.inf
        for queue in self._queues.values():
            due = 0
            for ctx in queue.values():
                if ctx.deadline > now:
                    if ctx.deadline < next_due:
                        next_due = ctx.deadline
                    break
                due += 1
            if not due:
                continue
            report.contexts_expired += due
            popitem = queue.popitem
            for _ in range(due):
                ctx = popitem(last=False)[1]
                if ctx.spec.trigger(ctx):
                    triggered.append(ctx)
        self._next_due = next_due
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
        # advance(), inlined: on most records nothing is due yet.
        if now is None:
            now = self.clock.now_for(record)
        if now > self._now:
            self._now = now
        if self._now >= self._next_due:
            self.expire_contexts(self._now)
        self.report.messages_processed += 1
        for rule in self.ruleset.rules:
            if rule.matcher(record):
                for action in rule.actions:
                    action(self, record)

    def finish(self) -> EngineReport:
        """End of stream: expire everything still pending, triggers included."""
        self.expire_contexts(math.inf)
        return self.report


def run_engine(records: Iterable[FlowRecord], ruleset: Ruleset, *, sinks: Any = None, clock: Any = None) -> EngineReport:
    """Run the batch pipeline over an ordered record stream.

    Engine time comes from record timestamps. Output is a pure function of
    the record sequence and the ruleset.

    The cyclic garbage collector is paused for the run and left as it was
    found afterwards, even if the record iterator raises. The engine makes
    no reference cycles, so a collection would only re-walk the growing
    context store and free nothing; reference counting still frees every
    expired context at once.
    """
    engine = CorrelationEngine(ruleset, clock=clock, sinks=sinks)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for record in records:
            engine.process(record)
        return engine.finish()
    finally:
        if was_enabled:
            gc.enable()


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
    last_tick = now_fn()

    def tick_then_stop() -> bool:
        # open_stream calls this before every poll: after a poll's records
        # are processed, and after an idle sleep.
        nonlocal last_tick
        now = now_fn()
        if now - last_tick >= tick_interval:
            engine.advance(now)
            last_tick = now
        return stop is not None and stop()

    records, stats = ingest(source, "follow", poll_interval=min(poll_interval, tick_interval), stop=tick_then_stop)
    for record in records:
        engine.process(record)
    return engine.report, stats
