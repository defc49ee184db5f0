"""Correlation core: rules evaluated over a record stream, keyed contexts
with sliding timeouts, and deterministic expiry."""

from __future__ import annotations

import gc
import heapq
import math
import time
from collections import Counter, OrderedDict, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .ingest import FlowRecord, IngestStats, TailReader, parse_blocks

Matcher = Callable[[FlowRecord], bool]
Action = Callable[["CorrelationEngine", FlowRecord], None]

# Seconds in half a day and in a day, for BatchClock.
_HALF_DAY = 43200
_DAY = 86400


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
    the trigger holds. Build one per rule, not one per context. The timeout
    must be a positive number of seconds.

    trigger(key, messages) decides on the context's key and its messages in
    arrival order, and must not change them. It is evaluated as the context
    leaves the store, in deadline order, once per expiring context, so it
    sits on the hot path and should be cheap. on_fire runs in key order,
    after every context due at that instant has been removed, and gets a
    Context of its own.

    grouping, when given, is (group, keys): keys(record) gives, as a
    sequence, the distinct keys that add receives for the record, and
    group(record) what they all share, so that records of different groups
    never share a key. The engine then keeps a group seen once as one
    source-first entry whose keys are pending halves rather than contexts
    (see CorrelationEngine), and a context that holds one message expires
    with no trigger call. Such a spec must not share a key and a timeout
    value with a spec without a grouping.

    hold, when given, maps a record to its held message, the form the
    store keeps in place of the record: only what trigger and on_fire
    read, in any form, such as a formatted line. The default, None, holds
    the record itself. trigger, on_fire, live_contexts() and find_context
    see only held messages; group and keys see only records, since a
    source-first entry keeps its record as given. The engine calls hold
    lazily: it holds an entry's record only when a pending half joins the
    queue or is read.
    """

    timeout_value: float
    trigger: Callable[[Any, Sequence[Any]], bool]
    on_fire: Callable[["Context"], Any]
    grouping: tuple[Callable[[Any], Any], Callable[[Any], Sequence[Any]]] | None = None
    hold: Callable[[FlowRecord], Any] | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not self.timeout_value > 0:
            raise ValueError(f"timeout_value must be positive, not {self.timeout_value!r}")


class Context:
    """A correlation bucket keyed by what the messages have in common.

    messages are held messages, in arrival order: each is spec.hold of the
    record that engine.add received, or the record itself when the spec
    has no hold.

    The deadline slides: each added message resets it to that message's
    engine time plus spec.timeout_value. Expiry evaluates spec.trigger
    once, unless spec has a grouping and the context holds one message;
    spec.on_fire runs only if it holds, and the context is gone either way.

    A context holds at least one message from the moment engine.add
    creates it, and the same object stays in the store until it expires.
    The messages argument, when given, is that list.

    A one-message context of a spec with a grouping may instead be a
    pending half of its group's source-first entry: a key of the entry's
    record that is not in the queue. It joins the queue as a Context, kept
    from then on, only when a later message shares its key; the Context
    that find_context or live_contexts returns for a pending half is built
    anew on each call and leaves the store as it was.
    """

    __slots__ = ("key", "spec", "deadline", "messages")

    def __init__(self, key: Any, spec: ContextSpec, deadline: float = 0.0, messages: list[Any] | None = None):
        self.key = key
        self.spec = spec
        self.deadline = deadline
        self.messages: list[Any] = [] if messages is None else messages


_context_key = attrgetter("key")
_deadline = attrgetter("deadline")


@dataclass
class EngineReport:
    # Only the alerts no sink took; alert_counts counts every alert by class.
    alerts: list[Any] = field(default_factory=list)
    alert_counts: Counter[type] = field(default_factory=Counter)
    messages_processed: int = 0
    contexts_created: int = 0
    contexts_expired: int = 0
    contexts_fired: int = 0


class BatchClock:
    """Maps time-of-day stamps onto the engine timeline. A stamp more than
    half a day below the last one has crossed midnight into the next day;
    one more than half a day above it has stepped back across midnight. So
    consecutive records must be less than half a day apart."""

    def __init__(self) -> None:
        self._day = 0
        self._last: int | None = None

    def now_for(self, record: FlowRecord) -> float:
        tod = record.event_time
        if self._last is not None and abs(tod - self._last) > _HALF_DAY:
            self._day += 1 if tod < self._last else -1
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

    emit(alert) is the one way out for every alert: it counts it by class
    in report.alert_counts, forwards it to the sinks when the run has any,
    and keeps it in report.alerts only when sinks.emit(alert) returns
    false: when no open file or console took it. Output that is not an
    alert, such as traffic lines, an action writes straight to engine.sinks
    with sinks.traffic(direction, text); it is None when the run has no
    sinks, and then nothing needs formatting.

    Engine time never steps back: it starts at 0 and advance() clamps it to
    the highest time seen so far. So within one timeout value, the order in
    which contexts were last touched is also their deadline order, and each
    timeout gets one queue kept in touch order: a slide moves the context to
    the back, expiry pops from the front. A key names one live context per
    timeout value: rules that share a key and a timeout share the context,
    rules with different timeouts do not.

    The store keeps held messages (see ContextSpec.hold). A spec with a
    grouping adds a second queue per timeout, also in deadline order, of
    source-first entries keyed by group. A record all of whose keys are
    new, from a group with no entry, becomes one entry (deadline, spec,
    record, pending) in place of its one-message contexts: each of the
    record's keys is a pending half, and pending counts them. A half leaves
    the entry only by joining the queue, with a deadline no earlier than
    the entry's, so it cannot expire first. Hence the store's invariant:
    while an entry is live, each of its record's keys is either a pending
    half or in the queue, never both, and a half is pending exactly when
    its key is not in the queue. The entry is therefore read only when a
    key of its group's next record misses in the queue. A missed key that
    is a pending half joins the back of the queue as a Context holding both
    held messages, and pending drops by one; the entry keeps its place
    until pending reaches 0. Any other missed key is created in the queue.
    An entry leaves at its deadline with no trigger call and counts one
    expired context per half still pending.

    add(keys, spec, message) is the only store write and returns nothing.
    find_context, live_contexts() and queue_lengths() are the reads, and
    never change the store. The first two return a queued context as the
    object the queue holds, and show each pending half as a Context
    rebuilt, and its record held, on every call. find_context builds
    live_contexts() and returns its first context with the key.
    """

    def __init__(self, ruleset: Ruleset, *, clock: Any = None, sinks: Any = None):
        self.ruleset = ruleset
        self.clock = clock if clock is not None else BatchClock()
        self.sinks = sinks
        self.report = EngineReport()
        # The context store: one touch-ordered queue of Contexts by key per
        # timeout value.
        self._queues: defaultdict[float, OrderedDict[Any, Context]] = defaultdict(OrderedDict)
        # Source-first entries by timeout value, then by group, in deadline
        # order: (deadline, spec, record, pending).
        self._sources: defaultdict[float, OrderedDict[Any, tuple[float, ContextSpec, Any, int]]] = (
            defaultdict(OrderedDict)
        )
        self._now = 0.0
        # No queued deadline is earlier: a create lowers it, a slide only
        # raises deadlines, and each expiry scan recomputes it.
        self._next_due = math.inf

    @property
    def now(self) -> float:
        return self._now

    def _pending(self, timeout: float, queue: OrderedDict[Any, Context]) -> Iterator[Context]:
        """A new Context for each pending half under timeout, in deadline
        order: each key of an entry's record that is not in queue. Each
        call holds the entries' records anew."""
        for deadline, spec, message, _ in self._sources.get(timeout, {}).values():
            keys = spec.grouping[1](message)
            if spec.hold is not None:
                message = spec.hold(message)
            for key in keys:
                if key not in queue:
                    yield Context(key, spec, deadline, [message])

    def live_contexts(self) -> list[Context]:
        """Every live context, timeout by timeout, each in deadline order.
        Pending halves are rebuilt on each call and merged in."""
        live: list[Context] = []
        for timeout, queue in self._queues.items():
            live += heapq.merge(queue.values(), self._pending(timeout, queue), key=_deadline)
        return live

    def queue_lengths(self) -> dict[float, int]:
        """Live contexts per timeout value, each pending half counted as one."""
        return {
            timeout: len(queue) + sum(entry[3] for entry in self._sources.get(timeout, {}).values())
            for timeout, queue in self._queues.items()
        }

    def find_context(self, key: Any) -> Context | None:
        """The live context for key under the first timeout value that has
        one: the first match in live_contexts(), which lists timeout by
        timeout. So a pending half is rebuilt on each call."""
        return next((ctx for ctx in self.live_contexts() if ctx.key == key), None)

    def emit(self, alert: Any) -> None:
        report = self.report
        report.alert_counts[alert.__class__] += 1
        sinks = self.sinks
        if sinks is None or not sinks.emit(alert):
            report.alerts.append(alert)

    def add(self, keys: Sequence[Any], spec: ContextSpec, message: FlowRecord) -> None:
        """For each key, add message, held as spec.hold says, to its live
        context under spec's timeout value and slide its deadline, or
        create the context. keys is a sequence, such as a list or a tuple,
        as a grouping's keys(record) gives it: add may take its length and
        read it more than once.

        With a grouping, the keys that miss in the queue are settled
        together once the others have slid: as a new source-first entry
        when every key missed and the group has none, otherwise each as a
        pending half joining the queue or as a new Context. spec.hold runs
        on message at most once, and only when it goes into a Context; an
        entry's record is held once per call that moves its halves.
        """
        timeout = spec.timeout_value
        queue = self._queues[timeout]
        deadline = self._now + timeout
        grouping = spec.grouping
        hold = spec.hold
        # group reads the record as received, never its held form.
        received = message
        created = missed = 0
        for key in keys:
            ctx = queue.get(key)
            if ctx is None:
                if grouping is not None:
                    missed += 1
                    continue
                ctx = queue[key] = Context(key, spec, deadline)
                created += 1
            if hold is not None:
                # Held once, on the first key that hits or is created.
                message = hold(message)
                hold = None
            if deadline != ctx.deadline:
                ctx.deadline = deadline
                queue.move_to_end(key)
            ctx.messages.append(message)
        if missed:
            # The keys that missed are the ones still not in the queue.
            sources = self._sources[timeout]
            group = grouping[0](received)
            entry = sources.get(group)
            if entry is None and missed == len(keys):
                # Every key is new: the group is seen once so far, and its
                # record is kept as given.
                sources[group] = (deadline, spec, message, missed)
                created = missed
            else:
                if hold is not None:
                    message = hold(message)
                # A missed key of the entry's record is one of its pending halves.
                halves: Sequence[Any] = ()
                if entry is not None:
                    _, held_spec, record, pending = entry
                    halves = held_spec.grouping[1](record)
                held = None
                joined = 0
                for key in keys:
                    if key in queue:
                        continue
                    if key in halves:
                        if held is None:
                            held = record if held_spec.hold is None else held_spec.hold(record)
                        queue[key] = Context(key, held_spec, deadline, [held, message])
                        joined += 1
                    else:
                        queue[key] = Context(key, spec, deadline, [message])
                        created += 1
                if joined and joined == pending:
                    del sources[group]
                elif joined:
                    # Assigning to a present key keeps its place in deadline order.
                    sources[group] = (entry[0], held_spec, record, pending - joined)
        if created:
            self.report.contexts_created += created
            if deadline < self._next_due:
                self._next_due = deadline

    def expire_contexts(self, now: float) -> None:
        """Remove every context whose deadline is <= now, firing triggers.

        Each due context leaves its queue from the front, in deadline order,
        and its trigger is evaluated as it leaves, unless its spec has a
        grouping and it holds one message; due source-first entries leave
        their own queue the same way, with no trigger call. Only then, with
        every due context removed, do the ones whose trigger held fire, in
        key order whatever their deadlines, so runs are reproducible
        regardless of store internals. Their alerts leave through emit.
        """
        if now < self._next_due:
            return
        report = self.report
        triggered: list[Context] = []
        next_due = math.inf
        for timeout, queue in self._queues.items():
            popitem = queue.popitem
            expired = 0
            while queue:
                key, ctx = popitem(last=False)
                deadline = ctx.deadline
                if deadline > now:
                    # Not due: back to the front, where it came from.
                    queue[key] = ctx
                    queue.move_to_end(key, last=False)
                    if deadline < next_due:
                        next_due = deadline
                    break
                expired += 1
                spec, messages = ctx.spec, ctx.messages
                if (len(messages) > 1 or spec.grouping is None) and spec.trigger(key, messages):
                    triggered.append(ctx)
            sources = self._sources.get(timeout)
            if sources:
                popitem = sources.popitem
                while sources:
                    group, entry = popitem(last=False)
                    deadline = entry[0]
                    if deadline > now:
                        sources[group] = entry
                        sources.move_to_end(group, last=False)
                        if deadline < next_due:
                            next_due = deadline
                        break
                    expired += entry[3]
            report.contexts_expired += expired
        self._next_due = next_due
        if not triggered:
            return
        if len(triggered) > 1:
            triggered.sort(key=_context_key)
        report.contexts_fired += len(triggered)
        for ctx in triggered:
            alert = ctx.spec.on_fire(ctx)
            if alert is not None:
                self.emit(alert)

    def advance(self, now: float) -> None:
        """Move engine time to now, or keep it where it is if now is
        earlier, and expire what is due."""
        if now > self._now:
            self._now = now
        self.expire_contexts(self._now)

    def process(self, record: FlowRecord) -> None:
        # advance(clock time), inlined: on most records nothing is due yet.
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


def run_engine(records: Iterable[FlowRecord], ruleset: Ruleset, *, sinks: Any = None) -> EngineReport:
    """Run the batch pipeline over an ordered record stream.

    Engine time comes from record timestamps. Output is a pure function of
    the record sequence and the ruleset.

    The cyclic garbage collector is paused for the run and left as it was
    found afterwards, even if the record iterator raises. The engine makes
    no reference cycles, so a collection would only re-walk the growing
    context store and free nothing; reference counting still frees every
    expired context at once.
    """
    engine = CorrelationEngine(ruleset, sinks=sinks)
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

    Each pass of the loop polls a TailReader, runs parse_blocks over the
    whole lines that arrived and processes their records, sleeps when there
    were none, checks expiry once tick_interval has passed since the last
    tick, and flushes the sinks, if given, so each poll's output is in the
    files before the next poll starts. stop() is called before every poll;
    the loop ends when it returns true. Engine time is the wall clock, and
    the tick expires contexts on schedule when no traffic shows up. There
    is no end-of-stream expiry.
    """
    engine = CorrelationEngine(ruleset, clock=WallClock(now_fn), sinks=sinks)
    stats = IngestStats()
    reader = TailReader(source)
    last_tick = now_fn()
    try:
        while stop is None or not stop():
            text = reader.poll()
            if text:
                for record in parse_blocks(((text, len(text) - 1),), stats):
                    engine.process(record)
            else:
                time.sleep(min(poll_interval, tick_interval))
            now = now_fn()
            if now - last_tick >= tick_interval:
                engine.advance(now)
                last_tick = now
            if sinks is not None:
                sinks.flush()
    finally:
        reader.close()
    return engine.report, stats
