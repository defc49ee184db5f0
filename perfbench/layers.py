"""The traced run: the pipeline taken apart into its layers, one stage at a
time, through public calls only.

Each stage runs over the whole corpus and records one span (name, start,
end, parent, run id) with the counts taken at the same boundary. The
engine stage runs the real ruleset, so its time includes the scanrules and
traffic formatting calls made inside it; engine.self_s subtracts the
stand-alone times of those stages. Peaks are sampled through
live_contexts() between chunks of records, each sample a child span, so
the engine span's self time is processing alone.

The length of the engine's expiry queue has no public accessor and is not
measured.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from flowsentry.config import EngineConfig, resolve_watchlist
from flowsentry.engine import CorrelationEngine
from flowsentry.ingest import ParseError, open_stream, parse_line
from flowsentry.pipeline import build_scan_ruleset
from flowsentry.reporting import FwLine, SinkSet, format_fw_line
from flowsentry.scanrules import Direction, check_watchlist, classify_direction, derive_keys

SAMPLE_EVERY = 1000  # records between samples of the live context store
OUTPUTS = ("incoming", "outgoing", "portscans", "vulscans")


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        total = 0.0
        for span in self.spans:
            if span["name"] == name:
                children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == span["id"])
                total += span["end"] - span["start"] - children
        return total

    def counts(self, name: str) -> dict:
        return next(s["counts"] for s in self.spans if s["name"] == name)


def traced_run(config: EngineConfig, log: str, out_dir: str, run_id: int) -> tuple[dict, list[dict]]:
    """Run every layer over log; returns (per-layer metrics, spans)."""
    tracer = Tracer(run_id)
    span = tracer.span
    watchlist, _ = resolve_watchlist(config)
    nets = config.networks()
    date, tz = config.resolved_date(), config.tz
    with span("trace"):
        with span("ingest.read") as c:
            lines = [item[1] for item in open_stream(log, "batch")]
            c["lines"] = len(lines)
        with span("ingest.parse") as c:
            records, failures = [], 0
            for line in lines:
                try:
                    records.append(parse_line(line))
                except ParseError:
                    failures += 1
            c.update(records=len(records), failures=failures)
        with span("scanrules.classify") as c:
            directions = [classify_direction(r, nets) for r in records]
            incoming = [r for r, d in zip(records, directions) if d is Direction.INCOMING]
            c.update(incoming=len(incoming), outgoing=len(records) - len(incoming))
        with span("scanrules.watchlist") as c:
            hits = [check_watchlist(r, d, watchlist) for r, d in zip(records, directions)]
            c["hits"] = sum(h is not None for h in hits)
        with span("scanrules.derive_keys") as c:
            keys = [derive_keys(r) for r in incoming]
            c["keys"] = 2 * len(keys)
        with span("reporting.format_fw") as c:
            fw_lines = [FwLine(d, format_fw_line(r, d, date, tz)) for r, d in zip(records, directions)]
            c["lines"] = len(fw_lines)
        engine = CorrelationEngine(build_scan_ruleset(config, watchlist), sinks=SinkSet.null())
        peak_live = peak_held = 0
        with span("engine.process") as c:
            for start in range(0, len(records), SAMPLE_EVERY):
                for record in records[start:start + SAMPLE_EVERY]:
                    engine.process(record)
                with span("engine.sample"):
                    live = engine.live_contexts()
                    peak_live = max(peak_live, len(live))
                    peak_held = max(peak_held, sum(len(ctx.messages) for ctx in live))
            c.update(records=len(records), peak_live_contexts=peak_live, peak_messages_held=peak_held)
        with span("engine.finish") as c:
            report = engine.finish()
            c.update(created=report.contexts_created, expired=report.contexts_expired,
                     fired=report.contexts_fired, alerts=len(report.alerts))
        base = os.path.basename(log)
        paths = [os.path.join(out_dir, f"{name}_{base}") for name in OUTPUTS]
        with span("reporting.sink") as c:
            with SinkSet(*paths) as sinks:
                for item in fw_lines:
                    sinks.emit(item)
                for item in report.alerts:
                    sinks.emit(item)
            c.update(items=len(fw_lines) + len(report.alerts), write_failures=sinks.write_failures,
                     bytes=sum(os.path.getsize(p) for p in paths))

    t = tracer.duration
    parse, finish, sink = tracer.counts("ingest.parse"), tracer.counts("engine.finish"), tracer.counts("reporting.sink")
    process_s = tracer.self_time("engine.process")
    stage_s = t("scanrules.classify") + t("scanrules.watchlist") + t("scanrules.derive_keys") + t("reporting.format_fw")
    metrics = {
        "ingest.read_s": t("ingest.read"),
        "ingest.parse_s": t("ingest.parse"),
        "ingest.parse_lines_per_s": tracer.counts("ingest.read")["lines"] / t("ingest.parse"),
        "ingest.parse_failures": parse["failures"],
        "scanrules.classify_s": t("scanrules.classify"),
        "scanrules.watchlist_s": t("scanrules.watchlist"),
        "scanrules.derive_keys_s": t("scanrules.derive_keys"),
        "scanrules.vuln_hits": tracer.counts("scanrules.watchlist")["hits"],
        "engine.process_s": process_s,
        "engine.self_s": process_s - stage_s,
        "engine.finish_s": t("engine.finish"),
        "engine.contexts_created": finish["created"],
        "engine.contexts_expired": finish["expired"],
        "engine.contexts_fired": finish["fired"],
        "engine.fire_ratio": finish["fired"] / finish["expired"] if finish["expired"] else 0.0,
        "engine.slides": 2 * tracer.counts("scanrules.classify")["incoming"] - finish["created"],
        "engine.peak_live_contexts": peak_live,
        "engine.peak_messages_held": peak_held,
        "reporting.format_fw_s": t("reporting.format_fw"),
        "reporting.sink_s": t("reporting.sink"),
        "reporting.items": sink["items"],
        "reporting.bytes_written": sink["bytes"],
        "reporting.write_failures": sink["write_failures"],
        "trace.total_s": t("trace"),
    }
    return metrics, tracer.spans
