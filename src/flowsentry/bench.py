"""Full-pipeline throughput measurement against a null sink."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass

from .config import EngineConfig, resolve_watchlist
from .engine import run_engine
from .ingest import ingest
from .pipeline import build_scan_ruleset
from .reporting import SinkSet

# Throughput reported for a comparable real-time correlation engine; bench
# prints the ratio but never gates on it (hardware varies).
REFERENCE_MSGS_PER_SEC = 72000


@dataclass(frozen=True)
class BenchResult:
    messages: int
    wall_time: float
    throughput: float
    repetitions: int
    config_fingerprint: str

    def json_line(self) -> str:
        return json.dumps(
            {
                "messages": self.messages,
                "wall_time": round(self.wall_time, 6),
                "throughput": round(self.throughput, 1),
                "repetitions": self.repetitions,
                "config_fingerprint": self.config_fingerprint,
            },
            sort_keys=True,
        )

    def summary_lines(self) -> list[str]:
        ratio = self.throughput / REFERENCE_MSGS_PER_SEC
        return [
            f"{self.messages} messages in {self.wall_time:.3f}s (median of {self.repetitions} runs)",
            f"throughput: {self.throughput:,.0f} msg/s",
            f"reference engine: {REFERENCE_MSGS_PER_SEC:,} msg/s ({ratio:.2f}x)",
        ]


def _fingerprint(config: EngineConfig) -> str:
    blob = json.dumps(config.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def measure_throughput(log_path: str, config: EngineConfig, repetitions: int = 3) -> BenchResult:
    """Time the parse + correlate + emit pipeline over a log file.

    The sink is a null sink so disk speed does not dominate. Reports the
    median of the repetitions; detection behaviour is identical to a plain
    run on the same inputs.
    """
    if repetitions < 3:
        raise ValueError("repetitions must be at least 3")
    watchlist, _ = resolve_watchlist(config)
    ruleset = build_scan_ruleset(config, watchlist)
    times = []
    messages = 0
    for _ in range(repetitions):
        records, stats = ingest(log_path)
        sinks = SinkSet.null()
        started = time.perf_counter()
        report = run_engine(records, ruleset, sinks=sinks)
        times.append(time.perf_counter() - started)
        messages = report.messages_processed
    wall = statistics.median(times)
    return BenchResult(
        messages=messages,
        wall_time=wall,
        throughput=messages / wall if wall > 0 else float("inf"),
        repetitions=repetitions,
        config_fingerprint=_fingerprint(config),
    )
