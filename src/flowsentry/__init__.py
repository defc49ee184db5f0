"""Streaming flow log correlation engine with port scan detection."""

import importlib

from .ingest import FlowRecord, IngestStats, ParseError, Protocol, format_line, ingest, open_stream, parse_line
from .engine import Context, ContextSpec, CorrelationEngine, EngineReport, Rule, Ruleset, run_engine
from .scanrules import (
    Direction,
    ScanAlert,
    ScanKind,
    TriggerPolicy,
    VulnAlert,
    WatchlistEntry,
    Watchlist,
    check_watchlist,
    classify_direction,
    derive_keys,
    load_watchlist,
)
from .reporting import FwLine, SinkSet, format_fw_line, format_scan_alert, format_vuln_alert
from .config import ConfigError, EngineConfig
from .pipeline import build_scan_ruleset

__version__ = "0.1.0"

# Names from the modules that analyze and follow never use, imported on
# first access (PEP 562) so that importing the package does not pay for them.
_LAZY = {
    **dict.fromkeys(("BaselineReport", "DiffSummary", "baseline_scan", "compare_reports"), "baseline"),
    **dict.fromkeys(("GenConfig", "GroundTruth", "ScanSpec", "generate", "ground_truth_check"), "generator"),
    **dict.fromkeys(("BenchResult", "measure_throughput"), "bench"),
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
