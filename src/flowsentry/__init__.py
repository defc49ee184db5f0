"""Streaming flow log correlation engine with port scan detection."""

from .ingest import FlowRecord, IngestStats, ParseError, Protocol, StreamReset, format_line, ingest, open_stream, parse_line
from .engine import AddToExpiredError, Context, ContextSpec, CorrelationEngine, EngineReport, Rule, Ruleset, match_rule, run_engine
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
    scan_trigger,
)
from .reporting import FwLine, SinkSet, format_fw_line, format_scan_alert, format_vuln_alert
from .config import ConfigError, EngineConfig
from .pipeline import build_scan_ruleset
from .baseline import BaselineReport, DiffSummary, baseline_scan, compare_reports
from .generator import GenConfig, GroundTruth, ScanSpec, generate, ground_truth_check
from .bench import BenchResult, measure_throughput

__version__ = "0.1.0"
