"""Wires the scan detection rules into a runnable ruleset."""

from __future__ import annotations

from .config import EngineConfig, resolve_watchlist
from .engine import CorrelationEngine, Rule, Ruleset
from .ingest import FlowRecord
from .reporting import format_fw_line
from .scanrules import INCOMING, Watchlist, check_watchlist, classify_direction, derive_keys, scan_spec


def build_scan_ruleset(config: EngineConfig, watchlist: Watchlist | None = None) -> Ruleset:
    """One rule over the flow grammar. Its action runs the per-record work
    in a fixed order: split traffic into firewall-style lines (when the
    engine has sinks), check the watchlist (resolve_watchlist(config)'s when
    none is given), then feed incoming records into scan contexts.

    Scan contexts are only built for incoming traffic; our own outbound
    connections are not scans of us. Direction is classified once per
    record and shared by all three steps.
    """
    nets = config.networks()
    date = config.resolved_date()
    tz = config.tz
    watchlist = watchlist if watchlist is not None else resolve_watchlist(config)[0]

    spec = scan_spec(config.timeout_value, config.policy())

    def flow_action(engine: CorrelationEngine, record: FlowRecord) -> None:
        direction = classify_direction(record, nets)
        sinks = engine.sinks
        if sinks is not None:
            sinks.traffic(direction, format_fw_line(record, direction, date, tz))
        alert = check_watchlist(record, direction, watchlist)
        if alert is not None:
            engine.emit(alert)
        if direction is INCOMING:
            engine.add(derive_keys(record), spec, record)

    return Ruleset([Rule("flow", lambda record: True, [flow_action])])
