"""Wires the scan detection rules into a runnable ruleset."""

from __future__ import annotations

from functools import partial

from .config import EngineConfig
from .engine import Bindings, ContextSpec, CorrelationEngine, Rule, Ruleset
from .ingest import FlowRecord
from .reporting import FwLine, format_fw_line
from .scanrules import (
    Direction,
    Watchlist,
    check_watchlist,
    classify_direction,
    derive_keys,
    scan_alert,
    trigger_holds,
)


def build_scan_ruleset(
    config: EngineConfig,
    watchlist: Watchlist | None = None,
    *,
    emit_traffic: bool = True,
) -> Ruleset:
    """One rule over the flow grammar. Its action runs the per-record work
    in a fixed order: split traffic into firewall-style lines, check the
    watchlist, then feed incoming records into scan contexts.

    Scan contexts are only built for incoming traffic; our own outbound
    connections are not scans of us. Direction is classified once per
    record and shared by all three steps.
    """
    nets = config.networks()
    policy = config.policy()
    date = config.resolved_date()
    tz = config.tz
    watchlist = watchlist if watchlist is not None else Watchlist()
    spec = ContextSpec(
        timeout_value=config.timeout_value,
        trigger=partial(trigger_holds, policy=policy),
        on_fire=scan_alert,
    )

    def flow_action(engine: CorrelationEngine, record: FlowRecord, bindings: Bindings) -> None:
        direction = classify_direction(record, nets)
        if emit_traffic:
            engine.emit(FwLine(direction, format_fw_line(record, direction, date, tz)), record=False)
        alert = check_watchlist(record, direction, watchlist)
        if alert is not None:
            engine.emit(alert)
        if direction is Direction.INCOMING:
            for key in derive_keys(record):
                engine.add_to_context(engine.ensure_context(key, spec), record)

    return Ruleset([Rule("flow", lambda record: {}, [flow_action])])
