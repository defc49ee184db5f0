"""Engine configuration: defaults, YAML config files, and overrides."""

from __future__ import annotations

import dataclasses
import re
import time
from dataclasses import dataclass
from typing import Any

from .scanrules import LocalNetworks, TriggerPolicy, Watchlist, WatchlistEntry, load_watchlist

DEFAULT_LOCAL_NETS = ("10.0.0.0/8",)

# Services watched when no watchlist file is configured.
DEFAULT_WATCHLIST = (WatchlistEntry("NetBus", 12346, "in"),)

_DATE_RE = re.compile(r"^[0-9]{4}/[0-9]{2}/[0-9]{2}$")


class ConfigError(Exception):
    """Bad configuration; the run never starts."""


@dataclass(frozen=True)
class EngineConfig:
    """Knobs shared by the analysis commands.

    date stamps emitted traffic lines (logs carry only times); None means
    the current date at startup. tick_interval only matters in follow mode.
    """

    timeout_value: float = 900.0
    trigger_policy: str = "min_messages"
    min_messages: int = 2
    local_nets: tuple[str, ...] = DEFAULT_LOCAL_NETS
    watchlist_path: str | None = None
    date: str | None = None
    tz: str = "-5:00"
    output_dir: str = "."
    tick_interval: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not self.timeout_value > 0:
            raise ConfigError("timeout_value must be positive")
        if not self.tick_interval > 0:
            raise ConfigError("tick_interval must be positive")
        if self.date is not None and not _DATE_RE.match(self.date):
            raise ConfigError("date must look like yyyy/mm/dd")
        try:
            TriggerPolicy(self.trigger_policy, self.min_messages)
            LocalNetworks(self.local_nets)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def policy(self) -> TriggerPolicy:
        return TriggerPolicy(self.trigger_policy, self.min_messages)

    def networks(self) -> LocalNetworks:
        return LocalNetworks(self.local_nets)

    def resolved_date(self) -> str:
        return self.date if self.date is not None else time.strftime("%Y/%m/%d")

    def as_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["local_nets"] = list(self.local_nets)
        return data


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    unknown = set(data) - fields
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "local_nets" in data:
        data = dict(data)
        data["local_nets"] = tuple(data["local_nets"])
    try:
        return EngineConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> EngineConfig:
    """Read a YAML mapping of EngineConfig fields."""
    import yaml  # imported here so runs without a config file skip it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping of config keys")
    return config_from_dict(data)


def merge_overrides(config: EngineConfig, **overrides: Any) -> EngineConfig:
    """Apply non-None overrides on top of a config. Flags beat files."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return config
    try:
        return dataclasses.replace(config, **changes)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_watchlist(config: EngineConfig) -> tuple[Watchlist, int]:
    """Watchlist from the configured file, or the built-in default."""
    if config.watchlist_path is None:
        return Watchlist(DEFAULT_WATCHLIST), 0
    entries, skipped = load_watchlist(config.watchlist_path)
    return Watchlist(entries), skipped
