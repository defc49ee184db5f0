"""Engine configuration: defaults, YAML config files, and overrides."""

from __future__ import annotations

import dataclasses
import re
import time
from dataclasses import dataclass
from typing import Any

from .scanrules import LocalNetworks, TriggerPolicy, Watchlist, WatchlistEntry, load_watchlist

DEFAULT_LOCAL_NETS = ("10.0.0.0/8",)

# Generator presets by name, sorted; generator.preset() builds each. Listed
# here so the CLI can name them without importing the generator.
PRESET_NAMES = ("netbus-slow",)

# Services watched when no watchlist file is configured.
DEFAULT_WATCHLIST = (WatchlistEntry("NetBus", 12346, "in"),)

_DATE_RE = re.compile(r"^[0-9]{4}/[0-9]{2}/[0-9]{2}$")


# Days in each month of a common year.
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_calendar_day(year: int, month: int, day: int) -> bool:
    """The days time.strptime(date, "%Y/%m/%d") accepts. That call loads
    the _strptime, calendar and locale modules on first use: about 5 ms
    and 0.5 MB of peak memory on every run given a date (CPython 3.11 on
    a 2-vCPU VM)."""
    leap = month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    return year > 0 and 0 < month < 13 and 0 < day <= _MONTH_DAYS[month - 1] + leap


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
        check_number(self.timeout_value, "timeout_value")
        check_number(self.tick_interval, "tick_interval")
        check_int(self.min_messages, "min_messages")
        check_str(self.tz, "tz")
        check_str(self.output_dir, "output_dir")
        check_str(self.watchlist_path, "watchlist_path", optional=True)
        check_str(self.date, "date", optional=True)
        # Written so that NaN fails too.
        if not self.timeout_value > 0:
            raise ConfigError("timeout_value must be positive")
        if not self.tick_interval > 0:
            raise ConfigError("tick_interval must be positive")
        if self.date is not None:
            if not _DATE_RE.match(self.date):
                raise ConfigError("date must look like yyyy/mm/dd")
            if not _is_calendar_day(*map(int, self.date.split("/"))):
                raise ConfigError(f"date must be a day of the calendar, not {self.date!r}")
        try:
            policy = TriggerPolicy(self.trigger_policy, self.min_messages)
            networks = LocalNetworks(self.local_nets)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Kept for policy() and networks(); not fields, so as_dict(),
        # equality and dataclasses.replace() never see them.
        object.__setattr__(self, "_policy", policy)
        object.__setattr__(self, "_networks", networks)

    def policy(self) -> TriggerPolicy:
        """The validated trigger policy, built once when the config is."""
        return self._policy

    def networks(self) -> LocalNetworks:
        """The parsed local_nets, built once when the config is."""
        return self._networks

    def resolved_date(self) -> str:
        return self.date if self.date is not None else time.strftime("%Y/%m/%d")

    def as_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["local_nets"] = list(self.local_nets)
        return data


def check_keys(data: dict[str, Any], cls: type, what: str) -> None:
    """Raise ConfigError naming every key of data that is not a field of cls."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


def check_number(value: Any, what: str) -> None:
    """ConfigError unless value is an int or a float. A bool is neither,
    though Python counts it as an int: YAML reads yes and true as True."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, not {value!r}")


def check_int(value: Any, what: str) -> None:
    """ConfigError unless value is an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, not {value!r}")


def check_str(value: Any, what: str, *, optional: bool = False) -> None:
    """ConfigError unless value is a str, or None when optional. YAML reads
    0 as a number, which open() takes as a file descriptor, and 2004-11-05
    as a date."""
    if not (isinstance(value, str) or optional and value is None):
        raise ConfigError(f"{what} must be a string, not {value!r}")


def string_tuple(value: Any, what: str) -> tuple[str, ...]:
    """A parsed list of strings as a tuple; ConfigError for any other shape."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{what} must be a list of strings")
    return tuple(value)


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    check_keys(data, EngineConfig, "config")
    if "local_nets" in data:
        data = dict(data)
        data["local_nets"] = string_tuple(data["local_nets"], "local_nets")
    try:
        return EngineConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def read_yaml(path: str) -> Any:
    """The document in a YAML file, None when it is empty. Bad YAML is a
    ConfigError, and so is an integer longer than int() converts, which
    PyYAML lets through as a ValueError; a file that cannot be read raises
    OSError."""
    import yaml  # imported here so runs that read no YAML file skip it

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return yaml.safe_load(handle)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str) -> EngineConfig:
    """Read a YAML mapping of EngineConfig fields."""
    data = read_yaml(path)
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
