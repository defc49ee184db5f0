"""Engine configuration: validation and the values derived from it."""

import dataclasses
import time

import pytest

import yaml

from flowsentry.config import ConfigError, EngineConfig, load_config, merge_overrides


def test_networks_are_built_once_per_config():
    config = EngineConfig(local_nets=("10.0.0.0/8", "192.168.0.0/16"))
    assert config.networks() is config.networks()
    assert config.networks().contains("192.168.4.5")
    # The parsed networks are not a field: equality, as_dict() and replace()
    # see only local_nets, and a replaced config parses its own.
    assert config == EngineConfig(local_nets=("10.0.0.0/8", "192.168.0.0/16"))
    assert set(config.as_dict()) == {f.name for f in dataclasses.fields(EngineConfig)}
    moved = merge_overrides(config, local_nets=("172.16.0.0/12",))
    assert moved.networks().contains("172.16.0.1")
    assert not moved.networks().contains("10.0.0.1")
    assert dataclasses.replace(config, tz="+1:00").networks().cidrs == config.networks().cidrs


@pytest.mark.parametrize("net", ["10.0.0.0/33", "10.0.0.1/8", "not-a-network", "::/0"])
def test_a_bad_local_net_is_a_config_error(net):
    with pytest.raises(ConfigError):
        EngineConfig(local_nets=(net,))
    with pytest.raises(ConfigError):
        merge_overrides(EngineConfig(), local_nets=(net,))


@pytest.mark.parametrize(
    "text, field",
    [
        # YAML reads yes and true as True, which Python would take as 1.
        ("timeout_value: yes", "timeout_value"),
        ("timeout_value: '900'", "timeout_value"),
        ("tick_interval: true", "tick_interval"),
        ("min_messages: 2.5", "min_messages"),
        ("min_messages: yes", "min_messages"),
        ("min_messages: '2'", "min_messages"),
        # open() takes a number as a file descriptor: 0 would read stdin.
        ("watchlist_path: 0", "watchlist_path"),
        ("watchlist_path: 5", "watchlist_path"),
        # YAML reads an ISO date as a datetime.date.
        ("date: 2004-11-05", "date"),
        ("tz: 5", "tz"),
        ("output_dir: 7", "output_dir"),
        # The right shape, but no such day.
        ("date: 2026/13/45", "date"),
        ("date: 2026/02/29", "date"),
        ("date: 0000/01/01", "date"),
    ],
)
def test_a_config_value_of_the_wrong_type_is_a_config_error_naming_it(tmp_path, text, field):
    path = tmp_path / "config.yaml"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        load_config(str(path))
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        merge_overrides(EngineConfig(), **yaml.safe_load(text))


def test_numbers_of_either_kind_are_accepted(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("timeout_value: 60\ntick_interval: 0.5\nmin_messages: 3\n", encoding="utf-8")
    config = load_config(str(path))
    assert (config.timeout_value, config.tick_interval, config.min_messages) == (60, 0.5, 3)
    assert config.policy().min_messages == 3


def accepted(date):
    try:
        EngineConfig(date=date)
    except ConfigError:
        return False
    return True


def test_a_date_is_accepted_exactly_when_strptime_reads_it():
    assert accepted("2024/02/29")
    for year in ("0000", "0001", "1900", "2000", "2023", "2024", "9999"):
        for month in range(14):
            for day in range(33):
                date = f"{year}/{month:02d}/{day:02d}"
                try:
                    time.strptime(date, "%Y/%m/%d")
                except ValueError:
                    assert not accepted(date), date
                else:
                    assert accepted(date), date
