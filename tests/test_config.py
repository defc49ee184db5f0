"""Engine configuration: validation and the values derived from it."""

import dataclasses

import pytest

from flowsentry.config import ConfigError, EngineConfig, merge_overrides


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
