"""The speed probe that throughput_msgs_per_s is scaled by."""

import gc
import sys

from child import speed_probe


def test_speed_probe_restores_the_collector_and_leaves_the_package_alone():
    loaded = {name for name in sys.modules if name.startswith("flowsentry")}
    gc.enable()
    assert speed_probe(rounds=1000) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed_probe(rounds=1000)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert {name for name in sys.modules if name.startswith("flowsentry")} == loaded
