"""Synthetic corpus generation: determinism, placement, and ground truth."""

import hashlib

import pytest

from flowsentry.config import PRESET_NAMES, ConfigError
from flowsentry.generator import (
    GenConfig,
    GroundTruthScan,
    ScanSpec,
    gen_config_from_dict,
    generate,
    ground_truth_check,
    ground_truth_from_text,
    ground_truth_to_text,
    preset,
)
from flowsentry.ingest import parse_line
from flowsentry.scanrules import LocalNetworks, ScanAlert, ScanKind


def small_config(adjacency="interleaved", seed=7):
    return GenConfig(
        duration=300,
        background_rate=1.0,
        seed=seed,
        scans=(
            ScanSpec(ScanKind.HORIZONTAL, "5.5.5.10", 12346, probes=3, inter_probe_gap=30, start_time=60, adjacency=adjacency),
            ScanSpec(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.7", probes=3, inter_probe_gap=5, start_time=200, adjacency=adjacency),
        ),
    )


def test_same_config_same_bytes():
    first_lines, first_truth = generate(small_config())
    second_lines, second_truth = generate(small_config())
    assert first_lines == second_lines
    assert first_truth == second_truth


def test_different_seed_different_corpus():
    assert generate(small_config(seed=7))[0] != generate(small_config(seed=8))[0]


def test_every_generated_line_parses():
    lines, _ = generate(small_config())
    records = [parse_line(line) for line in lines]
    assert len(records) == len(lines)


def test_times_never_decrease():
    config = small_config()
    start = config.start_tod
    lines, _ = generate(config)
    times = [parse_line(line).event_time - start for line in lines]
    assert times == sorted(times)


def test_truth_points_at_real_probe_lines():
    config = small_config()
    lines, truth = generate(config)
    assert len(truth.scans) == 2
    for spec, scan in zip(config.scans, truth.scans):
        assert scan.kind is spec.kind
        assert scan.scanner_ip == spec.scanner_ip
        assert scan.target == spec.target
        assert len(scan.line_numbers) == spec.probes
        for number in scan.line_numbers:
            record = parse_line(lines[number - 1])
            assert record.source_ip == spec.scanner_ip
            assert record.protocol.value == "TCP"
            if spec.kind is ScanKind.VERTICAL:
                assert record.dest_ip == spec.target
            else:
                assert record.dest_port == spec.target


def test_interleaved_probes_are_never_adjacent():
    _, truth = generate(small_config("interleaved"))
    for scan in truth.scans:
        for a, b in zip(scan.line_numbers, scan.line_numbers[1:]):
            assert b > a + 1


def test_adjacent_probes_sit_on_consecutive_lines():
    _, truth = generate(small_config("adjacent"))
    for scan in truth.scans:
        numbers = scan.line_numbers
        assert numbers == tuple(range(numbers[0], numbers[0] + len(numbers)))


def test_background_sources_are_unique_and_foreign():
    config = small_config()
    lines, truth = generate(config)
    probe_lines = {n for scan in truth.scans for n in scan.line_numbers}
    nets = LocalNetworks(config.local_nets)
    scanners = {spec.scanner_ip for spec in config.scans}
    sources = [parse_line(line).source_ip for i, line in enumerate(lines, 1) if i not in probe_lines]
    assert len(sources) == len(set(sources))
    assert not any(nets.contains(src) for src in sources)
    assert not scanners & set(sources)


def test_probe_destinations_stay_local():
    config = small_config()
    lines, truth = generate(config)
    nets = LocalNetworks(config.local_nets)
    for line in lines:
        assert nets.contains(parse_line(line).dest_ip)


def test_background_only_config_works():
    lines, truth = generate(GenConfig(duration=100, background_rate=0.5, seed=1))
    assert len(lines) == 50
    assert truth.scans == ()


def test_zero_background_adjacent_scan():
    config = GenConfig(
        duration=100,
        background_rate=0.0,
        scans=(ScanSpec(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.7", 3, 1, 10, adjacency="adjacent"),),
    )
    lines, truth = generate(config)
    assert len(lines) == 3
    assert truth.scans[0].line_numbers == (1, 2, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(duration=0, background_rate=1.0),
        dict(duration=100, background_rate=-1.0),
        dict(duration=100, background_rate=1.0, local_nets=()),
        dict(duration=100, background_rate=1.0, start_tod=90000),
        dict(duration=100, background_rate=float("inf")),
        dict(duration=100, background_rate=float("nan")),
    ],
)
def test_bad_config_raises_config_error(kwargs):
    with pytest.raises(ConfigError):
        GenConfig(**kwargs)


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        dict(kind=ScanKind.VERTICAL, scanner_ip="10.0.0.5", target="10.0.0.7", probes=3, inter_probe_gap=1, start_time=0),
        dict(kind=ScanKind.VERTICAL, scanner_ip="6.6.6.6", target="8.8.8.8", probes=3, inter_probe_gap=1, start_time=0),
        dict(kind=ScanKind.VERTICAL, scanner_ip="6.6.6.6", target="10.0.0.7", probes=1, inter_probe_gap=1, start_time=0),
        dict(kind=ScanKind.HORIZONTAL, scanner_ip="6.6.6.6", target=0, probes=3, inter_probe_gap=1, start_time=0),
        dict(kind=ScanKind.HORIZONTAL, scanner_ip="6.6.6.6", target="80", probes=3, inter_probe_gap=1, start_time=0),
        dict(kind=ScanKind.VERTICAL, scanner_ip="6.6.6.6", target="10.0.0.7", probes=3, inter_probe_gap=60, start_time=0),
    ],
)
def test_bad_scan_specs_raise_config_error(spec_kwargs):
    with pytest.raises(ConfigError):
        GenConfig(duration=100, background_rate=1.0, scans=(ScanSpec(**spec_kwargs),))


def test_overlapping_adjacent_scans_raise():
    shared = dict(probes=4, inter_probe_gap=10, start_time=50, adjacency="adjacent")
    config_kwargs = dict(duration=200, background_rate=0.5, seed=3)
    with pytest.raises(ConfigError):
        generate(
            GenConfig(
                scans=(
                    ScanSpec(ScanKind.HORIZONTAL, "5.5.5.10", 12346, **shared),
                    ScanSpec(ScanKind.HORIZONTAL, "6.6.6.6", 12347, **shared),
                ),
                **config_kwargs,
            )
        )


def test_truth_text_round_trip():
    _, truth = generate(small_config())
    text = ground_truth_to_text(truth)
    assert ground_truth_from_text(text) == truth
    assert text.startswith("#")


def test_truth_text_count_mismatch_rejected():
    with pytest.raises(ValueError):
        ground_truth_from_text("vertical,6.6.6.6,10.0.0.7,3,5;9\n")


def test_ground_truth_check_scoring():
    _, truth = generate(small_config())
    perfect = [
        ScanAlert(ScanKind.HORIZONTAL, "5.5.5.10", 12346, (), "", "", 3),
        ScanAlert(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.7", (), "", "", 3),
    ]
    assert ground_truth_check(perfect, truth) == (1.0, 0)
    assert ground_truth_check(perfect[:1], truth) == (0.5, 0)
    noisy = perfect + [ScanAlert(ScanKind.VERTICAL, "9.9.9.9", "10.0.0.1", (), "", "", 2)]
    assert ground_truth_check(noisy, truth) == (1.0, 1)
    # Triples work too; a None target matches on kind and scanner alone.
    assert ground_truth_check([(ScanKind.HORIZONTAL, "5.5.5.10", None)], truth) == (0.5, 0)
    assert ground_truth_check([], truth) == (0.0, 0)


def test_ground_truth_check_with_no_expected_scans():
    _, truth = generate(GenConfig(duration=50, background_rate=0.2, seed=2))
    assert ground_truth_check([], truth) == (1.0, 0)


def test_preset_netbus_slow_shape():
    config = preset("netbus-slow")
    lines, truth = generate(config)
    assert len(lines) >= 10804
    assert len(truth.scans) == 1
    scan = truth.scans[0]
    assert scan.kind is ScanKind.HORIZONTAL
    assert scan.scanner_ip == "5.5.5.10"
    assert scan.target == 12346
    assert len(scan.line_numbers) == 4
    probe_times = [parse_line(lines[n - 1]).event_time for n in scan.line_numbers]
    gaps = [b - a for a, b in zip(probe_times, probe_times[1:])]
    assert gaps == [720, 720, 720]


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match=r"^unknown preset 'netbus-fast' \(have: netbus-slow\)$"):
        preset("netbus-fast")


def test_every_listed_preset_builds():
    assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
    assert all(isinstance(preset(name), GenConfig) for name in PRESET_NAMES)


def test_gen_config_from_dict_round_trip():
    data = {
        "duration": 300,
        "background_rate": 1.0,
        "seed": 7,
        "scans": [
            {
                "kind": "horizontal",
                "scanner_ip": "5.5.5.10",
                "target": 12346,
                "probes": 3,
                "inter_probe_gap": 30,
                "start_time": 60,
            }
        ],
    }
    config = gen_config_from_dict(data)
    assert config.scans[0].kind is ScanKind.HORIZONTAL
    assert config.duration == 300


@pytest.mark.parametrize(
    "data",
    [
        {"duration": 100, "background_rate": 1.0, "rate": 2},
        {"duration": 100, "background_rate": 1.0, "scans": [{"kind": "horizontal", "port": 1}]},
        "not a mapping",
    ],
)
def test_gen_config_from_dict_rejects_unknown_shapes(data):
    with pytest.raises(ConfigError):
        gen_config_from_dict(data)


_SCAN = {"kind": "horizontal", "scanner_ip": "5.5.5.10", "target": 12346, "probes": 3, "inter_probe_gap": 30, "start_time": 60}


@pytest.mark.parametrize(
    "changes, field",
    [
        # YAML reads yes and true as True, which Python would take as 1.
        ({"duration": True}, "duration"),
        ({"duration": 100.5}, "duration"),
        ({"duration": "100"}, "duration"),
        ({"background_rate": True}, "background_rate"),
        ({"background_rate": "1.0"}, "background_rate"),
        ({"start_tod": 3600.5}, "start_tod"),
        ({"scans": [dict(_SCAN, probes=True)]}, "probes"),
        ({"scans": [dict(_SCAN, probes=2.5)]}, "probes"),
        ({"scans": [dict(_SCAN, inter_probe_gap=30.5)]}, "inter_probe_gap"),
        ({"scans": [dict(_SCAN, start_time="60")]}, "start_time"),
        ({"scans": [dict(_SCAN, target=True)]}, "port number"),
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"scans": [dict(_SCAN, scanner_ip=84215045)]}, "scanner_ip"),
    ],
)
def test_gen_config_from_dict_rejects_values_of_the_wrong_type(changes, field):
    data = dict({"duration": 300, "background_rate": 1.0}, **changes)
    with pytest.raises(ConfigError, match=field):
        gen_config_from_dict(data)


def _scan(kind, scanner, target, probes, gap, start, adjacency="interleaved"):
    return ScanSpec(kind, scanner, target, probes, inter_probe_gap=gap, start_time=start, adjacency=adjacency)


# Digests of the lines and truth text, recorded before the placement code
# was rewritten: each config makes generate() sort, interleave or check
# adjacency in a way the golden corpus does not.
@pytest.mark.parametrize(
    "config, digest",
    [
        pytest.param(
            GenConfig(duration=120, background_rate=1.0, seed=11, scans=(_scan(ScanKind.HORIZONTAL, "5.5.5.10", 12346, 6, 0, 30),)),
            "6a1ff12a10795e3a8cd9e1a4c6b81cc4e976fb7c1292c3de93415f5380afc15e",
            id="interleaved-gap-0",
        ),
        pytest.param(
            GenConfig(
                duration=120,
                background_rate=0.5,
                seed=12,
                scans=(
                    _scan(ScanKind.HORIZONTAL, "5.5.5.10", 12346, 5, 1, 20),
                    _scan(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.7", 5, 0, 22),
                ),
            ),
            "a3d9e2fdf2df7dc0878bb5da9ea3fcc4111b82c756551506df48cb795b516c67",
            id="overlapping-interleaved",
        ),
        pytest.param(
            GenConfig(duration=200, background_rate=3.0, seed=13, scans=(_scan(ScanKind.VERTICAL, "6.6.6.6", "10.0.0.7", 5, 0, 50, "adjacent"),)),
            "61f8d6a5dcf9c7b2cd95bd3746a65ee0ef3d937a4aeae83aab34231f5f0b7aa2",
            id="adjacent-gap-0-rate-3",
        ),
        pytest.param(
            GenConfig(duration=60, background_rate=0.0, seed=14, scans=(_scan(ScanKind.HORIZONTAL, "5.5.5.10", 80, 4, 10, 5),)),
            "40d1e81b3e973827981b57cb3ad2a5117142e8b4c5e1df077bd95080e1a02f00",
            id="interleaved-no-background",
        ),
        pytest.param(
            GenConfig(duration=120, background_rate=0.5, seed=15, start_tod=86400 - 30, scans=(_scan(ScanKind.HORIZONTAL, "5.5.5.10", 12346, 6, 2, 25),)),
            "e3d87cd78a5ddde88bf5629bb8d9614e5c4115a51cef71f86e40004fb3ba6915",
            id="midnight",
        ),
    ],
)
def test_placement_is_byte_stable(config, digest):
    lines, truth = generate(config)
    text = "".join(line + "\n" for line in lines) + ground_truth_to_text(truth)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
