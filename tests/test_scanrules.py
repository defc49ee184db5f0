"""Direction, scan keys, trigger policies, and the watchlist."""

import ipaddress
import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from flowsentry.engine import Context, ContextSpec, CorrelationEngine, Rule, Ruleset
from flowsentry.scanrules import (
    HORIZONTAL,
    VERTICAL,
    Direction,
    LocalNetworks,
    ScanKind,
    TriggerPolicy,
    Watchlist,
    WatchlistEntry,
    check_watchlist,
    classify_direction,
    count_distinct_targets,
    derive_keys,
    evidence_line,
    load_watchlist,
    scan_alert,
    scan_spec,
)

from conftest import make_record


def ctx_with(records, kind=ScanKind.HORIZONTAL):
    """A scan context holding records as the scan rule does, as evidence lines."""
    key = derive_keys(records[0])[0 if kind is ScanKind.VERTICAL else 1]
    ctx = Context(key, ContextSpec(900.0, trigger=lambda key, messages: True, on_fire=lambda c: None))
    ctx.messages.extend(map(evidence_line, records))
    return ctx


def trigger_holds(ctx, policy):
    """The policy's trigger, called on ctx as the engine calls it at expiry."""
    return policy.trigger()(ctx.key, ctx.messages)


def test_direction_splits_on_source_address():
    nets = LocalNetworks(["10.0.0.0/8"])
    assert classify_direction(make_record(src="5.5.5.10"), nets) is Direction.INCOMING
    assert classify_direction(make_record(src="10.0.0.1"), nets) is Direction.OUTGOING


def test_local_networks_needs_at_least_one_net():
    with pytest.raises(ValueError):
        LocalNetworks([])


def test_local_networks_multiple_nets():
    nets = LocalNetworks(["10.0.0.0/8", "172.16.0.0/12"])
    assert nets.contains("172.16.3.3")
    assert nets.contains("10.255.255.255")
    assert not nets.contains("172.32.0.1")


def test_derive_keys_fix_the_right_field():
    vertical, horizontal = derive_keys(make_record(src="5.5.5.10", dst="10.0.0.7", dport=12346))
    assert vertical == (ScanKind.VERTICAL, "5.5.5.10", "10.0.0.7")
    assert horizontal == (ScanKind.HORIZONTAL, "5.5.5.10", "12346")


def test_context_keys_are_hashable_and_ordered():
    a = derive_keys(make_record(src="5.5.5.10", dport=12346))[1]
    b = derive_keys(make_record(src="5.5.5.10", dport=12346))[1]
    assert a == b
    assert len({a, b}) == 1
    keys = sorted(
        [
            derive_keys(make_record(src="5.5.5.10", dst="10.0.0.7"))[0],
            derive_keys(make_record(src="5.5.5.10", dport=9))[1],
            derive_keys(make_record(src="5.5.5.10", dport=12346))[1],
            derive_keys(make_record(src="4.4.4.4", dport=12346))[1],
        ]
    )
    # Kind first, then source; the fixed field compares as text.
    assert [(kind.value, remote_ip, fixed) for kind, remote_ip, fixed in keys] == [
        ("horizontal", "4.4.4.4", "12346"),
        ("horizontal", "5.5.5.10", "12346"),
        ("horizontal", "5.5.5.10", "9"),
        ("vertical", "5.5.5.10", "10.0.0.7"),
    ]


def test_a_record_held_in_two_contexts_is_one_string():
    spec = scan_spec(900.0, TriggerPolicy("min_messages", 2))

    def action(engine, record):
        engine.add(derive_keys(record), spec, record)

    engine = CorrelationEngine(Ruleset([Rule("scan", lambda record: True, [action])]))
    first = make_record(time=0, sport=3434)
    retry = make_record(time=1, sport=3435)
    for record in (first, retry):
        engine.process(record)
    vertical = engine.find_context((VERTICAL, "5.5.5.10", "10.0.0.7"))
    horizontal = engine.find_context((HORIZONTAL, "5.5.5.10", "12346"))
    assert vertical.messages == horizontal.messages == [evidence_line(first), evidence_line(retry)]
    assert all(type(line) is str for line in vertical.messages)
    assert vertical.messages[0] is horizontal.messages[0]
    assert vertical.messages[1] is horizontal.messages[1]


def test_trigger_policy_validation():
    TriggerPolicy("min_messages", 2)
    TriggerPolicy("distinct_targets", 5)
    with pytest.raises(ValueError):
        TriggerPolicy("most_messages", 2)
    with pytest.raises(ValueError):
        TriggerPolicy("min_messages", 1)


def test_distinct_targets_counts_ports_vertically_addresses_horizontally():
    same_port = [make_record(dst=f"10.0.0.{i}", dport=12346) for i in (1, 2, 3)]
    ctx = ctx_with(same_port, ScanKind.HORIZONTAL)
    assert count_distinct_targets(ctx.key, ctx.messages) == 3
    same_host = [make_record(dst="10.0.0.7", dport=p) for p in (80, 81, 80)]
    ctx = ctx_with(same_host, ScanKind.VERTICAL)
    assert count_distinct_targets(ctx.key, ctx.messages) == 2


def test_min_messages_fires_where_distinct_targets_stays_quiet():
    # Three retries against one service: three messages, one distinct target.
    retries = [make_record(dst="10.0.0.7", dport=12346) for _ in range(3)]
    ctx = ctx_with(retries, ScanKind.VERTICAL)
    assert trigger_holds(ctx, TriggerPolicy("min_messages", 2))
    assert not trigger_holds(ctx, TriggerPolicy("distinct_targets", 2))


def test_a_lone_probe_stays_below_the_threshold():
    ctx = ctx_with([make_record()])
    for mode in ("min_messages", "distinct_targets"):
        assert not trigger_holds(ctx, TriggerPolicy(mode, 2))


def test_scan_alert_builds_the_alert():
    probes = [make_record(time=t, dst=f"10.0.0.{i + 1}") for i, t in enumerate(("14:03:33", "14:15:13"))]
    ctx = ctx_with(probes, ScanKind.HORIZONTAL)
    assert trigger_holds(ctx, TriggerPolicy("min_messages", 2))
    alert = scan_alert(ctx)
    assert alert.kind is ScanKind.HORIZONTAL
    assert alert.remote_ip == "5.5.5.10"
    assert alert.fixed == 12346
    assert alert.first_seen == "14:03:33"
    assert alert.last_seen == "14:15:13"
    assert alert.distinct_targets == 2
    assert len(alert.evidence) == 2


def test_scan_alert_counts_targets_as_the_trigger_does():
    same_host = [make_record(dst="10.0.0.7", dport=p) for p in (80, 81, 80)]
    ctx = ctx_with(same_host, ScanKind.VERTICAL)
    alert = scan_alert(ctx)
    assert alert.fixed == "10.0.0.7"
    assert alert.distinct_targets == count_distinct_targets(ctx.key, ctx.messages) == 2


def test_load_watchlist_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "watch.txt"
    path.write_text(
        "NetBus,12346,in\n"
        "\n"
        "Back Orifice 2000,54320,in\n"
        "bad-name,80,in\n"
        "NoDirection,81\n"
        "TooBig,99999,in\n"
        "NetBus," + "9" * 5000 + ",in\n"
        "sshd,22,out\n"
    )
    with caplog.at_level(logging.WARNING):
        entries, skipped = load_watchlist(str(path))
    assert [e.name for e in entries] == ["NetBus", "Back Orifice 2000", "sshd"]
    assert skipped == 4
    assert "skipping malformed watchlist line" in caplog.text


def test_watchlist_later_duplicates_overwrite(tmp_path):
    path = tmp_path / "watch.txt"
    path.write_text("First,12346,in\nSecond,12346,in\n")
    entries, skipped = load_watchlist(str(path))
    assert skipped == 0
    watchlist = Watchlist(entries)
    assert watchlist.incoming[12346].name == "Second"
    assert len(watchlist) == 1


def test_check_watchlist_uses_direction_specific_ports():
    watchlist = Watchlist([WatchlistEntry("NetBus", 12346, "in"), WatchlistEntry("sshd", 22, "out")])
    incoming_hit = make_record(src="5.5.5.10", dport=12346)
    assert check_watchlist(incoming_hit, Direction.INCOMING, watchlist).entry.name == "NetBus"
    # The same port outbound is not the watched service.
    assert check_watchlist(incoming_hit, Direction.OUTGOING, watchlist) is None
    outgoing_hit = make_record(src="10.0.0.1", sport=22, dport=50000)
    assert check_watchlist(outgoing_hit, Direction.OUTGOING, watchlist).entry.name == "sshd"
    assert check_watchlist(make_record(dport=80), Direction.INCOMING, watchlist) is None


@pytest.mark.parametrize("net", ["::/0", "::ffff:10.0.0.0/104", "2001:db8::/32"])
def test_local_networks_reject_ipv6(net):
    # ::/0 used to make every IPv4 address local, and the mapped form matched none.
    with pytest.raises(ValueError, match="is not IPv4"):
        LocalNetworks(["10.0.0.0/8", net])


def mask_loop_contains(cidrs, ip):
    """The membership test LocalNetworks ran on every address before it
    had a first-octet table: the whole address against each network mask."""
    masks = [(int(n.network_address), int(n.netmask)) for n in map(ipaddress.ip_network, cidrs)]
    a, b, c, d = ip.split(".")
    value = (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)
    for net, mask in masks:
        if value & mask == net:
            return True
    return False


@st.composite
def networks_and_addresses(draw):
    cidrs = []
    for _ in range(draw(st.integers(1, 4))):
        prefix = draw(st.sampled_from([0, 1, 7, 8, 9, 12, 16, 24, 32]))
        value = draw(st.integers(0, 2**32 - 1)) & (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
        cidrs.append(f"{ipaddress.IPv4Address(value)}/{prefix}")
    addresses = []
    for _ in range(draw(st.integers(1, 20))):
        value = draw(st.integers(0, 2**32 - 1))
        near = draw(st.sampled_from(["anywhere", "inside", "just outside"]))
        if near != "anywhere":
            net = ipaddress.ip_network(draw(st.sampled_from(cidrs)))
            value = int(net.network_address) | (value & int(net.hostmask))
            if near == "just outside" and net.prefixlen:
                value ^= 1 << draw(st.integers(32 - net.prefixlen, 31))
        zeros = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
        octets = [(value >> shift) & 255 for shift in (24, 16, 8, 0)]
        addresses.append(".".join("0" * z + str(octet) for z, octet in zip(zeros, octets)))
    return cidrs, addresses


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=networks_and_addresses())
@example(case=(["10.0.0.0/8"], ["010.0.0.1", "0255.1.2.3", "10.0.0.1", "00.0.0.0"]))
@example(case=(["255.0.0.0/9", "10.16.0.0/12"], ["0255.1.2.3", "255.128.0.0", "010.17.0.1", "10.32.0.1"]))
def test_first_octet_table_agrees_with_the_mask_loop(case):
    cidrs, addresses = case
    nets = LocalNetworks(cidrs)
    for ip in addresses:
        assert nets.contains(ip) is mask_loop_contains(cidrs, ip), (cidrs, ip)
