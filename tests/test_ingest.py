"""Line grammar, parse failures with offsets, and file tailing."""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowsentry.ingest import (
    FlowRecord,
    ParseError,
    Protocol,
    StreamReset,
    TailReader,
    format_line,
    format_tod,
    ingest,
    open_stream,
    parse_line,
)

from conftest import make_line, make_record, tod


def test_parse_extracts_every_field():
    record = parse_line("639,1,14:03:33,TCP,5.5.5.10:3434,10.0.0.7:12346,1,2")
    assert record == FlowRecord(639, 1, tod("14:03:33"), Protocol.TCP, "5.5.5.10", 3434, "10.0.0.7", 12346, 1, 2)


@pytest.mark.parametrize("proto", ["TCP", "UDP", "ICMP"])
def test_parse_accepts_each_protocol(proto):
    record = parse_line(make_line(protocol=proto))
    assert record.protocol is Protocol(proto)


def test_portless_token_reads_as_zero():
    record = parse_line(make_line(protocol="ICMP", sport="--", dport="--"))
    assert record.source_port == 0
    assert record.dest_port == 0


def test_literal_zero_port_is_accepted():
    assert parse_line(make_line(sport="0")).source_port == 0


def test_unpadded_time_components_parse():
    assert parse_line(make_line(time="1:2:3")).event_time == 3723


def test_time_wraps_past_midnight():
    # 25:00:00 is grammatical; the value normalizes to a time of day.
    assert parse_line(make_line(time="25:00:00")).event_time == 3600


def test_empty_line_fails_at_offset_zero():
    with pytest.raises(ParseError) as err:
        parse_line("")
    assert err.value.offset == 0


def test_bad_protocol_offset_points_at_the_token():
    line = make_line(protocol="GRE")
    with pytest.raises(ParseError) as err:
        parse_line(line)
    assert err.value.offset == line.index("GRE")


def test_trailing_junk_offset_points_past_the_grammar():
    line = make_line() + "x"
    with pytest.raises(ParseError) as err:
        parse_line(line)
    assert err.value.offset == len(line) - 1


def test_missing_field_offset():
    # Line stops after the protocol; the next expected byte is the comma.
    line = "639,1,14:03:33,TCP"
    with pytest.raises(ParseError) as err:
        parse_line(line)
    assert err.value.offset == len(line)


def test_bad_octet_offset_points_at_the_address():
    line = make_line(src="1.2.3.999")
    with pytest.raises(ParseError) as err:
        parse_line(line)
    assert err.value.offset == line.index("1.2.3.999")


@pytest.mark.parametrize("addr", ["10.0.0", "10.0.0.0.1", "10..0.1", "256.1.1.1"])
def test_malformed_addresses_are_rejected(addr):
    with pytest.raises(ParseError):
        parse_line(make_line(dst=addr))


def _reference_ipv4_ok(text):
    # The address check as a plain loop: four non-empty parts, each at most
    # two digits or worth at most 255.
    parts = text.split(".")
    if len(parts) != 4:
        return False
    for p in parts:
        if not p or (len(p) > 2 and int(p) > 255):
            return False
    return True


_octets = st.one_of(
    st.integers(0, 999).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 3), st.integers(0, 300)),
    st.just(""),
)
_addresses = st.lists(_octets, min_size=3, max_size=5).map(".".join).filter(bool)


@settings(max_examples=400, deadline=None)
@given(_addresses)
def test_address_check_matches_the_reference(addr):
    source_prefix = "639,1,14:03:33,TCP,"
    dest_prefix = "639,1,14:03:33,TCP,5.5.5.10:3434,"
    for line, offset, which, field in (
        (make_line(src=addr), len(source_prefix), "source", "source_ip"),
        (make_line(dst=addr), len(dest_prefix), "destination", "dest_ip"),
    ):
        if _reference_ipv4_ok(addr):
            assert getattr(parse_line(line), field) == addr
        else:
            with pytest.raises(ParseError) as err:
                parse_line(line)
            assert err.value.offset == offset
            assert err.value.reason == f"{which} address is not a dotted-quad IPv4 address"


def test_port_above_range_offset_points_at_the_port():
    line = make_line(dport="99999")
    with pytest.raises(ParseError) as err:
        parse_line(line)
    assert err.value.offset == line.index("99999")


def test_port_boundary_values():
    assert parse_line(make_line(dport="65535")).dest_port == 65535
    with pytest.raises(ParseError):
        parse_line(make_line(dport="65536"))


@pytest.mark.parametrize(
    "line",
    ["garbage", "639;1;14:03:33", make_line(protocol="tcp"), make_line(sport="-1"), " " + make_line()],
)
def test_rejections_always_raise_parse_error(line):
    with pytest.raises(ParseError):
        parse_line(line)


def test_format_renders_portless_and_pads_time():
    record = make_record(time=tod("1:2:3"), protocol=Protocol.ICMP, sport=0, dport=0)
    assert format_line(record) == "639,1,01:02:03,ICMP,5.5.5.10:--,10.0.0.7:--,1,2"


def test_format_tod_pads_components():
    assert format_tod(0) == "00:00:00"
    assert format_tod(tod("14:03:33")) == "14:03:33"
    assert format_tod(86399) == "23:59:59"


_octet = st.integers(0, 255)
_ip = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", _octet, _octet, _octet, _octet)


@settings(max_examples=200, derandomize=True)
@given(
    raw1=st.integers(0, 10**6),
    raw2=st.integers(0, 10**6),
    event_time=st.integers(0, 86399),
    protocol=st.sampled_from(list(Protocol)),
    src=_ip,
    sport=st.integers(0, 65535),
    dst=_ip,
    dport=st.integers(0, 65535),
    raw8=st.integers(0, 10**6),
    packets=st.integers(0, 10**6),
)
def test_parse_inverts_format(raw1, raw2, event_time, protocol, src, sport, dst, dport, raw8, packets):
    record = FlowRecord(raw1, raw2, event_time, protocol, src, sport, dst, dport, raw8, packets)
    assert parse_line(format_line(record)) == record


def test_flow_record_is_an_immutable_hashable_value():
    record = make_record()
    with pytest.raises(AttributeError):
        record.source_port = 1
    twin = FlowRecord(
        raw_field_1=639,
        raw_field_2=1,
        event_time=tod("14:03:33"),
        protocol=Protocol.TCP,
        source_ip="5.5.5.10",
        source_port=3434,
        dest_ip="10.0.0.7",
        dest_port=12346,
        raw_field_8=1,
        packets=2,
    )
    assert twin == record
    assert hash(twin) == hash(record)
    assert parse_line(format_line(record)) == record


def test_ingest_counts_are_exact(tmp_path):
    path = tmp_path / "flows.log"
    lines = [make_line(), "not a flow line", make_line(time="14:05:00"), "", make_line(dport="99999")]
    path.write_text("\n".join(lines) + "\n")
    records, stats = ingest(str(path))
    parsed = list(records)
    assert len(parsed) == 2
    assert stats.lines_read == 5
    assert stats.records_parsed == 2
    assert stats.parse_failures == 3
    assert stats.lines_read == stats.records_parsed + stats.parse_failures


def test_ingest_stats_fill_in_lazily(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text(make_line() + "\n" + make_line(time="14:05:00") + "\n")
    records, stats = ingest(str(path))
    assert stats.lines_read == 0
    next(records)
    assert stats.lines_read == 1


def test_ingest_missing_file_raises_up_front(tmp_path):
    records, _ = ingest(str(tmp_path / "nope.log"))
    with pytest.raises(OSError):
        next(records)


def _follow_one_poll(path):
    """The items of a single follow-mode poll of the file."""
    return list(open_stream(str(path), "follow", stop=iter((False, True)).__next__))


def test_open_stream_strips_crlf(tmp_path):
    # Each input must split into the same lines in batch and follow mode.
    cases = [
        (b"a,b\r\nc,d\n", [(1, "a,b"), (2, "c,d")]),
        (b"a\rb\n", [(1, "a\rb")]),
        (b"c\r\r\nd\n", [(1, "c"), (2, "d")]),
        (b"bad \xff\xfe byte\n\xe2\x82\n", [(1, "bad \ufffd\ufffd byte"), (2, "\ufffd")]),
        ("f\x0cg\x1ch\x85i\u2028j\n".encode(), [(1, "f\x0cg\x1ch\x85i\u2028j")]),
    ]
    path = tmp_path / "flows.log"
    for data, lines in cases:
        path.write_bytes(data)
        assert list(open_stream(str(path))) == lines, data
        assert _follow_one_poll(path) == lines, data


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\xff", b"\xe2\x82", b"\xc2\x85", "\u2028".encode(), b"\x1c"])))
def test_batch_and_follow_split_any_bytes_alike(tmp_path, pieces):
    path = tmp_path / "flows.log"
    path.write_bytes(b"".join(pieces) + b"\n")
    assert list(open_stream(str(path))) == _follow_one_poll(path)


def test_open_stream_rejects_unknown_mode(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("")
    with pytest.raises(ValueError):
        list(open_stream(str(path), "stream"))


def test_tail_reader_returns_only_complete_lines(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("one\ntwo")
    reader = TailReader(str(path))
    assert reader.poll() == [(1, "one")]
    with open(path, "a") as handle:
        handle.write("\nthree\n")
    assert reader.poll() == [(2, "two"), (3, "three")]
    assert reader.poll() == []
    reader.close()


def test_tail_reader_reports_truncation(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("one\ntwo\n")
    reader = TailReader(str(path))
    assert len(reader.poll()) == 2
    path.write_text("new\n")
    items = reader.poll()
    assert items[0] == StreamReset(2)
    # Reading restarts from the top but line numbers keep climbing.
    assert items[1] == (3, "new")
    reader.close()


def test_tail_reader_follows_rename_and_recreate_rotation(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("old-1\nold-2\n")
    reader = TailReader(str(path))
    assert reader.poll() == [(1, "old-1"), (2, "old-2")]
    path.rename(tmp_path / "flows.log.1")
    # The new file is longer than the old one was, so its size alone does
    # not reveal the rotation.
    path.write_text("new-1\nnew-2\nnew-3\n")
    assert reader.poll() == [StreamReset(2), (3, "new-1"), (4, "new-2"), (5, "new-3")]
    assert reader.poll() == []
    reader.close()


def test_tail_reader_drains_the_old_file_before_a_rotation(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("old-1\n")
    reader = TailReader(str(path))
    assert reader.poll() == [(1, "old-1")]
    with open(path, "a") as handle:
        handle.write("old-2\n")
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    assert reader.poll() == [(2, "old-2"), StreamReset(2), (3, "new-1")]
    assert reader.poll() == []
    reader.close()


def test_tail_reader_keeps_an_unterminated_last_line_of_a_rotated_file(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("old-1\nold-tail")
    reader = TailReader(str(path))
    assert reader.poll() == [(1, "old-1")]
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    assert reader.poll() == [(2, "old-tail"), StreamReset(2), (3, "new-1")]
    assert reader.poll() == []
    reader.close()


def test_tail_reader_drains_a_long_old_file_in_bounded_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[TailReader.__module__], "READ_CHUNK_BYTES", 8)
    path = tmp_path / "flows.log"
    path.write_text("")
    reader = TailReader(str(path))
    with open(path, "a") as handle:
        handle.write("old-1\nold-2\nold-3\n")
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    collected = []
    for _ in range(10):
        collected.extend(reader.poll())
    assert collected == [(1, "old-1"), (2, "old-2"), (3, "old-3"), StreamReset(3), (4, "new-1")]
    reader.close()


def test_tail_reader_waits_while_the_path_is_missing(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("old-1\n")
    reader = TailReader(str(path))
    assert reader.poll() == [(1, "old-1")]
    path.rename(tmp_path / "flows.log.1")
    assert reader.poll() == []
    path.write_text("new-1\n")
    assert reader.poll() == [StreamReset(1), (2, "new-1")]
    reader.close()


def test_tail_reader_reads_growth_in_bounded_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[TailReader.__module__], "READ_CHUNK_BYTES", 8)
    path = tmp_path / "flows.log"
    lines = [f"line-{i}" for i in range(10)]
    path.write_text("".join(line + "\n" for line in lines))
    reader = TailReader(str(path))
    first = reader.poll()
    assert first == [(1, "line-0")]
    collected = list(first)
    for _ in range(20):
        collected.extend(reader.poll())
    assert collected == list(enumerate(lines, 1))
    reader.close()


def test_tail_reader_missing_file_fails_fast(tmp_path):
    with pytest.raises(OSError):
        TailReader(str(tmp_path / "nope.log"))


def test_follow_stream_sees_appended_lines(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("one\n")
    collected = []
    done = threading.Event()

    def append_later():
        time.sleep(0.05)
        with open(path, "a") as handle:
            handle.write("two\n")

    thread = threading.Thread(target=append_later)
    thread.start()
    for item in open_stream(str(path), "follow", poll_interval=0.01, stop=done.is_set):
        collected.append(item)
        if len(collected) == 2:
            done.set()
    thread.join()
    assert collected == [(1, "one"), (2, "two")]
