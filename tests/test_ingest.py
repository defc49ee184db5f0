"""Line grammar, parse failures with offsets, and file tailing."""

import logging
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from flowsentry.ingest import (
    FlowRecord,
    IngestStats,
    ParseError,
    Protocol,
    TailReader,
    format_line,
    format_tod,
    ingest,
    open_stream,
    parse_blocks,
    parse_line,
)
from flowsentry.engine import Ruleset, run_follow

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


_NUMERIC_FIELDS = ("raw1", "raw2", "hours", "minutes", "seconds", "sport", "dport", "raw8", "packets")


@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    field=st.sampled_from(_NUMERIC_FIELDS),
    digits=st.one_of(st.sampled_from([4299, 4300, 4301, 5000]), st.integers(4299, 5000)),
    lead=st.sampled_from("0123456789"),
)
def test_a_long_digit_run_in_any_numeric_field_never_escapes_the_parse_error(tmp_path, field, digits, lead):
    # Python refuses to convert more than sys.get_int_max_str_digits()
    # digits from text (4,300 by default since 3.10.7; 0 means no limit).
    run = lead + "7" * (digits - 1)
    stamp = {"hours": "14", "minutes": "03", "seconds": "33"}
    fields = {}
    if field in stamp:
        stamp[field] = run
    else:
        fields[field] = run
    line = make_line(time="{hours}:{minutes}:{seconds}".format(**stamp), **fields)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        record = parse_line(line)
    except ParseError as error:
        # Too many digits to convert, or a port out of range: either way the
        # offset is the start of the field.
        assert error.offset == line.index(run)
        assert (limit and digits > limit) or field in ("sport", "dport")
        record = None
    else:
        assert not (limit and digits > limit)
    valid = make_line()
    log = tmp_path / f"{field}-{digits}-{lead}.log"
    log.write_text(f"{valid}\n{line}\n{valid}\n", encoding="utf-8")
    records, stats = ingest(str(log))
    expected = [parse_line(valid)] + ([record] if record is not None else []) + [parse_line(valid)]
    assert list(records) == expected
    assert (stats.lines_read, stats.parse_failures) == (3, 1 if record is None else 0)


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


def test_batch_ingest_parses_what_open_stream_yields(tmp_path):
    path = tmp_path / "flows.log"
    path.write_bytes(
        make_line().encode() + b"\r\n"  # CRLF
        + make_line(time="14:04:00").encode() + b"\r" + make_line(time="14:04:01").encode() + b"\n"  # lone CR
        + make_line(time="14:05:00").encode() + b"\r\r\n"
        + make_line(src="5.5.\xff.10").encode("latin-1") + b"\n"  # invalid UTF-8
        + b"\n"  # blank
        + b"not a flow line\n"
        + make_line(dport="99999").encode() + b"\n"
        + make_line(time="14:06:00").encode()  # no newline at the end
    )
    want, want_stats = [], IngestStats()
    for _, text in open_stream(str(path)):
        want_stats.lines_read += 1
        try:
            want.append(parse_line(text))
        except ParseError:
            want_stats.parse_failures += 1
        else:
            want_stats.records_parsed += 1
    records, stats = ingest(str(path))
    assert list(records) == want
    assert stats == want_stats == IngestStats(lines_read=8, records_parsed=3, parse_failures=5)
    assert stats.lines_read == stats.records_parsed + stats.parse_failures


def _parsed_lines(path):
    """Records and stats of parse_line over open_stream's lines: the
    reference for batch ingest."""
    records, stats = [], IngestStats()
    for _, text in open_stream(str(path)):
        stats.lines_read += 1
        try:
            records.append(parse_line(text))
        except ParseError:
            stats.parse_failures += 1
        else:
            stats.records_parsed += 1
    return records, stats


def _mutate(line, data):
    at = data.draw(st.integers(0, len(line)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = data.draw(st.sampled_from([",", ":", ".", "-", "0", "9", "a", " ", "\r", "\x85", "\u2028", "\u20ac"]))
    return line[:at] + ("" if edit == "delete" else char) + line[at + (edit != "insert") :]


_PORTS = st.sampled_from(["0", "3434", "--", "65535", "65536", "099999"])
_VALID_LINES = st.builds(
    make_line,
    time=st.sampled_from(["14:03:33", "14:03:34", "1:0:5", "01:00:05", "02:00:05", "25:00:05", "23:59:59"]),
    protocol=st.sampled_from(["TCP", "UDP", "ICMP"]),
    sport=_PORTS,
    dport=_PORTS,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("block_chars", [1, 7, 64, None])
@given(data=st.data())
def test_batch_ingest_matches_parse_line_over_any_block_edges(tmp_path, monkeypatch, block_chars, data):
    module = sys.modules[ingest.__module__]
    if block_chars is not None:
        monkeypatch.setattr(module, "BLOCK_CHARS", block_chars)
    path = tmp_path / "flows.log"
    path.write_bytes(_draw_log(data, "0" * (2 * module.BLOCK_CHARS) + "5.5.5.10"))
    records, stats = ingest(str(path))
    assert (list(records), stats) == _parsed_lines(path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("block_chars", [7, None])
@given(data=st.data())
def test_ingest_of_several_logs_is_each_logs_records_in_turn(tmp_path, monkeypatch, block_chars, data):
    if block_chars is not None:
        monkeypatch.setattr(sys.modules[ingest.__module__], "BLOCK_CHARS", block_chars)
    first, second = tmp_path / "a.log", tmp_path / "b.log"
    # A last line with no newline is a line of its own, not the start of the
    # next log's first line.
    unterminated = data.draw(st.sampled_from([b"", make_line(time="14:06:00").encode()]))
    first.write_bytes(_draw_log(data, "0" * 16 + "5.5.5.10") + unterminated)
    second.write_bytes(_draw_log(data, "0" * 16 + "5.5.5.10"))
    records_a, stats_a = ingest(str(first))
    records_b, stats_b = ingest(str(second))
    want = list(records_a) + list(records_b)
    records, stats = ingest(str(first), str(second))
    assert list(records) == want
    assert stats == IngestStats(
        stats_a.lines_read + stats_b.lines_read,
        stats_a.records_parsed + stats_b.records_parsed,
        stats_a.parse_failures + stats_b.parse_failures,
    )


def _draw_log(data, long_address):
    """The bytes of a log of up to 30 lines of every kind that splits or
    parses differently, the last one maybe without a newline."""
    kinds = st.sampled_from(["valid", "valid", "mutated", "blank", "long", "long-bad", "lone-cr", "undecodable"])
    lines = []
    for kind in data.draw(st.lists(kinds, max_size=30)):
        if kind == "valid":
            line = data.draw(_VALID_LINES).encode()
        elif kind == "mutated":
            line = _mutate(data.draw(_VALID_LINES), data).encode()
        elif kind == "blank":
            line = b""
        elif kind == "long":
            line = make_line(src=long_address).encode()
        elif kind == "long-bad":
            line = make_line(src=long_address, dport="70000").encode()
        elif kind == "lone-cr":
            line = data.draw(_VALID_LINES).encode() + b"\r" + data.draw(_VALID_LINES).encode()
        else:
            line = make_line(src="5.5.\xff.10").encode("latin-1") + data.draw(st.sampled_from([b"\xe2\x82", b"\xc3"]))
        lines.append(line + b"\r" * data.draw(st.integers(0, 3)) + b"\n")
    if lines and data.draw(st.booleans()):
        lines[-1] = lines[-1].rstrip(b"\n")
    return b"".join(lines)


def _one_poll(path):
    """The text of a single TailReader poll of the file."""
    reader = TailReader(str(path))
    try:
        return reader.poll()
    finally:
        reader.close()


def _follow_records(texts):
    """Records and stats of polled texts fed through the shared parse loop
    one poll at a time, as run_follow feeds it."""
    stats = IngestStats()
    records = [record for text in texts if text for record in parse_blocks(((text, len(text) - 1),), stats)]
    return records, stats


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("chunk_bytes", [1, 7, 64])
@given(data=st.data())
def test_follow_parses_what_batch_ingest_parses_over_any_poll_edges(tmp_path, monkeypatch, chunk_bytes, data):
    monkeypatch.setattr(sys.modules[TailReader.__module__], "READ_CHUNK_BYTES", chunk_bytes)
    path = tmp_path / "flows.log"
    path.write_bytes(_draw_log(data, "0" * 128 + "5.5.5.10"))
    records, stats = ingest(str(path))
    want = list(records), stats
    reader = TailReader(str(path))
    # Enough polls to read every byte; then a rotation, after which the old
    # file's last line counts even without a newline, as in batch mode.
    texts = [reader.poll() for _ in range(path.stat().st_size // chunk_bytes + 1)]
    path.rename(tmp_path / "flows.log.1")
    path.write_bytes(b"")
    texts.append(reader.poll())
    reader.close()
    assert _follow_records(texts) == want


def test_a_repeated_stamp_text_reuses_its_time_and_any_other_text_is_computed(tmp_path):
    stamps = ["01:00:05", "02:00:05", "01:00:05", "1:0:5", "25:00:05"]
    path = tmp_path / "flows.log"
    path.write_text("".join(make_line(time=stamp) + "\n" for stamp in stamps))
    want = [3605, 7205, 3605, 3605, 3605]
    records, _ = ingest(str(path))
    assert [record.event_time for record in records] == want
    records, _ = _follow_records([_one_poll(path)])
    assert [record.event_time for record in records] == want


def _follow_one_poll(path):
    """The lines of a single TailReader poll of the file, split at newlines
    with trailing carriage returns dropped."""
    return [line.rstrip("\r") for line in _one_poll(path).split("\n")[:-1]]


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
        assert _follow_one_poll(path) == [text for _, text in lines], data


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\xff", b"\xe2\x82", b"\xc2\x85", "\u2028".encode(), b"\x1c"])))
def test_batch_and_follow_split_any_bytes_alike(tmp_path, pieces):
    path = tmp_path / "flows.log"
    path.write_bytes(b"".join(pieces) + b"\n")
    assert [text for _, text in open_stream(str(path))] == _follow_one_poll(path)


def test_open_stream_rejects_unknown_mode(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text("")
    with pytest.raises(ValueError):
        list(open_stream(str(path), "stream"))


def _poll(reader, caplog):
    """One poll's text, and how many truncations or rotations it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        text = reader.poll()
    return text, caplog.text.count("was truncated or replaced; following from the top")


def test_tail_reader_returns_only_complete_lines(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("one\ntwo")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("one\n", 0)
    with open(path, "a") as handle:
        handle.write("\nthree\n")
    assert _poll(reader, caplog) == ("two\nthree\n", 0)
    assert _poll(reader, caplog) == ("", 0)
    reader.close()


def test_tail_reader_reports_truncation(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("one\ntwo\n")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("one\ntwo\n", 0)
    path.write_text("new\n")
    # Reading restarts from the top.
    assert _poll(reader, caplog) == ("new\n", 1)
    reader.close()


def test_tail_reader_follows_rename_and_recreate_rotation(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("old-1\nold-2\n")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("old-1\nold-2\n", 0)
    path.rename(tmp_path / "flows.log.1")
    # The new file is longer than the old one was, so its size alone does
    # not reveal the rotation.
    path.write_text("new-1\nnew-2\nnew-3\n")
    assert _poll(reader, caplog) == ("new-1\nnew-2\nnew-3\n", 1)
    assert _poll(reader, caplog) == ("", 0)
    reader.close()


def test_tail_reader_drains_the_old_file_before_a_rotation(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("old-1\n")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("old-1\n", 0)
    with open(path, "a") as handle:
        handle.write("old-2\n")
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    assert _poll(reader, caplog) == ("old-2\nnew-1\n", 1)
    assert _poll(reader, caplog) == ("", 0)
    reader.close()


def test_tail_reader_keeps_an_unterminated_last_line_of_a_rotated_file(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("old-1\nold-tail")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("old-1\n", 0)
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    assert _poll(reader, caplog) == ("old-tail\nnew-1\n", 1)
    assert _poll(reader, caplog) == ("", 0)
    reader.close()


def test_tail_reader_drains_a_long_old_file_in_bounded_chunks(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(sys.modules[TailReader.__module__], "READ_CHUNK_BYTES", 8)
    path = tmp_path / "flows.log"
    path.write_text("")
    reader = TailReader(str(path))
    with open(path, "a") as handle:
        handle.write("old-1\nold-2\nold-3\n")
    path.rename(tmp_path / "flows.log.1")
    path.write_text("new-1\n")
    polls = [_poll(reader, caplog) for _ in range(10)]
    # The reset comes in the poll that reads the old file's last bytes.
    assert [poll for poll in polls if poll != ("", 0)] == [("old-1\n", 0), ("old-2\n", 0), ("old-3\nnew-1\n", 1)]
    reader.close()


def test_tail_reader_waits_while_the_path_is_missing(tmp_path, caplog):
    path = tmp_path / "flows.log"
    path.write_text("old-1\n")
    reader = TailReader(str(path))
    assert _poll(reader, caplog) == ("old-1\n", 0)
    path.rename(tmp_path / "flows.log.1")
    assert _poll(reader, caplog) == ("", 0)
    path.write_text("new-1\n")
    assert _poll(reader, caplog) == ("new-1\n", 1)
    reader.close()


def test_tail_reader_reads_growth_in_bounded_chunks(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(sys.modules[TailReader.__module__], "READ_CHUNK_BYTES", 8)
    path = tmp_path / "flows.log"
    lines = [f"line-{i}" for i in range(10)]
    path.write_text("".join(line + "\n" for line in lines))
    reader = TailReader(str(path))
    polls = [_poll(reader, caplog) for _ in range(21)]
    assert polls[0] == ("line-0\n", 0)
    assert "".join(text for text, _ in polls) == "".join(line + "\n" for line in lines)
    assert sum(resets for _, resets in polls) == 0
    reader.close()


def test_tail_reader_missing_file_fails_fast(tmp_path):
    with pytest.raises(OSError):
        TailReader(str(tmp_path / "nope.log"))


def test_follow_stream_sees_appended_lines(tmp_path):
    path = tmp_path / "flows.log"
    path.write_text(make_line() + "\n")
    calls = []

    def stop():
        # Called before every poll: a line arrives between the first two.
        calls.append(None)
        if len(calls) == 2:
            with open(path, "a") as handle:
                handle.write(make_line(time="14:03:34") + "\n")
        return len(calls) > 2

    _, stats = run_follow(str(path), Ruleset([]), poll_interval=0.01, stop=stop)
    assert stats.records_parsed == 2
