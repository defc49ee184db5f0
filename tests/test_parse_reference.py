"""parse_line against a reference parser: the earlier two-stage form, a
loose whole-line pattern followed by separate address and port checks.
Every mutated line must give the same record or the same (offset, reason).
"""

import re

from hypothesis import given, settings, strategies as st

from flowsentry.ingest import FlowRecord, ParseError, Protocol, parse_line

_REF_PARSE_RE = re.compile(
    r"([0-9]+),([0-9]+),([0-9]+):([0-9]+):([0-9]+),(TCP|UDP|ICMP),"
    r"([0-9.]+):([0-9]+|--),([0-9.]+):([0-9]+|--),([0-9]+),([0-9]+)"
)

_REF_STEPS = [
    (re.compile(r"[0-9]+"), "first numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "second numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "hours"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+"), "minutes"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+"), "seconds"),
    (re.compile(r","), "comma"),
    (re.compile(r"TCP|UDP|ICMP"), "protocol"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9.]+"), "source address"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+|--"), "source port"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9.]+"), "destination address"),
    (re.compile(r":"), "colon"),
    (re.compile(r"[0-9]+|--"), "destination port"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "eighth numeric field"),
    (re.compile(r","), "comma"),
    (re.compile(r"[0-9]+"), "packet count"),
]

_REF_OCTET = r"0*(?:[0-9]{1,2}|1[0-9]{2}|2[0-4][0-9]|25[0-5])"
_ref_ipv4_match = re.compile(rf"(?:{_REF_OCTET}\.){{3}}{_REF_OCTET}").fullmatch


def _ref_violation_offset(line):
    pos = 0
    for pattern, what in _REF_STEPS:
        m = pattern.match(line, pos)
        if m is None:
            return pos, f"expected {what}"
        pos = m.end()
    return pos, "unexpected trailing text"


def reference_parse_line(line):
    m = _REF_PARSE_RE.fullmatch(line)
    if m is None:
        offset, reason = _ref_violation_offset(line)
        raise ParseError(offset, reason)
    raw_1, raw_2, hours, minutes, seconds, protocol, source_ip, source_token, dest_ip, dest_token, raw_8, packets = (
        m.groups()
    )
    if _ref_ipv4_match(source_ip) is None:
        raise ParseError(m.start(7), "source address is not a dotted-quad IPv4 address")
    if _ref_ipv4_match(dest_ip) is None:
        raise ParseError(m.start(9), "destination address is not a dotted-quad IPv4 address")
    source_port = 0 if source_token == "--" else int(source_token)
    if source_port > 65535:
        raise ParseError(m.start(8), "source port out of range")
    dest_port = 0 if dest_token == "--" else int(dest_token)
    if dest_port > 65535:
        raise ParseError(m.start(10), "destination port out of range")
    return FlowRecord(
        int(raw_1),
        int(raw_2),
        (int(hours) * 3600 + int(minutes) * 60 + int(seconds)) % 86400,
        Protocol(protocol),
        source_ip,
        source_port,
        dest_ip,
        dest_port,
        int(raw_8),
        int(packets),
    )


def outcome(parse, line):
    try:
        return parse(line)
    except ParseError as err:
        return err.offset, err.reason


# Tokens of a line, separators included, so a mutation can replace one.
_number = st.integers(0, 10**6).map(str)
_good_octet = st.integers(0, 255).map(str)
_odd_octet = st.one_of(
    st.integers(256, 999).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 3), st.integers(0, 300)),
    st.just(""),
)
_odd_address = st.one_of(
    st.lists(st.one_of(_good_octet, _odd_octet), min_size=4, max_size=4).map(".".join),
    st.lists(_good_octet, min_size=1, max_size=6).map(".".join),
    st.text("0123456789.", min_size=1, max_size=12),
)
_good_port = st.one_of(st.integers(0, 65535).map(str), st.just("--"))
_odd_port = st.sampled_from(["65535", "65536", "99999", "00080", "000065536", "-", "---", ""])
_odd_protocol = st.sampled_from(["tcp", "GRE", "TC", "ICMPX", ""])
_junk = st.text("0123456789.,:-TCPUDIMx \r", max_size=6)


def _sometimes(draw, odd, good):
    # One token in four is drawn from the odd strategy.
    return draw(odd) if draw(st.integers(0, 3)) == 0 else draw(good)


@st.composite
def mutated_lines(draw):
    tokens = [
        draw(_number), ",", draw(_number), ",",
        draw(st.integers(0, 30).map(str)), ":", draw(st.integers(0, 70).map(str)), ":",
        draw(st.integers(0, 70).map(str)), ",",
        draw(st.sampled_from(["TCP", "UDP", "ICMP"])), ",",
        ".".join(draw(_good_octet) for _ in range(4)), ":", draw(_good_port), ",",
        ".".join(draw(_good_octet) for _ in range(4)), ":", draw(_good_port), ",",
        draw(_number), ",", draw(_number),
    ]
    tokens[10] = _sometimes(draw, _odd_protocol, st.just(tokens[10]))
    for i in (12, 16):
        tokens[i] = _sometimes(draw, _odd_address, st.just(tokens[i]))
    for i in (14, 18):
        tokens[i] = _sometimes(draw, _odd_port, st.just(tokens[i]))
    # A token replaced outright; with an odd address before it, this is a
    # bad address with a later grammar fault.
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_junk)
    line = "".join(tokens)
    if draw(st.integers(0, 3)) == 0:
        line = line[: draw(st.integers(0, len(line)))]
    if draw(st.integers(0, 3)) == 0:
        line += draw(_junk)
    return line


@settings(max_examples=600, deadline=None)
@given(mutated_lines())
def test_parse_line_matches_the_reference(line):
    assert outcome(parse_line, line) == outcome(reference_parse_line, line)


def test_bad_address_before_a_later_fault_reports_the_fault():
    line = "639,1,14:03:33,TCP,5.5.5.999:3434,10.0.0.7:12346,1,x"
    assert outcome(parse_line, line) == outcome(reference_parse_line, line) == (len(line) - 1, "expected packet count")


def test_both_addresses_bad_reports_the_source():
    line = "639,1,14:03:33,TCP,5.5.5.999:3434,10.0.0.256:12346,1,2"
    assert outcome(parse_line, line) == (line.index("5.5.5.999"), "source address is not a dotted-quad IPv4 address")
    assert outcome(parse_line, line) == outcome(reference_parse_line, line)
