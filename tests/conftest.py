"""Shared test helpers: compact record and line factories, a failing sink
file, and a stdout whose reader has gone."""

from flowsentry.ingest import FlowRecord, Protocol

# A slow horizontal probe run: one remote host touching the same port on
# four local machines, each probe under fifteen minutes after the last.
PROBE_TIMES = ("14:03:33", "14:15:13", "14:28:32", "14:40:11")


def tod(text):
    h, m, s = text.split(":")
    return int(h) * 3600 + int(m) * 60 + int(s)


def make_record(
    time="14:03:33",
    protocol=Protocol.TCP,
    src="5.5.5.10",
    sport=3434,
    dst="10.0.0.7",
    dport=12346,
    raw1=639,
    raw2=1,
    raw8=1,
    packets=2,
):
    event_time = tod(time) if isinstance(time, str) else time
    return FlowRecord(raw1, raw2, event_time, protocol, src, sport, dst, dport, raw8, packets)


def make_line(
    time="14:03:33",
    protocol="TCP",
    src="5.5.5.10",
    sport="3434",
    dst="10.0.0.7",
    dport="12346",
    raw1="639",
    raw2="1",
    raw8="1",
    packets="2",
):
    return f"{raw1},{raw2},{time},{protocol},{src}:{sport},{dst}:{dport},{raw8},{packets}"


def slow_probe_records():
    return [make_record(time=t, dst=f"10.0.0.{i + 1}") for i, t in enumerate(PROBE_TIMES)]


def slow_probe_lines():
    return [make_line(time=t, dst=f"10.0.0.{i + 1}") for i, t in enumerate(PROBE_TIMES)]


class FailingFlushHandle:
    """A sink file whose writes buffer and whose flush fails, as when a
    full disk only shows once buffered output is pushed out. Like a real
    file, close() flushes first and is closed afterwards either way."""

    def __init__(self):
        self.buffered = []
        self.closed = False

    def write(self, text):
        self.buffered.append(text)

    def flush(self):
        raise OSError(28, "No space left on device")

    def close(self):
        try:
            self.flush()
        finally:
            self.closed = True


class ClosedPipe:
    """A stdout whose reader has gone, as under `| head -n 1`: every write
    and flush raises BrokenPipeError. Counts the attempts."""

    def __init__(self):
        self.writes = 0
        self.flushes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        self.flushes += 1
        raise BrokenPipeError(32, "Broken pipe")
