"""One measured process. run.py starts a fresh interpreter on this file for
every timed run, so each run pays its own imports and warms nothing for
the next.

    python3 child.py setup   SRC ARGV_JSON   analyze, timed from outside
    python3 child.py analyze SRC ARGV_JSON   analyze, timed from inside and
                                             bracketed by the speed probe
    python3 child.py trace   SRC SPEC_JSON   analyze, then the staged run

The last line of stdout is a JSON object with the result.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time


def _analyze(argv: list[str]) -> tuple[int, float, str]:
    from flowsentry.cli import run_command

    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = run_command(argv)
    return rc, time.perf_counter() - started, out.getvalue()


def speed_probe(rounds: int = 40_000) -> float:
    """Seconds for a fixed pure-Python job of the kind analyze does: format
    and split text, parse ints, hash tuple keys into a dict, sort. It never
    touches flowsentry, so only the machine's speed at that moment moves
    it. The collector is off, so analyze's heap does not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[tuple[str, str], int] = {}
        for i in range(rounds):
            line = (f"{i % 977},{i % 89},{i % 24:02d}:{i % 60:02d}:{i % 59:02d},TCP,"
                    f"10.{i % 7}.{i % 251}.{i % 97}:{1024 + i % 3001},192.0.2.{i % 200}:443")
            fields = line.split(",")
            key = (fields[4].rsplit(":", 1)[0], fields[5])
            table[key] = table.get(key, 0) + int(fields[0])
        sorted(table)
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def _peak_rss_kb() -> int:
    # VmHWM belongs to this address space alone. getrusage's ru_maxrss would
    # also carry the parent's resident set, inherited across fork and exec.
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    mode, src, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    if mode == "setup":
        from flowsentry.cli import run_command

        return run_command(spec)
    if mode == "analyze":
        before = speed_probe()
        rc, elapsed, stdout = _analyze(spec)
        # Read before the second probe, which would add its own heap to analyze's.
        peak_rss_kb = _peak_rss_kb()
        after = speed_probe()
        result = {"rc": rc, "elapsed_s": elapsed, "probe_before_s": before, "probe_after_s": after,
                  "stdout": stdout, "peak_rss_kb": peak_rss_kb}
    elif mode == "trace":
        from flowsentry.config import config_from_dict

        from layers import traced_run

        rc, elapsed, stdout = _analyze(spec["argv"])
        config = config_from_dict(spec["config"])
        os.makedirs(spec["traced_out"], exist_ok=True)
        metrics, spans = traced_run(config, spec["log"], spec["traced_out"], spec["run_id"])
        result = {"rc": rc, "elapsed_s": elapsed, "stdout": stdout, "metrics": metrics, "spans": spans}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
