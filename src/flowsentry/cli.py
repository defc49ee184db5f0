"""Command line entry points: analyze, follow, generate, baseline, compare,
bench. Exit codes: 0 ok, 1 bad configuration or usage, 2 I/O failure."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import logging
import math
import os
import stat
import sys
from typing import Any, Iterator

from .config import PRESET_NAMES, ConfigError, EngineConfig, load_config, merge_overrides, read_yaml, resolve_watchlist
from .engine import CorrelationEngine, run_engine, run_follow
from .ingest import FlowRecord, ingest
from .pipeline import build_scan_ruleset
from .reporting import SinkSet
from .scanrules import TRIGGER_MODES, ScanAlert, VulnAlert

# The generator, baseline and bench modules are imported inside the commands
# that use them, so analyze and follow start without compiling them.

OUTPUT_DIR_ENV = "FLOWSENTRY_OUTPUT_DIR"

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for I/O."""

    # The subcommand parsers by name, set by build_parser.
    commands: dict[str, argparse.ArgumentParser] = {}

    def parse_args(self, args: Any = None, namespace: Any = None) -> Any:
        # argparse hands the flags a subcommand does not take up to the top
        # parser; report them with the usage of the subcommand given them.
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.commands.get(namespace.command, self).error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _option_groups() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, argparse.ArgumentParser]:
    """The engine flags as three parent parsers, grouped by what reads them: inputs,
    detection and outputs. Each dest is the EngineConfig field the flag overrides."""
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", metavar="FILE", help="YAML config file; flags override it")
    inputs.add_argument("--local-net", action="append", dest="local_nets", metavar="CIDR", help="local network (repeatable)")
    inputs.add_argument("--watchlist", dest="watchlist_path", metavar="FILE", help="vulnerable services watchlist")
    detection = argparse.ArgumentParser(add_help=False)
    detection.add_argument("--timeout", type=float, dest="timeout_value", metavar="SECONDS", help="context timeout")
    detection.add_argument("--policy", choices=TRIGGER_MODES, dest="trigger_policy", help="scan trigger policy")
    detection.add_argument("--min-messages", type=int, metavar="N", help="trigger threshold")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--date", metavar="yyyy/mm/dd", help="date stamped onto traffic lines")
    outputs.add_argument("--tz", metavar="TZ", help="timezone label for traffic lines")
    outputs.add_argument("--out-dir", dest="output_dir", metavar="DIR", help="where output files land")
    return inputs, detection, outputs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsentry", description="flow log correlation and port scan detection")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    inputs, detection, outputs = _option_groups()

    p = sub.add_parser("analyze", parents=[inputs, detection, outputs], help="batch-correlate one or more logs")
    p.add_argument("logs", nargs="+", metavar="LOG")
    p.add_argument("--no-console", action="store_true", help="do not echo alerts to stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("follow", parents=[inputs, detection, outputs], help="tail a growing log and correlate live")
    p.add_argument("log", metavar="LOG")
    p.add_argument("--no-console", action="store_true", help="do not echo alerts to stdout")
    p.add_argument("--tick-interval", type=float, metavar="SECONDS", help="expiry tick when no lines arrive")
    p.set_defaults(func=_cmd_follow)

    p = sub.add_parser("generate", help="write a synthetic log plus ground truth")
    p.add_argument("genconfig", metavar="CONFIG", help=f"generator YAML, or a preset name ({', '.join(PRESET_NAMES)})")
    p.add_argument("-o", "--output", metavar="FILE", help="log file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("baseline", parents=[inputs, outputs], help="run the adjacent-entry batch detector")
    p.add_argument("log", metavar="LOG")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("compare", parents=[inputs, detection], help="diff engine and baseline findings on one log")
    p.add_argument("log", metavar="LOG")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", parents=[inputs, detection], help="measure pipeline throughput")
    p.add_argument("log", metavar="LOG")
    p.add_argument("--repetitions", type=int, default=3, metavar="N", help="timing runs (median wins)")
    p.set_defaults(func=_cmd_bench)

    parser.commands = sub.choices
    return parser


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    """Flags beat FLOWSENTRY_OUTPUT_DIR (output_dir only), which beats the config file, then defaults."""
    config = load_config(args.config) if args.config else EngineConfig()
    fields = {field.name for field in dataclasses.fields(EngineConfig)}
    overrides = {name: value for name, value in vars(args).items() if name in fields}
    if overrides.get("local_nets"):
        overrides["local_nets"] = tuple(overrides["local_nets"])
    if "output_dir" in overrides:
        overrides["output_dir"] = overrides["output_dir"] or os.environ.get(OUTPUT_DIR_ENV)
    return merge_overrides(config, **overrides)


def _output_sinks(output_dir: str, base: str | None, console: bool = False) -> SinkSet:
    # Batch names carry the input filename; follow mode uses fixed names.
    os.makedirs(output_dir, exist_ok=True)
    suffix = f"_{base}" if base is not None else ""
    paths = (os.path.join(output_dir, f"{name}{suffix}") for name in ("incoming", "outgoing", "portscans", "vulscans"))
    return SinkSet(*paths, console=console)


def _check_log(path: str) -> int:
    """Fail before any output file is created: os.stat() raises for a missing
    log, but a directory passes it and open() refuses it only later. Returns
    the log's st_mode."""
    mode = os.stat(path).st_mode
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return mode


def _print_lines(*lines: str) -> int:
    """Print lines and flush stdout; the number of failed output writes, 0 or 1. A failed
    write, as to a reader gone under `| head -n 1`, is counted instead of ending the run."""
    try:
        print(*lines, sep="\n", flush=True)
    except OSError:
        return 1
    return 0


def _write_failure_status(failures: int) -> int:
    """Warn on stderr and exit 2 when any output write failed."""
    if failures:
        sys.stderr.write(f"warning: {failures} output writes failed; an output file or stdout is incomplete\n")
        return 2
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    watchlist, skipped = resolve_watchlist(config)
    if skipped:
        logger.warning("skipped %d malformed watchlist lines", skipped)
    ruleset = build_scan_ruleset(config, watchlist)
    for log in args.logs:
        _check_log(log)
    sinks = _output_sinks(config.output_dir, os.path.basename(args.logs[0]), console=not args.no_console)
    # Several logs are one continuous stream: contexts carry across file
    # boundaries and only the very end flushes.
    records, stats = ingest(*args.logs)
    with sinks:
        report = run_engine(records, ruleset, sinks=sinks)
    failures = _print_lines(
        f"{stats.lines_read} lines read, {stats.records_parsed} parsed, {stats.parse_failures} malformed",
        f"{report.contexts_created} contexts created, {report.contexts_fired} fired",
        f"{report.alert_counts[ScanAlert]} scan alerts -> {sinks.portscans_path}",
        f"{report.alert_counts[VulnAlert]} vulnerability alerts -> {sinks.vulscans_path}",
    )
    return _write_failure_status(sinks.write_failures + failures)


def _cmd_follow(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if not math.isfinite(config.timeout_value):  # follow never calls finish()
        raise ConfigError("follow needs a finite timeout_value: no context would ever expire")
    watchlist, _ = resolve_watchlist(config)
    ruleset = build_scan_ruleset(config, watchlist)
    if not stat.S_ISREG(_check_log(args.log)):
        # A pipe or device has no size to tail by: it reads as truncated.
        raise OSError(f"follow needs a regular file, and {args.log} is not one")
    sinks = _output_sinks(config.output_dir, None, console=not args.no_console)
    with sinks:
        try:
            run_follow(args.log, ruleset, sinks=sinks, tick_interval=config.tick_interval)
        except KeyboardInterrupt:
            pass
    return _write_failure_status(sinks.write_failures)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generator import gen_config_from_dict, generate, ground_truth_to_text, preset

    if args.genconfig in PRESET_NAMES:
        gen_config = preset(args.genconfig)
        stem = args.genconfig
    else:
        gen_config = gen_config_from_dict(read_yaml(args.genconfig) or {})
        stem = os.path.splitext(os.path.basename(args.genconfig))[0]
    out_path = args.output or f"{stem}.log"
    lines, truth = generate(gen_config)
    with open(out_path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    truth_path = out_path + ".truth"
    with open(truth_path, "w", encoding="utf-8") as handle:
        handle.write(ground_truth_to_text(truth))
    return _write_failure_status(
        _print_lines(f"wrote {len(lines)} lines to {out_path}, {len(truth.scans)} scans in {truth_path}")
    )


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .baseline import baseline_scan

    config = _resolve_config(args)
    watchlist, _ = resolve_watchlist(config)
    base = os.path.basename(args.log)
    _check_log(args.log)
    sinks = _output_sinks(config.output_dir, base)
    records, _ = ingest(args.log)
    failed_progress = 0

    def progress(n: int) -> None:
        nonlocal failed_progress  # no progress line after the first that failed
        if not failed_progress:
            failed_progress = _print_lines(f"{base} has {n} lines!")

    with sinks:
        report = baseline_scan(
            records, watchlist, config.networks(), config.resolved_date(), config.tz, sinks=sinks, progress=progress
        )
    failures = _print_lines(f"{report.portscans} Portscans detected and written to {sinks.portscans_path}")
    return _write_failure_status(sinks.write_failures + failed_progress + failures)


def _cmd_compare(args: argparse.Namespace) -> int:
    from .baseline import baseline_scan, compare_reports

    config = _resolve_config(args)
    watchlist, _ = resolve_watchlist(config)
    records, _ = ingest(args.log)
    engine = CorrelationEngine(build_scan_ruleset(config, watchlist))

    def engine_first() -> Iterator[FlowRecord]:
        # One pass feeds both detectors, so the log is never held whole.
        for record in records:
            engine.process(record)
            yield record

    baseline_report = baseline_scan(engine_first(), watchlist, config.networks(), config.resolved_date(), config.tz)
    engine_report = engine.finish()
    return _write_failure_status(_print_lines(*compare_reports(engine_report.alerts, baseline_report).summary_lines()))


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import measure_throughput

    if args.repetitions < 3:
        raise ConfigError("bench needs at least 3 repetitions")
    config = _resolve_config(args)
    result = measure_throughput(args.log, config, repetitions=args.repetitions)
    return _write_failure_status(_print_lines(result.json_line(), *result.summary_lines()))


def run_command(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run_command())


if __name__ == "__main__":
    main()
