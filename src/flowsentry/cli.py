"""Command line entry points: analyze, follow, generate, baseline, compare,
bench. Exit codes: 0 ok, 1 bad configuration or usage, 2 I/O failure."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import chain
from typing import Any

from .baseline import baseline_scan, compare_reports
from .bench import measure_throughput
from .config import ConfigError, EngineConfig, load_config, merge_overrides, resolve_watchlist
from .engine import run_engine, run_follow
from .generator import PRESET_NAMES, gen_config_from_dict, generate, ground_truth_to_text, preset
from .ingest import ingest
from .pipeline import build_scan_ruleset
from .reporting import SinkSet
from .scanrules import ScanAlert, VulnAlert

OUTPUT_DIR_ENV = "FLOWSENTRY_OUTPUT_DIR"

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for I/O."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _engine_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="YAML config file; flags override it")
    common.add_argument("--timeout", type=float, dest="timeout", metavar="SECONDS", help="context timeout")
    common.add_argument("--policy", choices=["min_messages", "distinct_targets"], help="scan trigger policy")
    common.add_argument("--min-messages", type=int, dest="min_messages", metavar="N", help="trigger threshold")
    common.add_argument("--local-net", action="append", dest="local_nets", metavar="CIDR", help="local network (repeatable)")
    common.add_argument("--watchlist", metavar="FILE", help="vulnerable services watchlist")
    common.add_argument("--date", metavar="yyyy/mm/dd", help="date stamped onto traffic lines")
    common.add_argument("--tz", metavar="TZ", help="timezone label for traffic lines")
    common.add_argument("--out-dir", dest="out_dir", metavar="DIR", help="where output files land")
    common.add_argument("--tick-interval", type=float, dest="tick_interval", metavar="SECONDS", help="follow-mode expiry tick")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsentry", description="flow log correlation and port scan detection")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = _engine_options()

    p = sub.add_parser("analyze", parents=[common], help="batch-correlate one or more logs")
    p.add_argument("logs", nargs="+", metavar="LOG")
    p.add_argument("--no-console", action="store_true", help="do not echo alerts to stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("follow", parents=[common], help="tail a growing log and correlate live")
    p.add_argument("log", metavar="LOG")
    p.add_argument("--no-console", action="store_true", help="do not echo alerts to stdout")
    p.set_defaults(func=_cmd_follow)

    p = sub.add_parser("generate", parents=[common], help="write a synthetic log plus ground truth")
    p.add_argument("genconfig", metavar="CONFIG", help=f"generator YAML, or a preset name ({', '.join(PRESET_NAMES)})")
    p.add_argument("-o", "--output", metavar="FILE", help="log file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("baseline", parents=[common], help="run the adjacent-entry batch detector")
    p.add_argument("log", metavar="LOG")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("compare", parents=[common], help="diff engine and baseline findings on one log")
    p.add_argument("log", metavar="LOG")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", parents=[common], help="measure pipeline throughput")
    p.add_argument("log", metavar="LOG")
    p.add_argument("--repetitions", type=int, default=3, metavar="N", help="timing runs (median wins)")
    p.set_defaults(func=_cmd_bench)

    return parser


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    config = load_config(args.config) if getattr(args, "config", None) else EngineConfig()
    out_dir = getattr(args, "out_dir", None) or os.environ.get(OUTPUT_DIR_ENV)
    local = getattr(args, "local_nets", None)
    return merge_overrides(
        config,
        timeout_value=getattr(args, "timeout", None),
        trigger_policy=getattr(args, "policy", None),
        min_messages=getattr(args, "min_messages", None),
        local_nets=tuple(local) if local else None,
        watchlist_path=getattr(args, "watchlist", None),
        date=getattr(args, "date", None),
        tz=getattr(args, "tz", None),
        output_dir=out_dir,
        tick_interval=getattr(args, "tick_interval", None),
    )


def _output_sinks(output_dir: str, base: str | None, console: bool = False) -> SinkSet:
    # Batch names carry the input filename; follow mode uses fixed names.
    os.makedirs(output_dir, exist_ok=True)
    suffix = f"_{base}" if base is not None else ""
    paths = (os.path.join(output_dir, f"{name}{suffix}") for name in ("incoming", "outgoing", "portscans", "vulscans"))
    return SinkSet(*paths, console=console)


def _write_failure_status(sinks: SinkSet) -> int:
    """Warn on stderr and exit 2 when any output write failed."""
    if sinks.write_failures:
        sys.stderr.write(f"warning: {sinks.write_failures} output writes failed; output files are incomplete\n")
        return 2
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    watchlist, skipped = resolve_watchlist(config)
    if skipped:
        logger.warning("skipped %d malformed watchlist lines", skipped)
    ruleset = build_scan_ruleset(config, watchlist)
    for log in args.logs:
        os.stat(log)  # fail before any output file is created
    sinks = _output_sinks(config.output_dir, os.path.basename(args.logs[0]), console=not args.no_console)
    streams = [ingest(log, "batch") for log in args.logs]
    with sinks:
        # Several logs are one continuous stream: contexts carry across file
        # boundaries and only the very end flushes.
        report = run_engine(chain.from_iterable(records for records, _ in streams), ruleset, sinks=sinks)
    per_log = [stats for _, stats in streams]
    scans = sum(isinstance(a, ScanAlert) for a in report.alerts)
    vulns = sum(isinstance(a, VulnAlert) for a in report.alerts)
    print(
        f"{sum(s.lines_read for s in per_log)} lines read, {sum(s.records_parsed for s in per_log)} parsed, "
        f"{sum(s.parse_failures for s in per_log)} malformed"
    )
    print(f"{report.contexts_created} contexts created, {report.contexts_fired} fired")
    print(f"{scans} scan alerts -> {sinks.portscans_path}")
    print(f"{vulns} vulnerability alerts -> {sinks.vulscans_path}")
    return _write_failure_status(sinks)


def _cmd_follow(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    watchlist, _ = resolve_watchlist(config)
    ruleset = build_scan_ruleset(config, watchlist)
    os.stat(args.log)  # fail before any output file is created
    sinks = _output_sinks(config.output_dir, None, console=not args.no_console)
    with sinks:
        try:
            run_follow(args.log, ruleset, sinks=sinks, tick_interval=config.tick_interval)
        except KeyboardInterrupt:
            pass
    return _write_failure_status(sinks)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.genconfig in PRESET_NAMES:
        gen_config = preset(args.genconfig)
        stem = args.genconfig
    else:
        import yaml  # imported here so commands that parse no YAML skip it

        with open(args.genconfig, "r", encoding="utf-8") as handle:
            try:
                data = yaml.safe_load(handle)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{args.genconfig}: {exc}") from exc
        gen_config = gen_config_from_dict(data or {})
        stem = os.path.splitext(os.path.basename(args.genconfig))[0]
    out_path = args.output or f"{stem}.log"
    lines, truth = generate(gen_config)
    with open(out_path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    truth_path = out_path + ".truth"
    with open(truth_path, "w", encoding="utf-8") as handle:
        handle.write(ground_truth_to_text(truth))
    print(f"wrote {len(lines)} lines to {out_path}, {len(truth.scans)} scans in {truth_path}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    watchlist, _ = resolve_watchlist(config)
    base = os.path.basename(args.log)
    os.stat(args.log)  # fail before any output file is created
    sinks = _output_sinks(config.output_dir, base)
    records, stats = ingest(args.log, "batch")
    with sinks:
        report = baseline_scan(
            records,
            watchlist,
            config.networks(),
            config.resolved_date(),
            config.tz,
            sinks=sinks,
            progress=lambda n: print(f"{base} has {n} lines!"),
        )
    print(f"{report.portscans} Portscans detected and written to {sinks.portscans_path}")
    return _write_failure_status(sinks)


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    watchlist, _ = resolve_watchlist(config)
    record_iter, _stats = ingest(args.log, "batch")
    records = list(record_iter)
    engine_report = run_engine(records, build_scan_ruleset(config, watchlist))
    baseline_report = baseline_scan(records, watchlist, config.networks(), config.resolved_date(), config.tz)
    for line in compare_reports(engine_report.alerts, baseline_report).summary_lines():
        print(line)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.repetitions < 3:
        raise ConfigError("bench needs at least 3 repetitions")
    config = _resolve_config(args)
    result = measure_throughput(args.log, config, repetitions=args.repetitions)
    print(result.json_line())
    for line in result.summary_lines():
        print(line)
    return 0


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
