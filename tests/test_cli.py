"""Command line behavior: exit codes, output files, and option precedence."""

import argparse
import json
import os
import subprocess
import sys

import pytest
import yaml

from flowsentry import cli
from flowsentry.cli import OUTPUT_DIR_ENV, build_parser, run_command
from flowsentry.engine import CorrelationEngine
from flowsentry.generator import GenConfig, ScanSpec, generate
from flowsentry.reporting import SinkSet
from flowsentry.scanrules import ScanAlert, ScanKind, VulnAlert

from conftest import ClosedPipe, FailingFlushHandle, make_line, slow_probe_lines


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def test_importing_the_cli_leaves_yaml_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, flowsentry.cli; sys.exit('yaml' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0


def test_analyze_leaves_generator_baseline_and_bench_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    log = tmp_path / "flows.log"
    log.write_text("\n".join(slow_probe_lines()) + "\n", encoding="utf-8")
    argv = ["analyze", str(log), "--out-dir", str(tmp_path / "out"), "--no-console"]
    code = (
        "import contextlib, io, json, sys, flowsentry.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = flowsentry.cli.run_command({argv!r})\n"
        "loaded = [m for m in ('generator', 'baseline', 'bench') if f'flowsentry.{m}' in sys.modules]\n"
        "from flowsentry import baseline_scan, generate, measure_throughput\n"
        "print(json.dumps([rc, loaded, [f.__module__ for f in (baseline_scan, generate, measure_throughput)]]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, [], ["flowsentry.baseline", "flowsentry.generator", "flowsentry.bench"]]


def corpus_config(adjacency="interleaved"):
    return GenConfig(
        duration=120,
        background_rate=0.5,
        seed=5,
        scans=(ScanSpec(ScanKind.HORIZONTAL, "5.5.5.10", 12346, probes=3, inter_probe_gap=5, start_time=30, adjacency=adjacency),),
    )


def write_corpus(tmp_path, name="flows.log", adjacency="interleaved"):
    lines, _ = generate(corpus_config(adjacency))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def analyze_args(log_path, out_dir, *extra):
    return ["analyze", str(log_path), "--out-dir", str(out_dir), "--date", "2004/11/05", *extra]


def test_analyze_detects_and_writes_all_outputs(tmp_path, capsys):
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--timeout", "900")) == 0
    portscans = (out / "portscans_flows.log").read_text()
    assert portscans.startswith("Horizontal scan:\n")
    assert portscans.count(" to ") == 3
    assert (out / "incoming_flows.log").read_text().count("FWIN,") > 0
    assert (out / "vulscans_flows.log").exists()
    assert (out / "outgoing_flows.log").exists()
    stdout = capsys.readouterr().out
    # Alerts echo to the console alongside the run summary.
    assert "Horizontal scan:" in stdout
    assert "scan alerts" in stdout


def test_analyze_no_console_keeps_alerts_out_of_stdout(tmp_path, capsys):
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--timeout", "900", "--no-console")) == 0
    assert "Horizontal scan:" not in capsys.readouterr().out


def test_analyze_short_timeout_sees_nothing(tmp_path):
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--timeout", "2")) == 0
    assert (out / "portscans_flows.log").read_text() == ""


def test_analyze_treats_multiple_logs_as_one_stream(tmp_path):
    probes = slow_probe_lines()
    first = tmp_path / "part1.log"
    second = tmp_path / "part2.log"
    first.write_text("\n".join(probes[:2]) + "\n")
    second.write_text("\n".join(probes[2:]) + "\n")
    out = tmp_path / "out"
    args = ["analyze", str(first), str(second), "--out-dir", str(out), "--date", "2004/11/05", "--timeout", "900"]
    assert run_command(args) == 0
    portscans = (out / "portscans_part1.log").read_text()
    # One alert spanning all four probes, not one alert per file.
    assert portscans.count("Horizontal scan:") == 1
    assert portscans.count(" to ") == 4


def test_analyze_is_byte_deterministic(tmp_path):
    log = write_corpus(tmp_path)
    for out in ("first", "second"):
        assert run_command(analyze_args(log, tmp_path / out, "--timeout", "900", "--no-console")) == 0
    for name in ("incoming", "outgoing", "portscans", "vulscans"):
        first = (tmp_path / "first" / f"{name}_flows.log").read_bytes()
        second = (tmp_path / "second" / f"{name}_flows.log").read_bytes()
        assert first == second


class FailingHandle:
    """A sink file whose writes all fail, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass

    def close(self):
        pass


def test_analyze_reports_sink_write_failures_and_exits_2(tmp_path, capsys, monkeypatch):
    real_open = SinkSet.open

    def open_with_failing_portscans(self):
        real_open(self)
        self._handles["portscans"].close()
        self._handles["portscans"] = FailingHandle()
        return self

    monkeypatch.setattr(SinkSet, "open", open_with_failing_portscans)
    log = write_corpus(tmp_path)
    assert run_command(analyze_args(log, tmp_path / "out", "--timeout", "900", "--no-console")) == 2
    captured = capsys.readouterr()
    assert "warning: 1 output writes failed" in captured.err
    # The summary still reports the whole run.
    assert "lines read" in captured.out
    assert "1 scan alerts" in captured.out


def test_baseline_reports_sink_write_failures_and_exits_2(tmp_path, capsys, monkeypatch):
    real_open = SinkSet.open

    def open_with_failing_portscans(self):
        real_open(self)
        self._handles["portscans"].close()
        self._handles["portscans"] = FailingHandle()
        return self

    monkeypatch.setattr(SinkSet, "open", open_with_failing_portscans)
    log = write_corpus(tmp_path, adjacency="adjacent")
    assert run_command(["baseline", str(log), "--out-dir", str(tmp_path / "out"), "--date", "2004/11/05"]) == 2
    captured = capsys.readouterr()
    assert "warning: 4 output writes failed" in captured.err
    # The summary still reports the whole run.
    assert "1 Portscans detected" in captured.out


def test_analyze_into_a_closed_pipe_writes_every_file_and_exits_2(tmp_path, capsys, monkeypatch):
    # Two scans, the first of which fires while traffic is still coming in.
    lines = [
        make_line(time="14:00:00", dst="10.0.0.1"),
        make_line(time="14:00:01", dst="10.0.0.2"),
        make_line(time="14:05:00", src="6.6.6.6", dst="10.0.0.1", dport="80"),
        make_line(time="14:05:01", src="6.6.6.6", dst="10.0.0.1", dport="81"),
    ]
    log = tmp_path / "flows.log"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_command(analyze_args(log, tmp_path / "quiet", "--timeout", "60", "--no-console")) == 0
    capsys.readouterr()

    # As in `flowsentry analyze LOG | head -n 1`: the reader has gone.
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", ClosedPipe())
        assert run_command(analyze_args(log, tmp_path / "piped", "--timeout", "60")) == 2
    # The first alert and the summary fail; neither ends the run.
    assert capsys.readouterr().err == "warning: 2 output writes failed; an output file or stdout is incomplete\n"
    for name in ("incoming", "outgoing", "portscans", "vulscans"):
        quiet = (tmp_path / "quiet" / f"{name}_{log.name}").read_bytes()
        assert (tmp_path / "piped" / f"{name}_{log.name}").read_bytes() == quiet
    portscans = (tmp_path / "quiet" / f"portscans_{log.name}").read_text(encoding="utf-8")
    assert portscans.startswith("Horizontal scan:\n") and "Vertical scan:\n" in portscans


def test_analyze_counts_a_summary_into_a_closed_pipe_as_a_failed_write(tmp_path, capsys, monkeypatch):
    log = write_corpus(tmp_path)
    assert run_command(analyze_args(log, tmp_path / "quiet", "--timeout", "900", "--no-console")) == 0
    capsys.readouterr()
    stdout = ClosedPipe()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert run_command(analyze_args(log, tmp_path / "piped", "--timeout", "900", "--no-console")) == 2
    # The summary is the only stdout write, and its BrokenPipeError is
    # counted and warned about, not reported as an error.
    assert stdout.writes == 1
    assert capsys.readouterr().err == "warning: 1 output writes failed; an output file or stdout is incomplete\n"
    for name in ("incoming", "outgoing", "portscans", "vulscans"):
        quiet = (tmp_path / "quiet" / f"{name}_{log.name}").read_bytes()
        assert (tmp_path / "piped" / f"{name}_{log.name}").read_bytes() == quiet


def test_baseline_into_a_closed_pipe_writes_every_file_and_exits_2(tmp_path, capsys, monkeypatch):
    from flowsentry import baseline

    monkeypatch.setattr(baseline, "PROGRESS_EVERY", 2)
    log = write_corpus(tmp_path, adjacency="adjacent")
    args = ["baseline", str(log), "--date", "2004/11/05", "--out-dir"]
    assert run_command(args + [str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().out.count(" lines!\n") > 2
    stdout = ClosedPipe()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert run_command(args + [str(tmp_path / "piped")]) == 2
    # The first progress line fails and ends progress; the summary fails too.
    assert stdout.writes == 2
    assert capsys.readouterr().err == "warning: 2 output writes failed; an output file or stdout is incomplete\n"
    for name in ("incoming", "outgoing", "portscans", "vulscans"):
        quiet = (tmp_path / "quiet" / f"{name}_{log.name}").read_bytes()
        assert (tmp_path / "piped" / f"{name}_{log.name}").read_bytes() == quiet
    assert (tmp_path / "quiet" / f"portscans_{log.name}").read_bytes()


def test_analyze_reports_a_failed_final_flush_and_still_prints_the_summary(tmp_path, capsys, monkeypatch):
    real_open = SinkSet.open
    handles = []

    def open_with_failing_flush(self):
        real_open(self)
        self._handles["portscans"].close()
        self._handles["portscans"] = FailingFlushHandle()
        handles.extend(self._handles.values())
        return self

    monkeypatch.setattr(SinkSet, "open", open_with_failing_flush)
    log = write_corpus(tmp_path)
    assert run_command(analyze_args(log, tmp_path / "out", "--timeout", "900", "--no-console")) == 2
    captured = capsys.readouterr()
    assert "warning: 1 output writes failed" in captured.err
    assert "1 scan alerts ->" in captured.out
    assert len(handles) == 4
    assert all(handle.closed for handle in handles)


def test_analyze_keeps_no_alerts_and_summarises_the_counts(tmp_path, capsys, monkeypatch):
    reports = []
    real_run_engine = cli.run_engine

    def recording_run_engine(*args, **kwargs):
        reports.append(real_run_engine(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_engine", recording_run_engine)
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--timeout", "900", "--no-console")) == 0
    (report,) = reports
    assert report.alerts == []
    scans = (out / "portscans_flows.log").read_text(encoding="utf-8").count(" scan:\n")
    vulns = (out / "vulscans_flows.log").read_text(encoding="utf-8").count("Potential Vulnerability")
    assert scans > 0 and vulns > 0
    assert dict(report.alert_counts) == {ScanAlert: scans, VulnAlert: vulns}
    summary = capsys.readouterr().out
    assert f"\n{scans} scan alerts -> " in summary
    assert f"\n{vulns} vulnerability alerts -> " in summary


def test_follow_reports_sink_write_failures_and_exits_2(tmp_path, capsys, monkeypatch):
    real_open = SinkSet.open
    real_run_follow = cli.run_follow

    def open_with_failing_incoming(self):
        real_open(self)
        self._handles["incoming"].close()
        self._handles["incoming"] = FailingHandle()
        return self

    def run_follow_once(*args, **kwargs):
        # One pass of the loop reads the whole log, then it stops.
        polls = []

        def stop():
            polls.append(None)
            return len(polls) > 1

        return real_run_follow(*args, stop=stop, **kwargs)

    monkeypatch.setattr(SinkSet, "open", open_with_failing_incoming)
    monkeypatch.setattr(cli, "run_follow", run_follow_once)
    log = write_corpus(tmp_path)
    assert run_command(["follow", str(log), "--out-dir", str(tmp_path / "out"), "--no-console"]) == 2
    assert "output writes failed" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    args = ["analyze", str(tmp_path / "nope.log"), "--out-dir", str(tmp_path)]
    assert run_command(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "baseline", "follow"])
def test_a_directory_as_log_exits_2_and_leaves_the_output_files_alone(tmp_path, capsys, command):
    log = tmp_path / "flows.log"
    log.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    suffix = "" if command == "follow" else "_flows.log"
    paths = [out / f"{name}{suffix}" for name in ("incoming", "outgoing", "portscans", "vulscans")]
    for path in paths:
        path.write_text("keep\n", encoding="utf-8")
    assert run_command([command, str(log), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [path.read_text(encoding="utf-8") for path in paths] == ["keep\n"] * 4


@pytest.mark.parametrize("source", ["flag", "config"])
def test_follow_refuses_an_infinite_timeout(tmp_path, capsys, monkeypatch, source):
    calls = []
    monkeypatch.setattr(cli, "run_follow", lambda *args, **kwargs: calls.append(args))
    log = write_corpus(tmp_path)
    config = tmp_path / "engine.yaml"
    config.write_text("timeout_value: .inf\n", encoding="utf-8")
    timeout = ["--timeout", "inf"] if source == "flag" else ["--config", str(config)]
    assert run_command(["follow", str(log), "--out-dir", str(tmp_path / "out"), "--no-console", *timeout]) == 1
    assert "timeout_value" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_follow_refuses_a_fifo_and_leaves_the_output_files_alone(tmp_path, capsys, monkeypatch):
    # A recorder in place of run_follow: a follow that started would wait on
    # the pipe for ever.
    calls = []
    monkeypatch.setattr(cli, "run_follow", lambda *args, **kwargs: calls.append(args))
    log = tmp_path / "flows.log"
    os.mkfifo(log)
    out = tmp_path / "out"
    out.mkdir()
    paths = [out / name for name in ("incoming", "outgoing", "portscans", "vulscans")]
    for path in paths:
        path.write_text("keep\n", encoding="utf-8")
    assert run_command(["follow", str(log), "--out-dir", str(out), "--no-console"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(log) in err
    assert calls == []
    assert [path.read_text(encoding="utf-8") for path in paths] == ["keep\n"] * 4


def test_unknown_flag_exits_1(capsys):
    assert run_command(["analyze", "x.log", "--frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    assert run_command([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("analyze", "follow", "generate", "baseline", "compare", "bench"):
        assert command in out


def test_follow_subcommand_parses():
    args = build_parser().parse_args(["follow", "live.log", "--tick-interval", "0.5"])
    assert args.command == "follow"
    assert args.tick_interval == 0.5


def test_config_file_applies_and_flags_override(tmp_path):
    log = write_corpus(tmp_path)
    config = tmp_path / "engine.yaml"
    config.write_text(yaml.safe_dump({"timeout_value": 2.0, "date": "2004/11/05"}))
    out_file = tmp_path / "file-wins"
    assert run_command(["analyze", str(log), "--config", str(config), "--out-dir", str(out_file), "--no-console"]) == 0
    assert (out_file / "portscans_flows.log").read_text() == ""
    out_flag = tmp_path / "flag-wins"
    assert (
        run_command(
            ["analyze", str(log), "--config", str(config), "--timeout", "900", "--out-dir", str(out_flag), "--no-console"]
        )
        == 0
    )
    assert "Horizontal scan:" in (out_flag / "portscans_flows.log").read_text()


def test_bad_config_file_exits_1(tmp_path, capsys):
    log = write_corpus(tmp_path)
    config = tmp_path / "engine.yaml"
    config.write_text("timeout_value: [unclosed\n")
    assert run_command(["analyze", str(log), "--config", str(config)]) == 1
    config.write_text(yaml.safe_dump({"no_such_knob": 1}))
    assert run_command(["analyze", str(log), "--config", str(config)]) == 1
    # PyYAML lets an integer longer than int() converts through as a ValueError.
    config.write_text("min_messages: " + "9" * 5000 + "\n")
    capsys.readouterr()
    assert run_command(["analyze", str(log), "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: ")


def test_a_date_that_is_no_day_of_the_calendar_exits_1(tmp_path, capsys):
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(["analyze", str(log), "--out-dir", str(out), "--date", "2026/13/45", "--no-console"]) == 1
    assert capsys.readouterr().err == "error: date must be a day of the calendar, not '2026/13/45'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "local_nets", [5, "10.0.0.0/8", [5], {"a": "10.0.0.0/8"}], ids=["int", "string", "int-list", "mapping"]
)
def test_badly_shaped_local_nets_in_a_config_file_exit_1(tmp_path, capsys, local_nets):
    log = write_corpus(tmp_path)
    config = tmp_path / "engine.yaml"
    config.write_text(yaml.safe_dump({"local_nets": local_nets}), encoding="utf-8")
    assert run_command(["analyze", str(log), "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: local_nets must be a list of strings\n"


@pytest.mark.parametrize(
    "command, flag", [("analyze", "--timeout"), ("follow", "--tick-interval")], ids=["--timeout", "--tick-interval"]
)
def test_nan_durations_exit_1(tmp_path, capsys, command, flag):
    log = write_corpus(tmp_path)
    assert run_command([command, str(log), "--out-dir", str(tmp_path / "out"), flag, "nan", "--no-console"]) == 1
    assert "must be positive" in capsys.readouterr().err
    # An infinite duration is allowed: nothing expires before the end.
    if command == "analyze":
        assert run_command(analyze_args(log, tmp_path / "out", flag, "inf", "--no-console")) == 0
    else:
        # A real follow run never stops, so the config it would run with is checked.
        args = build_parser().parse_args([command, str(log), flag, "inf"])
        assert cli._resolve_config(args).tick_interval == float("inf")


@pytest.mark.parametrize("net", ["::/0", "::ffff:10.0.0.0/104"])
def test_ipv6_local_net_exits_1(tmp_path, capsys, net):
    log = write_corpus(tmp_path)
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--local-net", net, "--no-console")) == 1
    assert "is not IPv4" in capsys.readouterr().err
    assert not out.exists()


def test_output_dir_env_var_and_flag_precedence(tmp_path, monkeypatch):
    log = write_corpus(tmp_path)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert run_command(["analyze", str(log), "--timeout", "900", "--date", "2004/11/05", "--no-console"]) == 0
    assert (env_dir / "portscans_flows.log").exists()
    flag_dir = tmp_path / "from-flag"
    assert run_command(analyze_args(log, flag_dir, "--timeout", "900", "--no-console")) == 0
    assert (flag_dir / "portscans_flows.log").exists()


def test_custom_watchlist_flag(tmp_path):
    log = tmp_path / "flows.log"
    log.write_text(make_line(dport="8080") + "\n")
    watch = tmp_path / "watch.txt"
    watch.write_text("HttpAlt,8080,in\n")
    out = tmp_path / "out"
    assert run_command(analyze_args(log, out, "--watchlist", str(watch), "--no-console")) == 0
    assert "Potential Vulnerability: HttpAlt." in (out / "vulscans_flows.log").read_text()


def test_generate_from_yaml_writes_log_and_truth(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    genconfig = tmp_path / "gen.yaml"
    genconfig.write_text(
        yaml.safe_dump(
            {
                "duration": 60,
                "background_rate": 0.5,
                "seed": 3,
                "scans": [
                    {
                        "kind": "vertical",
                        "scanner_ip": "6.6.6.6",
                        "target": "10.0.0.7",
                        "probes": 3,
                        "inter_probe_gap": 2,
                        "start_time": 10,
                    }
                ],
            }
        )
    )
    assert run_command(["generate", str(genconfig), "-o", "made.log"]) == 0
    assert (tmp_path / "made.log").exists()
    truth_text = (tmp_path / "made.log.truth").read_text()
    assert truth_text.splitlines()[1].startswith("vertical,6.6.6.6,10.0.0.7,3,")
    assert "wrote" in capsys.readouterr().out


def test_generate_preset_by_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(["generate", "netbus-slow"]) == 0
    assert (tmp_path / "netbus-slow.log").exists()
    assert (tmp_path / "netbus-slow.log.truth").exists()


def test_generate_bad_yaml_exits_1(tmp_path):
    bad = tmp_path / "gen.yaml"
    bad.write_text("scans: [unclosed\n")
    assert run_command(["generate", str(bad)]) == 1
    bad.write_text(yaml.safe_dump({"duration": 60, "background_rate": 0.5, "rate": 1}))
    assert run_command(["generate", str(bad)]) == 1
    bad.write_text("duration: " + "9" * 5000 + "\n")
    assert run_command(["generate", str(bad)]) == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"scans": [5]}, "scans must be a list of mappings"),
        ({"scans": 5}, "scans must be a list of mappings"),
        ({"scans": {"kind": "horizontal"}}, "scans must be a list of mappings"),
        ({"local_nets": 5}, "local_nets must be a list of strings"),
    ],
    ids=["int-scan", "int-scans", "mapping-scans", "int-local-nets"],
)
def test_generate_badly_shaped_yaml_values_exit_1(tmp_path, capsys, extra, message):
    bad = tmp_path / "gen.yaml"
    bad.write_text(yaml.safe_dump({"duration": 60, "background_rate": 0.5, **extra}), encoding="utf-8")
    assert run_command(["generate", str(bad), "-o", str(tmp_path / "out.log")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.log").exists()


def test_generate_missing_config_exits_2(tmp_path):
    assert run_command(["generate", str(tmp_path / "nope.yaml")]) == 2


def test_baseline_counts_by_adjacency(tmp_path, capsys):
    adjacent = write_corpus(tmp_path, "adjacent.log", adjacency="adjacent")
    out = tmp_path / "out"
    assert run_command(["baseline", str(adjacent), "--out-dir", str(out), "--date", "2004/11/05"]) == 0
    assert "1 Portscans detected" in capsys.readouterr().out
    assert "Potential horizontal portscan from 5.5.5.10" in (out / "portscans_adjacent.log").read_text()

    interleaved = write_corpus(tmp_path, "spread.log", adjacency="interleaved")
    assert run_command(["baseline", str(interleaved), "--out-dir", str(out), "--date", "2004/11/05"]) == 0
    assert "0 Portscans detected" in capsys.readouterr().out


def test_compare_flags_interleaved_scans_as_engine_only(tmp_path, capsys):
    log = write_corpus(tmp_path)
    assert run_command(["compare", str(log), "--timeout", "900"]) == 0
    out = capsys.readouterr().out
    assert "engine only: 1" in out
    assert "5.5.5.10 (non-adjacent)" in out


def test_compare_reads_its_log_once_feeding_the_engine_each_record_first(tmp_path, monkeypatch, capsys):
    # Each record is processed before the next one is pulled: the log is
    # never held whole, and a FIFO can be compared.
    pulled = []
    processed = []
    real_ingest = cli.ingest
    real_process = CorrelationEngine.process

    def counting_ingest(*sources):
        records, stats = real_ingest(*sources)

        def counted():
            for record in records:
                pulled.append(record)
                yield record

        return counted(), stats

    def recording_process(engine, record):
        processed.append(len(pulled))
        real_process(engine, record)

    monkeypatch.setattr(cli, "ingest", counting_ingest)
    monkeypatch.setattr(CorrelationEngine, "process", recording_process)
    assert run_command(["compare", str(write_corpus(tmp_path)), "--timeout", "900"]) == 0
    assert "engine only: 1" in capsys.readouterr().out
    assert len(pulled) > 1
    assert processed == list(range(1, len(pulled) + 1))


def test_bench_prints_json_and_summary(tmp_path, capsys):
    log = write_corpus(tmp_path)
    assert run_command(["bench", str(log), "--repetitions", "3", "--timeout", "60"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out.splitlines()[0])
    assert data["repetitions"] == 3
    assert "throughput:" in out


def test_bench_too_few_repetitions_exits_1(tmp_path, capsys):
    log = write_corpus(tmp_path)
    assert run_command(["bench", str(log), "--repetitions", "2"]) == 1
    assert "repetitions" in capsys.readouterr().err


INPUTS = {"--config", "--local-net", "--watchlist"}
DETECTION = {"--timeout", "--policy", "--min-messages"}
OUTPUTS = {"--date", "--tz", "--out-dir"}

COMMAND_OPTIONS = {
    "analyze": INPUTS | DETECTION | OUTPUTS | {"--no-console"},
    "follow": INPUTS | DETECTION | OUTPUTS | {"--no-console", "--tick-interval"},
    "baseline": INPUTS | OUTPUTS,
    "compare": INPUTS | DETECTION,
    "bench": INPUTS | DETECTION | {"--repetitions"},
    "generate": {"-o", "--output"},
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_each_command_takes_only_the_flags_it_reads(command):
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parser = subcommands.choices[command]
    options = {s for action in parser._actions for s in action.option_strings}
    assert options == COMMAND_OPTIONS[command] | {"-h", "--help"}


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "netbus-slow", "--timeout", "5"],
        ["compare", "flows.log", "--out-dir", "out"],
        ["baseline", "flows.log", "--out-dir", "out", "--policy", "distinct_targets"],
        ["analyze", "flows.log", "--out-dir", "out", "--tick-interval", "0.5"],
        ["bench", "flows.log", "--date", "2004/11/05"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    assert run_command(argv) == 1
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["flows.log"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "netbus-slow", "--timeout", "5"],
        ["compare", "flows.log", "--out-dir", "out"],
        ["baseline", "flows.log", "--out-dir", "out", "--policy", "distinct_targets"],
        ["analyze", "flows.log", "--out-dir", "out", "--tick-interval", "0.5"],
        ["bench", "flows.log", "--date", "2004/11/05"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_flag_the_command_does_not_read_is_reported_with_its_usage(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: flowsentry {argv[0]} [-h]")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def test_each_flag_sets_the_config_field_it_names():
    argv = ["follow", "live.log", "--local-net", "192.168.0.0/16", "--local-net", "10.0.0.0/8", "--watchlist", "w.txt",
            "--timeout", "60", "--policy", "distinct_targets", "--min-messages", "3", "--date", "2004/11/05",
            "--tz", "+1:00", "--out-dir", "o", "--tick-interval", "0.5"]
    config = cli._resolve_config(build_parser().parse_args(argv))
    assert config.as_dict() == {
        "timeout_value": 60.0, "trigger_policy": "distinct_targets", "min_messages": 3,
        "local_nets": ["192.168.0.0/16", "10.0.0.0/8"], "watchlist_path": "w.txt", "date": "2004/11/05",
        "tz": "+1:00", "output_dir": "o", "tick_interval": 0.5,
    }


@pytest.mark.parametrize("command", ["analyze", "follow", "baseline", "compare", "bench"])
def test_output_dir_precedence_and_a_config_file_of_every_key(tmp_path, monkeypatch, command):
    config = tmp_path / "engine.yaml"
    every_key = {"timeout_value": 60.0, "trigger_policy": "distinct_targets", "min_messages": 3,
                 "local_nets": ["192.168.0.0/16"], "watchlist_path": "w.txt", "date": "2004/11/05",
                 "tz": "+1:00", "output_dir": "from-file", "tick_interval": 0.5}
    config.write_text(yaml.safe_dump(every_key), encoding="utf-8")
    argv = [command, "flows.log", "--config", str(config)]
    assert cli._resolve_config(build_parser().parse_args(argv)).as_dict() == every_key
    monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
    # The variable stands in for --out-dir, so only commands that write files read it.
    want = "from-env" if command in ("analyze", "follow", "baseline") else "from-file"
    assert cli._resolve_config(build_parser().parse_args(argv)).output_dir == want
    if want == "from-env":
        flagged = build_parser().parse_args(argv + ["--out-dir", "from-flag"])
        assert cli._resolve_config(flagged).output_dir == "from-flag"


@pytest.mark.parametrize("argv", [["compare", "flows.log"], ["bench", "flows.log"]], ids=lambda argv: argv[0])
def test_a_summary_into_a_closed_pipe_is_a_failed_write_not_an_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    stdout = ClosedPipe()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert run_command(argv) == 2
    assert stdout.writes == 1
    assert capsys.readouterr().err == "warning: 1 output writes failed; an output file or stdout is incomplete\n"


def test_generate_into_a_closed_pipe_writes_both_files_and_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(["generate", "netbus-slow", "-o", "quiet.log"]) == 0
    capsys.readouterr()
    stdout = ClosedPipe()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        assert run_command(["generate", "netbus-slow", "-o", "piped.log"]) == 2
    assert stdout.writes == 1
    assert capsys.readouterr().err == "warning: 1 output writes failed; an output file or stdout is incomplete\n"
    for suffix in ("", ".truth"):
        assert (tmp_path / f"piped.log{suffix}").read_bytes() == (tmp_path / f"quiet.log{suffix}").read_bytes()
