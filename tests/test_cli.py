"""Command line behavior: exit codes, output files, and option precedence."""

import json
import os
import subprocess
import sys

import pytest
import yaml

from flowsentry import cli
from flowsentry.cli import OUTPUT_DIR_ENV, build_parser, run_command
from flowsentry.generator import GenConfig, ScanSpec, generate
from flowsentry.reporting import SinkSet
from flowsentry.scanrules import ScanKind

from conftest import make_line, slow_probe_lines


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def test_importing_the_cli_leaves_yaml_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, flowsentry.cli; sys.exit('yaml' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0


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


@pytest.mark.parametrize("flag", ["--timeout", "--tick-interval"])
def test_nan_durations_exit_1(tmp_path, capsys, flag):
    log = write_corpus(tmp_path)
    assert run_command(analyze_args(log, tmp_path / "out", flag, "nan", "--no-console")) == 1
    assert "must be positive" in capsys.readouterr().err
    # An infinite duration is allowed: nothing expires before the end.
    assert run_command(analyze_args(log, tmp_path / "out", flag, "inf", "--no-console")) == 0


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
    assert run_command(["compare", str(log), "--timeout", "900", "--date", "2004/11/05"]) == 0
    out = capsys.readouterr().out
    assert "engine only: 1" in out
    assert "5.5.5.10 (non-adjacent)" in out


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
