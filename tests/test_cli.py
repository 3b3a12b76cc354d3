"""Tests for the command-line interface."""

import argparse
import json
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, main


def test_default_run(capsys):
    assert main(["--ticks", "5"]) == 0
    out = capsys.readouterr().out
    assert "18 servers" in out
    assert "fleet power" in out


def test_hot_zone_flag(capsys):
    assert main(["--ticks", "5", "--hot", "4"]) == 0
    assert "hot zone on last 4" in capsys.readouterr().out


def test_custom_branching(capsys):
    assert main(["--ticks", "3", "--branching", "3,3"]) == 0
    assert "9 servers" in capsys.readouterr().out


def test_supply_dip_runs(capsys):
    assert main(
        ["--ticks", "12", "--supply-dip", "0.4", "--dip-at", "6"]
    ) == 0


def test_export_json(tmp_path, capsys):
    target = tmp_path / "run.json"
    assert main(["--ticks", "4", "--export-json", str(target)]) == 0
    document = json.loads(target.read_text())
    assert len(document["servers"]) == 4 * 18


def test_export_csv(tmp_path, capsys):
    assert main(["--ticks", "4", "--export-csv", str(tmp_path)]) == 0
    assert (tmp_path / "servers.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--utilization", "0"],
        ["--utilization", "1.5"],
        ["--ticks", "0"],
        ["--supply-dip", "1.0"],
        ["--branching", "3,x"],
        ["--hot", "99"],
        ["--hot", "-1"],
    ],
)
def test_invalid_arguments_rejected(argv, capsys):
    assert main(argv) == 2


def test_degraded_subcommand(capsys):
    assert main(
        ["degraded", "--ticks", "8", "--drop", "0.1", "--latency", "1",
         "--crashes", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "transport stats" in out
    assert "divergence vs ideal controller" in out
    assert "thermal safety" in out
    assert "VIOLATED" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["degraded", "--drop", "1.5"],
        ["degraded", "--ticks", "0"],
        ["degraded", "--utilization", "0"],
        ["degraded", "--latency", "-1"],
    ],
)
def test_degraded_invalid_arguments_rejected(argv, capsys):
    assert main(argv) == 2


def test_thermal_time_to_limit_exposed():
    # The CLI story relies on the calibrated window; sanity-check the
    # new thermal utility agrees with it end to end.
    from repro.core import WillowConfig
    from repro.thermal import ThermalParams, time_to_limit

    config = WillowConfig()
    window = config.resolved_thermal_window()
    t = time_to_limit(ThermalParams(), 25.0, 450.0)
    assert t == pytest.approx(window, rel=1e-9)


def test_time_to_limit_properties():
    import numpy as np

    from repro.thermal import ThermalParams, temperature_after, time_to_limit

    params = ThermalParams()
    # Monotone: more power, less time.
    times = time_to_limit(params, 30.0, np.array([100.0, 200.0, 400.0]))
    finite = times[np.isfinite(times)]
    assert np.all(np.diff(finite) < 0)
    # Inversion: T(time_to_limit) == T_limit when finite.
    t = time_to_limit(params, 30.0, 400.0)
    assert temperature_after(params, 30.0, 400.0, t) == pytest.approx(70.0)
    # Sustainable power never reaches the limit.
    assert time_to_limit(params, 30.0, 10.0) == float("inf")
    # Already over the limit.
    assert time_to_limit(params, 75.0, 100.0) == 0.0
    with pytest.raises(ValueError):
        time_to_limit(params, 25.0, -1.0)


def test_supply_csv_option(tmp_path, capsys):
    csv_path = tmp_path / "supply.csv"
    csv_path.write_text("time,budget\n0,8100\n5,4000\n")
    assert main(["--ticks", "10", "--supply-csv", str(csv_path)]) == 0


def test_supply_csv_missing_file(tmp_path, capsys):
    assert main(["--ticks", "3", "--supply-csv", str(tmp_path / "nope.csv")]) == 2


def test_version_flag(capsys):
    import re

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert re.match(r"repro \d+\.\d+\.\d+", out)


def test_battery_flag_runs(capsys):
    assert main(["--ticks", "8", "--battery", "500:100"]) == 0
    assert "fleet power" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec", ["", "abc", "10:-1", "-5", "1:2:3", "0"]
)
def test_battery_flag_rejects_bad_specs(spec, capsys):
    assert main(["--ticks", "5", "--battery", spec]) == 2
    assert "battery" in capsys.readouterr().err.lower()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["--branching", "0,3"],
        ["checkpoint", "{tmp}/c", "--branching", "0,3"],
        ["serve", "{tmp}/a.jsonl", "--branching", "0,3"],
        ["--supply-factor", "-1"],
        ["checkpoint", "{tmp}/c", "--supply-factor", "-1"],
        ["--supply-dip", "0.3", "--dip-at", "-5"],
        ["checkpoint", "{tmp}/c", "--keep", "0"],
        ["checkpoint", "{tmp}/c", "--vms-per-server", "-1"],
        ["degraded", "--ttl", "-1"],
        ["--p-min", "-1"],
        ["--hot", "-1"],
        ["serve", "{tmp}/a.jsonl", "--port", "70000"],
        ["gym", "--episodes", "-1"],
    ],
)
def test_out_of_range_values_exit_2_with_one_line(argv, tmp_path, capsys):
    # Each of these used to get past the CLI and fail in a library
    # constructor with a traceback (or, for --hot -1, heat 17 servers).
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    _one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_out_of_range_value_through_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--branching", "0,3"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "--branching" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--forecast", "persistence"], "forecast-aware"),
        (["--policy", "predictive", "--forecast", "ar1:0.9:0.1"],
         "--horizon > 0"),
        (["--solar-peak", "0"], "--solar-peak"),
        (["--wan-cost", "-1"], "--wan-cost"),
        (["--wan-ticks", "-1"], "--wan-ticks"),
    ],
)
def test_federation_rejects_ignored_or_negative_flags(argv, message, capsys):
    assert main(["federation", "--ticks", "4", *argv]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["--export-json", "{tmp}/nodir/run.json"],
        ["--trace", "{tmp}/nodir/run.trace"],
        ["degraded", "--trace", "{tmp}/nodir/run.trace"],
        ["resilience", "--trace", "{tmp}/nodir/run.trace"],
        ["federation", "--trace", "{tmp}/nodir/run.trace"],
    ],
)
def test_single_file_outputs_need_an_existing_directory(
    argv, tmp_path, capsys
):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert "does not exist" in _one_line_error(capsys)
    assert not (tmp_path / "nodir").exists()


def test_resume_from_the_final_checkpoint_reports_the_finished_run(
    tmp_path, capsys
):
    ckpt = tmp_path / "c"
    assert main(["checkpoint", str(ckpt), "--ticks", "12", "--every", "6"]) == 0
    digest = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("decision digest:")
    )
    assert main(["resume", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "running 0 more tick(s)" in out
    assert digest in out


def _rejects(parse, text):
    try:
        parse(text)
    except argparse.ArgumentTypeError:
        return True
    return False


@pytest.mark.parametrize(
    "command", list(COMMANDS.values()), ids=lambda c: c.name or "run"
)
def test_every_subcommand_helps_and_rejects_a_bad_value(
    command, tmp_path, capsys
):
    prefix = [command.name] if command.name else []
    with pytest.raises(SystemExit) as excinfo:
        main([*prefix, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: python -m repro.cli")

    # Required positionals point into a missing directory; the first
    # range-checked option gets a value its type rejects.
    missing = str(tmp_path / "missing" / "x")
    argv = list(prefix)
    for names, kwargs in command.arguments:
        if not names[0].startswith("-"):
            if kwargs.get("nargs") != "?":
                argv.append(missing)
        elif kwargs.get("type") and _rejects(kwargs["type"], "-1"):
            argv += [names[0], "-1"]
            break
    assert main(argv) == 2
    _one_line_error(capsys)
    assert not (tmp_path / "missing").exists()
