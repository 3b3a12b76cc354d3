"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--smoke", "--seconds", "1", *argv])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    code, lines, result = _run("--workload", workload, "--trace", trace)
    assert code == 0
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name in result["metrics"]:
        assert any(line.split()[0] == name for line in lines[:-1]), name
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_tick_count_equals_ticks_run(workload, tmp_path):
    bench = workloads.WORKLOADS[workload](tmp_path, smoke=True)
    episode = bench.episode(seed=3)
    assert len(episode.tick_ms) == bench.n_ticks
    assert episode.failures == []
    classes = run.tick_class_metrics(bench, episode)
    assert sum(classes[f"tick.{c}.n"] for c in run.TICK_CLASSES) == bench.n_ticks


def test_tick_count_check_fires(tmp_path):
    bench = workloads.SiteDrain(tmp_path, smoke=True)
    controller = bench.build(seed=3)
    stamps = [0.0]
    bench.drive(controller, stamps)
    failures = workloads.check_common(
        bench.n_ticks + 1, stamps, [controller.collector], []
    )
    assert len(failures) == 2  # stamps and collector both disagree


def test_thermal_check_fires(tmp_path):
    bench = workloads.SiteDrain(tmp_path, smoke=True)
    controller = bench.build(seed=3)
    bench.drive(controller, [0.0])
    server = next(iter(controller.servers.values()))
    server.thermal.violations += 1
    assert workloads.thermal_violations(controller.servers.values()) == 1


def test_altered_digest_fails_the_digest_check(tmp_path):
    bench = workloads.SiteDrain(tmp_path, smoke=True)
    episode = bench.episode(seed=3)
    assert workloads.check_same_decisions([episode, episode]) == []
    altered = dataclasses.replace(episode, digest="0" * 64)
    assert workloads.check_same_decisions([episode, altered])


def test_corrupted_audit_line_fails_replay_parity(tmp_path):
    bench = workloads.LiveIngest(tmp_path, smoke=True)
    episode = bench.episode(seed=3)
    assert workloads.check_replay(episode.audit_path) == []
    lines = episode.audit_path.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("kind") == "event" and record["event"]["type"] == "demand_sample":
            record["event"]["demand"] += 50.0
            lines[i] = json.dumps(record)
            break
    episode.audit_path.write_text("\n".join(lines) + "\n")
    assert workloads.check_replay(episode.audit_path)


def test_every_generated_event_applies(tmp_path):
    bench = workloads.LiveIngest(tmp_path, smoke=True)
    episode = bench.episode(seed=5)
    assert episode.attempted > 0 and episode.failed == 0


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        SPEC["command"]
        + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_leaves_ten_ticks_beyond():
    for n_ticks in (30, 105, 280, 300):
        pct = run.tail_percentile(n_ticks)
        assert n_ticks * (1 - pct / 100) >= run.TAIL_BEYOND
