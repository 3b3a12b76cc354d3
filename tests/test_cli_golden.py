"""Golden stdout for the CLI: every case's output is pinned byte for byte.

Each case is a sequence of invocations sharing one temporary directory;
the golden file is their concatenated stdout with that directory
written as ``<TMP>``.  The runs are seeded, so repeated runs print the
same bytes.  To re-record after an intended output change::

    WILLOW_REGEN_CLI_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli"

CASES = {
    "plain": [["--ticks", "6", "--hot", "3", "--seed", "9"]],
    "plain_vectorized": [
        ["--ticks", "6", "--hot", "3", "--seed", "9", "--vectorized"]
    ],
    "plain_supply": [
        ["--ticks", "8", "--branching", "3,3", "--supply-dip", "0.4",
         "--dip-at", "4", "--battery", "500:100", "--supply-factor", "0.8",
         "--no-consolidation", "--p-min", "5", "--utilization", "0.6"]
    ],
    "plain_outputs": [
        ["--ticks", "4", "--export-json", "{tmp}/run.json",
         "--export-csv", "{tmp}/csv", "--trace", "{tmp}/run.trace"]
    ],
    "degraded": [
        ["degraded", "--ticks", "8", "--drop", "0.1", "--latency", "1",
         "--jitter", "1", "--dup", "0.05", "--reorder", "0.05",
         "--crashes", "1", "--partitions", "1", "--ttl", "4"]
    ],
    "degraded_unreliable": [
        ["degraded", "--ticks", "6", "--seed", "3", "--unreliable",
         "--utilization", "0.7"]
    ],
    "resilience_trace": [
        ["resilience", "--ticks", "20", "--seed", "7", "--crashes", "2",
         "--sensor-faults", "1", "--trips", "1", "--cooling-events", "1",
         "--outside", "38", "--trace", "{tmp}/r.trace"],
        ["trace", "{tmp}/r.trace"],
        ["trace", "{tmp}/r.trace", "--tick", "10"],
        ["trace", "{tmp}/r.trace", "--histogram", "--level", "1",
         "--events"],
    ],
    "federation": [["federation", "--sites", "2", "--ticks", "24"]],
    "federation_predictive": [
        ["federation", "--sites", "2", "--ticks", "24", "--policy",
         "predictive", "--horizon", "3", "--battery", "500:100",
         "--cooling", "--outside-temp", "28", "--forecast", "persistence"]
    ],
    "federation_vectorized": [
        ["federation", "--sites", "3", "--ticks", "24", "--vectorized",
         "--policy", "greedy-greenest", "--wan-cost", "50",
         "--wan-ticks", "3", "--solar-peak", "4000", "--seed", "2"]
    ],
    "checkpoint_resume": [
        ["checkpoint", "{tmp}/c", "--ticks", "20", "--seed", "7",
         "--every", "6", "--keep", "2"],
        ["resume", "{tmp}/c"],
        ["resume", "{tmp}/c", "--at", "12", "--ticks", "25"],
    ],
    "checkpoint_resume_vectorized": [
        ["checkpoint", "{tmp}/v", "--ticks", "12", "--vectorized",
         "--branching", "2,3", "--vms-per-server", "3",
         "--supply-factor", "0.9", "--utilization", "0.6"],
        ["resume", "{tmp}/v"],
    ],
    "gym": [
        ["gym", "--windows", "3", "--iterations", "1", "--population", "2",
         "--no-bandit"]
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path, capsys):
    out = []
    for argv in CASES[name]:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
        out.append(capsys.readouterr().out)
    text = "".join(out).replace(str(tmp_path), "<TMP>")
    path = GOLDEN / f"{name}.txt"
    if os.environ.get("WILLOW_REGEN_CLI_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert text == path.read_text()
