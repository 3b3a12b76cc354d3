"""Regression guard for the vectorized hot path.

Compares a fresh quick measurement against the recorded baseline in
``BENCH_tick.json`` at the repo root (written by ``python -m repro.cli
bench``).  Tolerances are deliberately generous -- CI machines and
laptops differ by integer factors -- so only a genuine regression
(vectorized path slower than scalar, or an order-of-magnitude slowdown
against the recording) fails.  Skips when no baseline has been
recorded.
"""

import json
from pathlib import Path

import pytest

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_tick.json"

#: A fresh run may be this many times slower than the recorded baseline
#: before we call it a regression (absorbs machine-to-machine spread).
_SLOWDOWN_TOLERANCE = 10.0


@pytest.fixture(scope="module")
def baseline():
    if not _BASELINE.is_file():
        pytest.skip("no recorded baseline (run: python -m repro.cli bench)")
    return json.loads(_BASELINE.read_text())


@pytest.fixture(scope="module")
def fresh():
    from repro.benchmarks.harness import bench_kernels, bench_tick

    return {
        "end_to_end": bench_tick(sizes=(64,), ticks=100, repeats=2),
        "kernels": bench_kernels(sizes=(64,), iters=100),
    }


def test_vectorized_tick_still_faster_than_scalar(fresh):
    for row in fresh["end_to_end"]:
        assert row["speedup"] > 1.0, (
            f"vectorized tick no longer beats scalar at "
            f"n={row['n_servers']}: {row['speedup']:.2f}x"
        )


def test_vectorized_tick_not_regressed_vs_baseline(baseline, fresh):
    recorded = {
        row["n_servers"]: row["vectorized_ms_per_tick"]
        for row in baseline["end_to_end"]
    }
    for row in fresh["end_to_end"]:
        n = row["n_servers"]
        if n not in recorded:
            continue
        assert row["vectorized_ms_per_tick"] <= recorded[n] * _SLOWDOWN_TOLERANCE, (
            f"vectorized tick at n={n} is "
            f"{row['vectorized_ms_per_tick']:.3f} ms vs recorded "
            f"{recorded[n]:.3f} ms (> {_SLOWDOWN_TOLERANCE}x slower)"
        )


def test_kernels_keep_headline_speedup(fresh):
    # Headline target: >= 5x on the combined per-tick kernel cost at
    # 64+ servers.  Guard at 3x so machine noise cannot flake the suite
    # while a real vectorization regression (a kernel falling back to
    # scalar speed) still fails.
    combined = [r for r in fresh["kernels"] if r["kernel"] == "combined"]
    assert combined, "harness stopped emitting the combined kernel row"
    for row in combined:
        assert row["speedup"] >= 3.0, (
            f"combined kernels at n={row['n_servers']} dropped to "
            f"{row['speedup']:.2f}x"
        )
    # The two kernels with order-of-magnitude margins must stay clearly
    # vectorized; the small ones (smoothing, budget) ride on `combined`.
    for row in fresh["kernels"]:
        if row["kernel"] in ("thermal_step", "demand_sampling"):
            assert row["speedup"] >= 3.0, (
                f"kernel {row['kernel']} at n={row['n_servers']} dropped "
                f"to {row['speedup']:.2f}x"
            )


def test_kernel_baseline_not_regressed(baseline, fresh):
    recorded = {
        (row["kernel"], row["n_servers"]): row["vectorized_us_per_iter"]
        for row in baseline.get("kernels", [])
    }
    for row in fresh["kernels"]:
        key = (row["kernel"], row["n_servers"])
        if key not in recorded:
            continue
        assert row["vectorized_us_per_iter"] <= recorded[key] * _SLOWDOWN_TOLERANCE, (
            f"kernel {key} is {row['vectorized_us_per_iter']:.1f} us vs "
            f"recorded {recorded[key]:.1f} us"
        )


def test_consolidation_pass_builds_one_bin_per_move_at_most(monkeypatch):
    """The first eta2 pass over a 1024-server site at 30% load.

    Counts ``Bin`` constructions inside ``ConsolidationPlanner.plan``:
    the array planner realises only the bins its moves land in.  The
    object-based planner rebuilt one bin per awake receiver per drain
    candidate (~800 per candidate here).  An operation count, not a
    time, so machine speed cannot flake it.
    """
    from repro.binpack.items import Bin
    from repro.core.config import WillowConfig
    from repro.core.consolidation import ConsolidationPlanner
    from repro.core.vectorized import VectorizedWillowController
    from repro.power.supply import constant_supply
    from repro.sim.rng import RandomStreams
    from repro.topology.builders import build_balanced
    from repro.workload.applications import SIMULATION_APPS
    from repro.workload.generator import (
        random_placement,
        scale_for_target_utilization,
    )

    config = WillowConfig()
    tree = build_balanced((4, 16, 16))
    ids = [s.node_id for s in tree.servers()]
    placement = random_placement(
        ids, SIMULATION_APPS, RandomStreams(1)["placement"], vms_per_server=4
    )
    scale_for_target_utilization(placement, config.server_model.slope, 0.3)
    controller = VectorizedWillowController(
        tree,
        config,
        constant_supply(0.7 * len(ids) * config.circuit_limit),
        placement,
        seed=1,
    )

    built = []
    post_init = Bin.__post_init__
    plan = ConsolidationPlanner.plan
    passes = []

    def counting_post_init(self):
        built.append(self.key)
        post_init(self)

    def counting_plan(self, *args, **kwargs):
        before = len(built)
        result = plan(self, *args, **kwargs)
        passes.append((len(built) - before, len(result.moves)))
        return result

    monkeypatch.setattr(Bin, "__post_init__", counting_post_init)
    monkeypatch.setattr(ConsolidationPlanner, "plan", counting_plan)
    controller.run(config.eta2 + 1)
    assert passes, "no consolidation pass in the first eta2 + 1 ticks"
    bins, moves = passes[0]
    assert moves > 100
    assert bins <= moves, f"{bins} Bin objects for {moves} planned moves"
