"""The array consolidation planner makes the reference planner's decisions.

``tests/_reference_consolidation.py`` keeps the object-based planner
(one ``Bin`` per receiver per candidate) and its FFDLR.  These tests pin
the array planner and the array FFDLR core to it:

* Hypothesis properties over hand-built fleets (both regimes, starved
  servers, hot/cold zones, VM-less servers, ``_EPS``-sized and
  oversized VMs, equal capacities) and over raw packing instances;
* whole runs built twice -- as-is and with ``ConsolidationPlanner.plan``
  swapped for the reference -- whose decision digests must match.  The
  digests are compared within one process, never against pinned hex
  values, since they depend on the NumPy build.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binpack.items import Bin, Item
from repro.binpack.ffdlr import ffdlr_pack
from repro.core import NodeRuntime, ServerRuntime, SleepState, WillowConfig
from repro.core.consolidation import ConsolidationPlanner
from repro.service.simulation import decision_digest
from repro.thermal.model import ThermalParams
from repro.topology import NodeKind, Tree
from repro.workload import AppType, VM
from tests._reference_consolidation import reference_ffdlr_pack, reference_plan

_EPS = 1e-9
_CONFIG = WillowConfig(p_min=10.0, migration_cost_power=5.0)
_FLOOR = _CONFIG.server_model.static_power

# Few distinct values so capacities tie often.
_demand = st.one_of(
    st.sampled_from([0.0, _EPS, 5.0, 20.0, 40.0, 84.0, 150.0, 600.0]),
    st.floats(0.0, 300.0),
)
_budget = st.one_of(
    st.sampled_from([0.0, _FLOOR - 1.0, _FLOOR, 250.0, 300.0, 450.0]),
    st.floats(0.0, 500.0),
)
_server = st.fixed_dictionaries(
    {
        "demands": st.lists(_demand, max_size=4),
        "budget": _budget,
        "asleep": st.booleans(),
    }
)
_fleet = st.fixed_dictionaries(
    {
        "cold": st.lists(_server, min_size=1, max_size=6),
        "hot": st.lists(_server, max_size=6),
        "dropped": st.sampled_from([0.0, 5.0, 50.0]),
        "headroom": st.sampled_from([0.0, 1000.0]),
    }
)


def _build(fleet):
    """A two-zone cluster: cold servers at 25 C, hot ones at 40 C."""
    tree = Tree(root_name="dc", root_level=2)
    servers = {}
    vm_id = 0
    app = AppType("app", 1.0)
    for zone, ambient in (("cold", 25.0), ("hot", 40.0)):
        if not fleet[zone]:
            continue
        group = tree.add_child(tree.root, zone, NodeKind.ENCLOSURE)
        for i, spec in enumerate(fleet[zone]):
            leaf = tree.add_child(group, f"{zone}{i}", NodeKind.SERVER)
            server = ServerRuntime(
                leaf, _CONFIG, thermal_params=ThermalParams(t_ambient=ambient)
            )
            if spec["asleep"] and not spec["demands"]:
                server.sleep()
            for demand in spec["demands"]:
                vm = VM(vm_id=vm_id, app=app, host_id=leaf.node_id)
                vm.current_demand = float(demand)
                server.vms[vm_id] = vm
                vm_id += 1
            server.observe_demand()
            server.set_budget(spec["budget"])
            servers[leaf.node_id] = server
    internals = {
        node.node_id: NodeRuntime(node, _CONFIG) for node in tree if not node.is_leaf
    }
    return tree, servers, internals


def _decisions(plan):
    return (
        [(m.vm.vm_id, m.src.node_id, m.dst.node_id) for m in plan.moves],
        [s.node.node_id for s in plan.to_sleep],
        [s.node.node_id for s in plan.to_wake],
    )


def _both_plans(fleet):
    tree, servers, internals = _build(fleet)
    planner = ConsolidationPlanner(tree, _CONFIG)
    total = sum(s.raw_demand for s in servers.values())
    kwargs = dict(
        recent_dropped_power=fleet["dropped"],
        root_budget=total + fleet["headroom"],
        total_demand=total,
    )
    return (
        _decisions(planner.plan(servers, internals, **kwargs)),
        _decisions(reference_plan(planner, servers, internals, **kwargs)),
    )


def _fleet_of(cold, hot=(), dropped=0.0, headroom=0.0):
    def server(demands, budget, asleep=False):
        return {"demands": list(demands), "budget": budget, "asleep": asleep}

    return {
        "cold": [server(*s) for s in cold],
        "hot": [server(*s) for s in hot],
        "dropped": dropped,
        "headroom": headroom,
    }


# A candidate with VMs of 6, 5, 5 and 3 W next to receivers that offer
# 10, 6 and 6 W (budget - static floor - demand - 15 W overhead).
_SPLIT = [
    ([6.0, 5.0, 5.0, 3.0], 450.0),
    ([100.0], 155.0),
    ([100.0], 151.0),
    ([100.0], 151.0),
]


@given(fleet=_fleet)
@settings(max_examples=300, deadline=None)
@example(
    # Equal receiver capacities: the tie goes to the lower node id.
    fleet=_fleet_of([([20.0], 450.0), ([200.0], 450.0), ([200.0], 450.0)])
)
@example(
    # An _EPS-sized VM lands on a receiver but does not pin it: the
    # receiver is itself drained later in the same pass.
    fleet=_fleet_of([([_EPS], 450.0), ([10.0], 100.0), ([200.0], 450.0)])
)
@example(
    # Deficit regime: a starved server drains into the fed ones.
    fleet=_fleet_of(
        [([30.0, 20.0], 10.0), ([100.0], 450.0), ([100.0], 450.0)], dropped=50.0
    )
)
@example(
    # Receivers offer 10, 6 and 6 W.  FFD groups {5, 5} and {6, 3}; the
    # second fits no unused bin, so it splits and best-fits item by item.
    fleet=_fleet_of(_SPLIT)
)
@example(
    # A VM larger than every receiver's capacity keeps its server awake.
    fleet=_fleet_of([([60.0, 4.0], 450.0), ([100.0], 150.0)])
)
def test_plan_matches_reference(fleet):
    production, reference = _both_plans(fleet)
    assert production == reference


def test_examples_exercise_every_branch():
    """The fixed examples above really tie, unpin, split, strand and starve."""
    moves, slept, _ = _both_plans(
        _fleet_of([([20.0], 450.0), ([200.0], 450.0), ([200.0], 450.0)])
    )[0]
    # The two receivers offer equal capacity; the lower node id wins.
    assert moves == [(0, slept[0], slept[0] + 1)]
    moves, slept, _ = _both_plans(
        _fleet_of([([_EPS], 450.0), ([10.0], 100.0), ([200.0], 450.0)])
    )[0]
    # The _EPS VM's receiver is drained right after.
    assert len(slept) == 2 and moves[0][2] == slept[1]
    moves, slept, _ = _both_plans(_fleet_of(_SPLIT))[0]
    c = slept[0]
    assert moves == [(1, c, c + 1), (2, c, c + 1), (0, c, c + 2), (3, c, c + 3)]
    assert _both_plans(_fleet_of([([60.0, 4.0], 450.0), ([100.0], 150.0)]))[0] == (
        [],
        [],
        [],
    )
    moves, slept, _ = _both_plans(
        _fleet_of(
            [([30.0, 20.0], 10.0), ([100.0], 450.0), ([100.0], 450.0)],
            dropped=50.0,
        )
    )[0]
    assert len(moves) == 2 and len(slept) == 1


_sizes = st.lists(
    st.one_of(st.sampled_from([0.0, 1e-9, 1.0, 2.0, 5.0]), st.floats(0.0, 12.0)),
    max_size=10,
)
_bins = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, 2.0, 5.0, 10.0]), st.floats(0.0, 10.0)),
        st.lists(st.floats(0.0, 3.0), max_size=2),
    ),
    max_size=8,
)


def _instance(sizes, bins):
    items = [Item(key=i, size=s) for i, s in enumerate(sizes)]
    built = []
    for b, (capacity, preload) in enumerate(bins):
        contents = [Item(key=f"pre{b}.{j}", size=s) for j, s in enumerate(preload)]
        if sum(item.size for item in contents) <= capacity:
            built.append(Bin(key=b, capacity=capacity, contents=contents))
        else:
            built.append(Bin(key=b, capacity=capacity))
    return items, built


def _outcome(pack, sizes, bins):
    items, built = _instance(sizes, bins)
    try:
        result = pack(items, built)
    except ValueError as error:
        return ("raised", str(error))
    return (
        list(result.assignment.items()),
        [[item.key for item in b.contents] for b in result.bins],
        [item.key for item in result.unpacked],
    )


@given(sizes=_sizes, bins=_bins)
@settings(max_examples=400, deadline=None)
# Shrunk counterexample: with no usable bin the packer returns before
# validating, so a pre-loaded bin (whose contents are not in the
# assignment map) does not raise.
@example(sizes=[1e-09], bins=[(0.0, [0.0])])
def test_ffdlr_pack_matches_reference(sizes, bins):
    assert _outcome(ffdlr_pack, sizes, bins) == _outcome(
        reference_ffdlr_pack, sizes, bins
    )


# ---------------------------------------------------------------------------
# Whole runs: production vs reference planner, same process.
# ---------------------------------------------------------------------------
def _digest_pair(monkeypatch, run):
    """(digest as-is, digest with the reference planner, plan stats)."""
    stats = {"moves": 0, "slept": 0, "deficit_slept": 0}
    original = ConsolidationPlanner.plan

    def counting(self, servers, internals, **kwargs):
        plan = original(self, servers, internals, **kwargs)
        stats["moves"] += len(plan.moves)
        stats["slept"] += len(plan.to_sleep)
        if kwargs.get("recent_dropped_power", 0.0) > self.config.p_min:
            stats["deficit_slept"] += len(plan.to_sleep)
        return plan

    with monkeypatch.context() as patch:
        patch.setattr(ConsolidationPlanner, "plan", counting)
        production = decision_digest(run())
    with monkeypatch.context() as patch:
        patch.setattr(ConsolidationPlanner, "plan", reference_plan)
        reference = decision_digest(run())
    return production, reference, stats


def test_fig07_configuration_digest(monkeypatch):
    from repro.core.controller import run_willow
    from repro.experiments.paper_sweep import hot_zone_overrides

    def run():
        return run_willow(
            config=WillowConfig(consolidation_enabled=True),
            target_utilization=0.4,
            n_ticks=120,
            seed=11,
            ambient_overrides=hot_zone_overrides(),
        )[1]

    production, reference, stats = _digest_pair(monkeypatch, run)
    assert stats["moves"] > 0 and stats["slept"] > 0
    assert production == reference


def test_fig19_testbed_digest(monkeypatch):
    import numpy as np

    from repro.experiments import fig19_table3
    from repro.experiments.testbed_run import run_testbed, testbed_config
    from repro.power.supply import plenty_supply_trace

    config = testbed_config()
    supply = plenty_supply_trace(
        3 * config.server_model.max_power + 30.0,
        period=fig19_table3.N_UNITS * config.delta_s,
        resolution=config.delta_s,
        rng=np.random.default_rng(2019),
    )
    n_ticks = int(fig19_table3.N_UNITS * config.eta1)

    def run():
        return run_testbed(
            supply, fig19_table3.UTILIZATIONS, n_ticks=n_ticks, config=config
        )[1]

    production, reference, stats = _digest_pair(monkeypatch, run)
    assert stats["moves"] > 0 and stats["slept"] > 0
    assert production == reference


def test_vectorized_site_digest(monkeypatch):
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
    n_ticks = 2 * config.eta2 + 2

    def run():
        tree = build_balanced((4, 8, 8))
        ids = [s.node_id for s in tree.servers()]
        placement = random_placement(
            ids, SIMULATION_APPS, RandomStreams(5)["placement"], vms_per_server=4
        )
        scale_for_target_utilization(placement, config.server_model.slope, 0.3)
        supply = constant_supply(0.7 * len(ids) * config.circuit_limit)
        controller = VectorizedWillowController(
            tree, config, supply, placement, seed=5
        )
        controller.run(n_ticks)
        return controller.collector

    production, reference, stats = _digest_pair(monkeypatch, run)
    assert stats["moves"] > 0 and stats["slept"] > 0
    assert production == reference


def test_plant_fault_deficit_digest(monkeypatch):
    from repro.plant_faults import CircuitTrip, PlantFaultSchedule
    from repro.plant_faults.controller import run_resilient
    from repro.power.supply import constant_supply
    from repro.topology.builders import build_balanced

    config = WillowConfig()

    def run():
        tree = build_balanced([3, 4])
        trip = CircuitTrip(tree.root.children[1].node_id, 5, 30)
        return run_resilient(
            tree=tree,
            config=config,
            plant_faults=PlantFaultSchedule(trips=(trip,)),
            supply=constant_supply(0.6 * 12 * config.circuit_limit),
            target_utilization=0.5,
            n_ticks=42,
            seed=3,
        )[1]

    production, reference, stats = _digest_pair(monkeypatch, run)
    # The tripped servers are starved and put to sleep in the deficit
    # regime.
    assert stats["deficit_slept"] > 0
    assert production == reference


@pytest.mark.parametrize("state", [SleepState.ASLEEP, SleepState.WAKING])
def test_non_awake_servers_neither_drain_nor_receive(state):
    fleet = _fleet_of([([20.0], 450.0), ([200.0], 450.0), ([], 450.0)])
    tree, servers, internals = _build(fleet)
    idle = list(servers.values())[2]
    idle.sleep_state = state
    plan = ConsolidationPlanner(tree, _CONFIG).plan(servers, internals)
    assert idle not in plan.to_sleep
    assert all(m.dst is not idle.node for m in plan.moves)
