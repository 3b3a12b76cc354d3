"""Consolidation: drain under-utilised servers and put them to sleep.

"When the utilization in a node is really small the demand from that
node is migrated away from it and the node is deactivated" (Sec. IV-E);
the testbed sets the threshold at 20 % utilization (Sec. V-C5).  Every
``Delta_A = eta2 * Delta_D`` the planner:

1. finds awake servers below the utilization threshold,
2. for each (least-loaded first) checks whether *all* of its VMs fit
   into the remaining eligible surpluses (FFDLR, which by design packs
   into the smallest bins and so fills servers up), and
3. if so, plans the moves and marks the server for sleep -- partial
   drains are never done since a half-empty server saves nothing.

One residual-capacity array (one row per receiver, node-id order) is
kept across the whole pass, so a candidate costs a few NumPy passes
over the receivers plus FFDLR over its own VMs
(:func:`repro.binpack.ffdlr.ffdlr_assign`); ``Bin`` objects are built
only for the receivers a drain lands in, to run the packer's fit and
overfull checks on them.

Waking is the inverse: when drops persist while a sleeping server
exists and the root has budget headroom for its static floor, one
server per consolidation round begins its (slow) S3/S4 resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List

import numpy as np

# ``ffdlr_pack`` is not called here: the pass uses the array core
# directly.  The name stays bound because the benchmark's span tracer
# (perfbench/spans.py) wraps ``repro.core.consolidation.ffdlr_pack``.
from repro.binpack.ffdlr import ffdlr_assign, ffdlr_pack  # noqa: F401
from repro.binpack.items import Bin, Item, PackResult
from repro.core.config import WillowConfig
from repro.core.migration import PlannedMove
from repro.core.state import NodeRuntime, ServerRuntime, SleepState
from repro.topology.tree import Tree
from repro.workload.vm import VM

__all__ = ["ConsolidationPlan", "ConsolidationPlanner"]

_EPS = 1e-9


@dataclass
class ConsolidationPlan:
    """Moves plus the servers to deactivate afterwards."""

    moves: List[PlannedMove] = field(default_factory=list)
    to_sleep: List[ServerRuntime] = field(default_factory=list)
    to_wake: List[ServerRuntime] = field(default_factory=list)


class ConsolidationPlanner:
    """Plans consolidation-driven migrations and sleep/wake actions."""

    def __init__(self, tree: Tree, config: WillowConfig):
        self.tree = tree
        self.config = config

    def _drain(
        self,
        plan: ConsolidationPlan,
        candidates: List[ServerRuntime],
        receivers: List[ServerRuntime],
    ) -> None:
        """Drain each candidate whole into the receivers, or not at all.

        One residual receive-capacity row per receiver (node-id order)
        is kept across the pass and debited as earlier drains land, so
        later candidates see the truth; only the rows a drain chooses
        are touched.  ``alive`` clears once a receiver is itself
        drained, and a receiver that took more than ``_EPS`` of load
        this pass stays up (its planned VMs are not in ``.vms`` yet, so
        it could not be drained consistently).  Starved candidates are
        never receivers.
        """
        receivers = sorted(receivers, key=lambda s: s.node.node_id)
        ids = [s.node.node_id for s in receivers]
        row_of = {node_id: row for row, node_id in enumerate(ids)}
        # Bin capacity a receiver offers: surplus minus the P_min
        # margin and the migration cost.
        overhead = self.config.p_min + self.config.migration_cost_power
        cap = np.array(
            [max(s.budget - s.raw_demand - overhead, 0.0) for s in receivers],
            dtype=float,
        )
        alive = np.ones(len(ids), dtype=bool)
        extra_load = np.zeros(len(ids))
        for candidate in candidates:
            own = row_of.get(candidate.node.node_id)
            if own is not None and extra_load[own] > _EPS:
                continue
            if not candidate.vms:
                # Nothing hosted: deactivate immediately.
                plan.to_sleep.append(candidate)
                if own is not None:
                    alive[own] = False
                continue
            eligible = alive & (cap > _EPS)
            if own is not None:
                eligible[own] = False
            rows = np.flatnonzero(eligible)
            if not rows.size:
                continue
            vms: List[VM] = list(candidate.vms.values())
            sizes = [max(vm.current_demand, _EPS) for vm in vms]
            residual = cap[rows]
            placed, unpacked = ffdlr_assign(sizes, residual)
            if unpacked:
                continue  # partial drains save nothing; stay awake
            # Realise only the chosen bins, in node-id then contents
            # order, so Bin.add's fit check and the overfull check run
            # on every receiver this drain touches.
            placed.sort(key=itemgetter(1))
            result = PackResult(assignment={}, bins=[], unpacked=[])
            for i, pos in placed:
                row = int(rows[pos])
                if not result.bins or result.bins[-1].key != ids[row]:
                    result.bins.append(
                        Bin(key=ids[row], capacity=float(residual[pos]))
                    )
                result.bins[-1].add(Item(key=vms[i].vm_id, size=sizes[i]))
                result.assignment[vms[i].vm_id] = ids[row]
                plan.moves.append(
                    PlannedMove(vm=vms[i], src=candidate.node, dst=receivers[row].node)
                )
                cap[row] = max(cap[row] - sizes[i], 0.0)
                extra_load[row] += sizes[i]
            result.validate()
            plan.to_sleep.append(candidate)
            if own is not None:
                alive[own] = False

    def plan(
        self,
        servers: Dict[int, ServerRuntime],
        internals: Dict[int, NodeRuntime],
        *,
        recent_dropped_power: float = 0.0,
        root_budget: float = 0.0,
        total_demand: float = 0.0,
    ) -> ConsolidationPlan:
        """One consolidation pass.

        ``recent_dropped_power``, ``root_budget`` and ``total_demand``
        feed the wake heuristic: persistent drops with budget headroom
        justify resuming one sleeping server.
        """
        plan = ConsolidationPlan()
        config = self.config

        # Never drain capacity while demand is being dropped: in a
        # deficit regime consolidation would remove the very surplus
        # the deficits need (and fight the wake heuristic below).
        deficit_regime = recent_dropped_power > config.p_min

        if config.consolidation_enabled:
            awake = [s for s in servers.values() if s.is_awake]
            floor = config.server_model.static_power
            if deficit_regime:
                # Servers whose budget fell below their own static floor
                # cannot comply while awake (the floor is unavoidable);
                # they are drain candidates even in a deficit regime --
                # the paper's severe-case "shut down" response.  Only
                # servers above the floor receive.
                candidates = sorted(
                    (s for s in awake if s.budget < floor - _EPS),
                    key=lambda s: s.vm_demand,
                )
                receivers = [s for s in awake if s.budget >= floor]
            else:
                threshold_power = (
                    config.consolidation_threshold * config.server_model.slope
                )
                # Hot-zone servers (higher ambient => lower thermal cap)
                # are drained first: Willow "tries to move as much work
                # away from these servers as possible due to their high
                # temperatures" (Sec. V-B3), which is also what maximises
                # their sleep time in Fig. 7.  Within a zone, drain the
                # least-loaded first.
                candidates = sorted(
                    (s for s in awake if s.vm_demand <= threshold_power + _EPS),
                    key=lambda s: (-s.thermal_params.t_ambient, s.vm_demand),
                )
                receivers = awake
            self._drain(plan, candidates, receivers)

        # -- wake heuristic ---------------------------------------------------
        if deficit_regime:
            sleeping = [
                s for s in servers.values() if s.sleep_state is SleepState.ASLEEP
            ]
            headroom = root_budget - total_demand
            if sleeping and headroom > config.server_model.static_power:
                plan.to_wake.append(sleeping[0])
        return plan
