"""Test oracle: the object-based consolidation planner and FFDLR packer.

This is the straightforward form of Sec. IV-E/F that the array planner
in :mod:`repro.core.consolidation` and the array core in
:mod:`repro.binpack.ffdlr` must reproduce decision for decision.  For
every drain candidate it rebuilds one :class:`~repro.binpack.items.Bin`
per eligible receiver and packs the candidate's VMs with the bin-object
FFDLR below, which is O(candidates x servers) -- fine for an oracle,
too slow for a 1024-server fleet.

:func:`reference_plan` has the signature of ``ConsolidationPlanner.plan``
so tests can monkeypatch it in and compare decision digests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.binpack.items import Bin, Item, PackResult
from repro.core.consolidation import ConsolidationPlan
from repro.core.migration import PlannedMove
from repro.core.state import NodeRuntime, ServerRuntime, SleepState

__all__ = ["reference_ffdlr_pack", "reference_plan"]

_EPS = 1e-9
_SLACK = 1e-9


def _ffd_groups(items: List[Item], capacity: float) -> List[List[Item]]:
    """Phase 1: FFD into virtual bins of ``capacity``; returns groups."""
    groups: List[List[Item]] = []
    loads: List[float] = []
    for item in sorted(items, key=lambda it: it.size, reverse=True):
        placed = False
        for i, load in enumerate(loads):
            if load + item.size <= capacity + _SLACK:
                groups[i].append(item)
                loads[i] = load + item.size
                placed = True
                break
        if not placed:
            groups.append([item])
            loads.append(item.size)
    return groups


def reference_ffdlr_pack(items: Sequence[Item], bins: Sequence[Bin]) -> PackResult:
    """FFDLR over ``Bin`` objects: FFD into virtual bins of the largest
    capacity, repack each group into the smallest unused bin that holds
    it, best-fit the leftovers of infeasible groups."""
    bins = list(bins)
    result = PackResult(assignment={}, bins=bins, unpacked=[])
    keys = [item.key for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate item keys")
    pending = [item for item in items if item.size > 0]
    if not pending:
        return result
    if not bins:
        result.unpacked = list(pending)
        return result

    largest = max(b.capacity for b in bins)
    if largest <= 0:
        result.unpacked = list(pending)
        return result

    oversized = [it for it in pending if it.size > largest + _SLACK]
    packable = [it for it in pending if it.size <= largest + _SLACK]
    groups = _ffd_groups(packable, largest)

    caps = np.array([b.capacity for b in bins], dtype=float)
    loads = np.array([b.load for b in bins], dtype=float)
    order = np.argsort(caps, kind="stable")
    sorted_caps = caps[order]
    avail = np.ones(len(bins), dtype=bool)
    leftovers: List[Item] = list(oversized)
    for group in sorted(groups, key=lambda g: sum(i.size for i in g), reverse=True):
        total = sum(item.size for item in group)
        feasible = avail & (total <= sorted_caps + _SLACK)
        pos = int(np.argmax(feasible)) if feasible.any() else -1
        if pos >= 0:
            avail[pos] = False
            bin_index = int(order[pos])
            chosen = bins[bin_index]
            for item in group:
                chosen.add(item)
                result.assignment[item.key] = chosen.key
            loads[bin_index] = chosen.load
        else:
            leftovers.extend(group)

    for item in sorted(leftovers, key=lambda it: it.size, reverse=True):
        residual = caps - loads
        feasible = np.flatnonzero(item.size <= residual + _SLACK)
        if feasible.size:
            best_index = int(feasible[np.argmin(residual[feasible])])
            best = bins[best_index]
            best.add(item)
            result.assignment[item.key] = best.key
            loads[best_index] = best.load
        else:
            result.unpacked.append(item)

    result.validate()
    return result


def _target_capacity(planner, server: ServerRuntime) -> float:
    surplus = server.budget - server.raw_demand
    overhead = planner.config.p_min + planner.config.migration_cost_power
    return max(surplus - overhead, 0.0)


def _items(candidate: ServerRuntime) -> List[Item]:
    return [
        Item(key=vm.vm_id, size=max(vm.current_demand, _EPS), payload=vm)
        for vm in candidate.vms.values()
    ]


def reference_plan(
    planner,
    servers: Dict[int, ServerRuntime],
    internals: Dict[int, NodeRuntime],
    *,
    recent_dropped_power: float = 0.0,
    root_budget: float = 0.0,
    total_demand: float = 0.0,
) -> ConsolidationPlan:
    """One consolidation pass, with two separate drain loops."""
    plan = ConsolidationPlan()
    config = planner.config
    deficit_regime = recent_dropped_power > config.p_min

    floor = config.server_model.static_power
    if config.consolidation_enabled and deficit_regime:
        starved = sorted(
            (s for s in servers.values() if s.is_awake and s.budget < floor - _EPS),
            key=lambda s: s.vm_demand,
        )
        capacity: Dict[int, float] = {
            s.node.node_id: _target_capacity(planner, s)
            for s in servers.values()
            if s.is_awake and s.budget >= floor
        }
        for candidate in starved:
            if not candidate.vms:
                plan.to_sleep.append(candidate)
                continue
            bins = [
                Bin(key=node_id, capacity=residual)
                for node_id, residual in sorted(capacity.items())
                if residual > _EPS
            ]
            if not bins:
                continue
            result = reference_ffdlr_pack(_items(candidate), bins)
            if result.unpacked:
                continue
            for bin_ in result.bins:
                for item in bin_.contents:
                    plan.moves.append(
                        PlannedMove(
                            vm=item.payload,
                            src=candidate.node,
                            dst=servers[bin_.key].node,
                        )
                    )
                    capacity[bin_.key] = max(capacity[bin_.key] - item.size, 0.0)
            plan.to_sleep.append(candidate)

    if config.consolidation_enabled and not deficit_regime:
        threshold_power = config.consolidation_threshold * config.server_model.slope
        candidates = sorted(
            (
                s
                for s in servers.values()
                if s.is_awake and s.vm_demand <= threshold_power + _EPS
            ),
            key=lambda s: (-s.thermal_params.t_ambient, s.vm_demand),
        )
        draining: set = set()
        capacity = {
            s.node.node_id: _target_capacity(planner, s)
            for s in servers.values()
            if s.is_awake
        }
        extra_load: Dict[int, float] = {}
        for candidate in candidates:
            if extra_load.get(candidate.node.node_id, 0.0) > _EPS:
                continue
            if not candidate.vms and candidate.vm_demand <= _EPS:
                plan.to_sleep.append(candidate)
                draining.add(candidate.node.node_id)
                continue
            bins = [
                Bin(key=node_id, capacity=residual)
                for node_id, residual in sorted(capacity.items())
                if node_id != candidate.node.node_id
                and node_id not in draining
                and residual > _EPS
            ]
            if not bins:
                continue
            result = reference_ffdlr_pack(_items(candidate), bins)
            if result.unpacked:
                continue
            for bin_ in result.bins:
                for item in bin_.contents:
                    plan.moves.append(
                        PlannedMove(
                            vm=item.payload,
                            src=candidate.node,
                            dst=servers[bin_.key].node,
                        )
                    )
                    capacity[bin_.key] = max(capacity[bin_.key] - item.size, 0.0)
                    extra_load[bin_.key] = extra_load.get(bin_.key, 0.0) + item.size
            plan.to_sleep.append(candidate)
            draining.add(candidate.node.node_id)
            capacity.pop(candidate.node.node_id, None)

    if deficit_regime:
        sleeping = [s for s in servers.values() if s.sleep_state is SleepState.ASLEEP]
        headroom = root_budget - total_demand
        if sleeping and headroom > config.server_model.static_power:
            plan.to_wake.append(sleeping[0])
    return plan
