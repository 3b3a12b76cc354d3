"""Federation-wide vectorization: runs of sites ticked as one array sweep.

:class:`BatchedFederationCoordinator` runs the same control system as
:class:`~repro.federation.coordinator.FederationCoordinator` -- same
policies, same FFDLR rebalance, same per-site Willow semantics -- but
ticks each maximal run of consecutive array-capable sites as one
multi-site :class:`~repro.core.vectorized._Segment`: the same array
tick a :class:`~repro.core.vectorized.VectorizedWillowController` runs
for itself, here spanning one shared
:class:`~repro.core.fleet.FederationFleet` block.

* **Segments.**  Sites the array tick cannot model faithfully (a
  non-empty plant-fault schedule, device-class thermal state, a
  non-generator demand source) keep their own controller and tick at
  their position; the remaining sites form maximal runs of consecutive
  array-capable sites ("segments") that tick fused.
* **Deferred scatter across ticks.**  Unlike a controller's own
  one-site segment, a batched segment is not flushed at every tick
  boundary: per-server and per-VM objects are refreshed only where
  scalar code reads them (the rebalance, ``on_tick`` hooks) and at the
  end of the run, so steady-state ticks touch no per-server objects.
* **Array rebalance.**  The Sec. IV-E shed / FFDLR-repack candidate
  search runs on the block arrays (:mod:`repro.binpack.prescreen`):
  masks and exact-key argsorts pick donors and receivers, a verified
  cumsum prefix picks each server's largest-first takes, and only the
  chosen moves are realised through the scalar packer.

Equivalence contract (enforced by tests/test_federation_vectorized.py):
identical decisions and float trajectories to the scalar
``FederationCoordinator`` under every policy, with batteries, plant
faults and WAN migration costs in play -- bit-exact until the first
migration reorders a demand sum, ``rtol=1e-12`` after.

When any *site* tracer is enabled a segment falls back to site-major
ticks, each site through its own one-site segment, so
:class:`~repro.trace.tracer.Tracer` frames are identical to the scalar
coordinator's.  The coordinator-level tracer (site grants, federation
migrations) works in either mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.binpack.items import Bin, Item
from repro.binpack.prescreen import (
    deficient_order,
    destination_order,
    shed_takes,
    shed_vm_order,
)
from repro.core.fleet import FederationFleet
from repro.core.vectorized import VectorizedWillowController, _Segment
from repro.federation.coordinator import FederationCoordinator, _EPS
from repro.federation.site import Site
from repro.workload.generator import DemandGenerator

# The fused tick calls these two through repro.core.vectorized.  They
# stay bound here because perfbench/spans.py wraps each name in both
# modules' namespaces when it times the power and thermal layers.
from repro.power.budget import allocate_level  # noqa: F401
from repro.thermal.model import temperature_step_arrays  # noqa: F401

__all__ = ["BatchedFederationCoordinator"]


class BatchedFederationCoordinator(FederationCoordinator):
    """Drop-in :class:`FederationCoordinator` with a batched tick path.

    Same constructor and public surface; sites built on
    :class:`~repro.core.vectorized.VectorizedWillowController` (see
    ``build_federation(vectorized=True)``) tick fused in segments, the
    rest tick scalar at their positions.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        *,
        federation=None,
        tracer=None,
    ):
        super().__init__(sites, federation=federation, tracer=tracer)
        #: vm_id -> global index of the VM's *home* site (lazily built
        #: on the first cross-site move; needed only for staleness
        #: bookkeeping once guests exist).
        self._vm_home: Optional[Dict[int, int]] = None

        # Maximal runs of consecutive fusable sites become segments;
        # every other site ticks through its own controller in place.
        plan: List[object] = []
        for site in self.sites:
            if not self._fusable(site):
                plan.append(site)
            elif plan and isinstance(plan[-1], list):
                plan[-1].append(site.controller)
            else:
                plan.append([site.controller])
        fused = [ctrl for part in plan if isinstance(part, list) for ctrl in part]
        self.fed_fleet: Optional[FederationFleet] = (
            FederationFleet([ctrl.fleet for ctrl in fused]) if fused else None
        )
        self._plan: List[object] = [
            _Segment(part, self) if isinstance(part, list) else part
            for part in plan
        ]
        self.segments: List[_Segment] = [
            part for part in self._plan if isinstance(part, _Segment)
        ]
        #: controller -> (owning segment, position inside it), for the
        #: rebalance path to flush deferred state on demand.
        self._seg_of_ctrl: Dict[object, Tuple[_Segment, int]] = {
            ctrl: (segment, pos)
            for segment in self.segments
            for pos, ctrl in enumerate(segment.controllers)
        }

    @staticmethod
    def _fusable(site: Site) -> bool:
        controller = site.controller
        return isinstance(
            controller, VectorizedWillowController
        ) and isinstance(controller.demand_source, DemandGenerator)

    def snapshot_state(self) -> Dict:
        """Not supported: the fused tick defers object scatter behind
        per-site dirty flags, so between-ticks object state is not
        guaranteed coherent.  Build with ``vectorized=False`` for a
        checkpointable federation (site controllers may themselves be
        vectorized via ``SiteSpec.vectorized``)."""
        from repro.checkpoint.errors import CheckpointError

        raise CheckpointError(
            "BatchedFederationCoordinator does not support checkpointing; "
            "build the federation with vectorized=False (per-site "
            "vectorized controllers remain supported)"
        )

    # ------------------------------------------------------------------ run
    def run(self, n_ticks: int) -> "FederationCoordinator":
        result = super().run(n_ticks)
        for segment in self.segments:
            segment.flush()
        return result

    # ----------------------------------------------------------------- tick
    def _tick_sites(self, now: float) -> None:
        for part in self._plan:
            if not isinstance(part, _Segment):
                part.controller._tick()
            elif part.tracing_active():
                # Site tracing needs the per-site frame order: fall
                # back to site-major ticks through one-site segments.
                part.scalar_tick()
            else:
                part.tick(now)
        if self.on_tick:
            # Coordinator hooks run between ticks and read the objects.
            for segment in self.segments:
                segment.flush()

    # ----------------------------------------------------------- rebalance
    def _shed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Array pre-screen of the Sec. IV-E shedding rule.

        Donor order and per-server largest-first takes come from
        :mod:`repro.binpack.prescreen`; per-server floats come straight
        off the block arrays (bit-identical to the object attributes an
        eager tick would have written), so decisions (and the
        directive's running left fold) are exactly the scalar
        coordinator's.
        """
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._shed_candidates(site, watts)
        entry = self._seg_of_ctrl.get(controller)
        if entry is not None:
            # VM metadata is read from the objects below.
            entry[0]._flush_vms(entry[1])
        config = site.config
        fleet = controller.fleet
        rows = deficient_order(
            fleet.awake, fleet.raw, fleet.budget, fleet.node_ids, _EPS
        )
        left = watts
        out: List[Tuple[int, float, Item]] = []
        if not len(rows):
            return out
        raw_list = fleet.raw[rows].tolist()
        budget_list = fleet.budget[rows].tolist()
        for k_row, r in enumerate(rows.tolist()):
            if left <= _EPS:
                break
            server = fleet.servers[r]
            raw_r = raw_list[k_row]
            budget_r = budget_list[k_row]
            deficit = raw_r - budget_r
            goal = max(budget_r - config.p_min, 0.0)
            vms = list(server.vms.values())
            if not vms:
                continue
            demands = np.fromiter(
                (v.current_demand for v in vms), float, len(vms)
            )
            vm_ids = np.fromiter(
                (v.vm_id for v in vms), np.int64, len(vms)
            )
            order = shed_vm_order(demands, vm_ids)
            takes, left = shed_takes(
                demands[order], raw_r, goal, left, _EPS
            )
            for k in takes:
                vm = vms[int(order[k])]
                out.append(
                    (
                        server.node.node_id,
                        deficit,
                        Item(
                            key=vm.vm_id,
                            size=vm.current_demand,
                            payload=vm,
                        ),
                    )
                )
        return out

    def _preshed_candidates(
        self, site: Site, watts: float
    ) -> List[Tuple[int, float, Item]]:
        """Pre-emptive shedding for a batched site.

        VM takes are decided on the object metadata, so the deferred
        segment state is flushed first; server order (least headroom
        first) comes off the block arrays, bit-identical to the scalar
        coordinator's attribute reads.
        """
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._preshed_candidates(site, watts)
        entry = self._seg_of_ctrl.get(controller)
        if entry is not None:
            entry[0]._flush_vms(entry[1])
        fleet = controller.fleet
        headroom = fleet.budget - fleet.raw
        rows = np.lexsort((fleet.node_ids, headroom))
        remaining_directive = watts
        out: List[Tuple[int, float, Item]] = []
        awake_list = fleet.awake[rows].tolist()
        for k_row, r in enumerate(rows.tolist()):
            if remaining_directive <= _EPS:
                break
            if not awake_list[k_row]:
                continue
            server = fleet.servers[r]
            for vm in sorted(
                server.vms.values(),
                key=lambda v: (-v.current_demand, v.vm_id),
            ):
                if remaining_directive <= _EPS:
                    break
                if vm.current_demand <= 0:
                    continue
                if vm.current_demand > remaining_directive + _EPS:
                    continue
                out.append(
                    (
                        server.node.node_id,
                        watts,
                        Item(
                            key=vm.vm_id,
                            size=vm.current_demand,
                            payload=vm,
                        ),
                    )
                )
                remaining_directive -= vm.current_demand
        return out

    def _destination_bins(self, site: Site) -> List[Bin]:
        """Array pre-screen of the FFDLR receiver bins (awake, not
        deficient, not squeezed, positive post-margin surplus)."""
        controller = site.controller
        if not isinstance(controller, VectorizedWillowController):
            return super()._destination_bins(site)
        wan_power, _ = self._wan_cost(site)
        config = site.config
        fleet = controller.fleet
        squeezed = controller._squeezed_mask(fleet.smoother.values)
        capacity = fleet.budget - fleet.raw - config.p_min - wan_power
        order, caps = destination_order(
            fleet.awake,
            fleet.raw,
            fleet.budget,
            squeezed,
            capacity,
            fleet.node_ids,
            _EPS,
        )
        cap_list = caps.tolist()
        node_list = fleet.node_ids[order].tolist()
        return [
            Bin(key=int(node_id), capacity=cap_list[k])
            for k, node_id in enumerate(node_list)
        ]

    def _move_vm(self, vm, src_site, src_node, dst_site, dst_node, now, **kw):
        if self._vm_home is None:
            self._vm_home = {
                v.vm_id: i
                for i, s in enumerate(self.sites)
                for v in s.controller.placement.vms
            }
        super()._move_vm(
            vm, src_site, src_node, dst_site, dst_node, now, **kw
        )

    # ------------------------------------------------------------ snapshot
    def fleet_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-site raw/served/budget totals as segment reductions over
        the shared block (scalar-ticking sites summed from objects)."""
        out: Dict[str, Dict[str, float]] = {}
        if self.fed_fleet is not None:
            fed = self.fed_fleet
            raw = fed.site_sums(fed.raw)
            served = fed.site_sums(fed.served)
            budget = fed.site_sums(fed.budget)
            fused = [
                s for s in self.sites if self._fusable(s)
            ]
            for k, site in enumerate(fused):
                out[site.name] = {
                    "raw": float(raw[k]),
                    "served": float(served[k]),
                    "budget": float(budget[k]),
                }
        for site in self.sites:
            if site.name in out:
                continue
            servers = site.controller.servers.values()
            out[site.name] = {
                "raw": float(sum(s.raw_demand for s in servers)),
                "served": float(sum(s.served_power for s in servers)),
                "budget": float(sum(s.budget for s in servers)),
            }
        return out
