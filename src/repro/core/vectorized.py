"""The array tick: the Willow loop over struct-of-arrays, for 1..k sites.

There is one array implementation of the per-tick control loop (sample
-> Eq. 4 smoothing -> Sec. IV-D waterfall -> Sec. IV-E/F planning ->
serve -> thermal step), :class:`_Segment`, and two ways to drive it:

* :class:`VectorizedWillowController` -- a drop-in
  :class:`~repro.core.controller.WillowController` whose tick is a
  one-site segment over its :class:`~repro.core.fleet.FleetState`,
  flushed at every tick boundary.
* :class:`~repro.federation.vectorized.BatchedFederationCoordinator`
  -- ticks each run of consecutive array-capable sites as one
  multi-site segment over a shared
  :class:`~repro.core.fleet.FederationFleet` block.

How a segment ticks:

* **Level-at-a-time.**  Batched Poisson sampling, Eq. 4 smoothing, the
  Eq. 2/3 thermal step and serving are array expressions over the
  block; tree levels of every member site concatenate into one fold and
  one ``allocate_level`` call per level, and switch reserves fold over
  one shared switch-power array.
* **Deferred scatter.**  The arrays are the truth inside a tick.
  Per-server and per-VM objects are refreshed only where scalar code
  reads them (the migration planner, consolidation, priority serving,
  ``on_tick`` hooks) and by :meth:`_Segment.flush`.  A multi-site
  segment queues server samples, switch samples and control messages
  as per-tick column blocks (:class:`~repro.metrics.columnar.LazyList`),
  built only if somebody reads them; a one-site segment builds them
  inside the tick, so nothing it starts outlives the tick.
* **Bit-exact staleness** (multi-site only).  A site-major coordinator
  serves a VM hosted at site ``s`` but homed at a later site ``h``
  against last tick's demand.  The fused tick samples every site up
  front, so it restores the stale value onto exactly those late-pair VM
  objects for the tick and re-applies the fresh sample at its end.

A one-site segment emits the site's tracer records in the scalar order
and adds IPC switch traffic; a traced site in a batched federation
ticks through its own one-site segment.  Numerical contract: bit-exact
with the scalar loop until the first migration reorders a per-host
demand sum, ``rtol=1e-12`` after (docs/performance.md,
tests/test_vectorized_equivalence.py, tests/test_federation_vectorized.py).

Not supported: ``config.device_classes`` (the per-device thermal state
is inherently object-shaped; use the scalar controller).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.controller import WillowController, _EPS
from repro.core.deficits import power_imbalance
from repro.core.events import ControlMessage, Drop, MigrationCause
from repro.core.fleet import FleetState, build_fold_index, fold_segment_sums
from repro.core.migration import PlannedMove
from repro.metrics.collector import ServerSample, SwitchSample
from repro.metrics.columnar import LazyList
from repro.power.budget import LevelIndex, allocate_level
from repro.thermal.model import temperature_step_arrays
from repro.trace.tracer import NULL_TRACER
from repro.workload.generator import DemandGenerator

__all__ = ["VectorizedWillowController"]

#: Margin below which the per-VM scalar serving loop is used instead of
#: the vectorized fast path, so borderline budget/demand ties resolve
#: exactly as in the scalar controller.
_SERVE_MARGIN = 1e-6

#: FleetState arrays a segment reads and writes through block views.
_VIEW_FIELDS = (
    "static_power",
    "standby_power",
    "slope",
    "t_ambient",
    "t_limit",
    "c1",
    "c2",
    "decay_tick",
    "decay_window",
    "awake",
    "asleep",
    "waking",
    "mig_cost",
    "budget",
    "temperature",
    "raw",
    "served",
)


# ------------------------------------------------------------ lazy blocks
def _server_block(now, ids, wall, temps, util, raw, budget, awake):
    """Materialiser for one site's per-tick server samples."""

    def build():
        w = wall.tolist()
        t = temps.tolist()
        u = util.tolist()
        r = raw.tolist()
        b = budget.tolist()
        a = awake.tolist()
        return [
            ServerSample(now, ids[j], w[j], t[j], u[j], r[j], b[j], not a[j])
            for j in range(len(ids))
        ]

    return build


def _switch_block(now, ids, levels, base, mig, power):
    """Materialiser for one site's per-tick switch samples."""

    def build():
        b = base.tolist()
        m = mig.tolist()
        p = power.tolist()
        return [
            SwitchSample(now, ids[j], levels[j], b[j], m[j], p[j])
            for j in range(len(ids))
        ]

    return build


def _message_block(now, ids, upward):
    """Materialiser for one site's per-tick control messages."""
    return lambda: [ControlMessage(now, c, upward) for c in ids]


class _SegLevel:
    """One tree level, concatenated across every site of a segment.

    Nodes and children keep each site's (node, child) nesting order, so
    every per-node fold walks its children left to right exactly like
    the scalar loops.
    """

    __slots__ = (
        "nodes",
        "runtimes",
        "child_nodes",
        "child_runtimes",
        "node_gidx",
        "child_gidx",
        "pad_idx",
        "valid",
        "alloc_index",
        "reserve_rows",
        "reserve_pad",
        "reserve_valid",
        "capacity_mode",
        "capacity_mask",
    )

    def __init__(self, controllers, level: int, node_offsets, switch_rows):
        self.nodes = []
        self.runtimes = []
        self.child_nodes = []
        self.child_runtimes = []
        node_gidx: List[int] = []
        child_gidx: List[int] = []
        sizes: List[int] = []
        reserve_rows: List[int] = []
        reserve_sizes: List[int] = []
        capacity: List[bool] = []
        for i, ctrl in enumerate(controllers):
            if level > ctrl.tree.root.level:
                continue
            off = node_offsets[i]
            by_capacity = ctrl.config.allocation_mode == "capacity"
            for node in ctrl.tree.nodes_at_level(level):
                self.nodes.append(node)
                self.runtimes.append(ctrl.internals[node.node_id])
                node_gidx.append(off + node.node_id)
                sizes.append(len(node.children))
                for child in node.children:
                    self.child_nodes.append(child)
                    owner = ctrl.servers if child.is_leaf else ctrl.internals
                    self.child_runtimes.append(owner[child.node_id])
                    child_gidx.append(off + child.node_id)
                    capacity.append(by_capacity)
                # Each node's colocated switches, in the order the
                # scalar reserve ``sum()`` walks them.
                switches = list(ctrl.fabric.at_site(node))
                reserve_sizes.append(len(switches))
                reserve_rows.extend(switch_rows[i][s.switch_id] for s in switches)
        self.node_gidx = np.asarray(node_gidx, dtype=np.intp)
        self.child_gidx = np.asarray(child_gidx, dtype=np.intp)
        sizes = np.asarray(sizes, dtype=np.intp)
        self.pad_idx, self.valid = build_fold_index(sizes)
        self.alloc_index = LevelIndex(
            np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp),
            len(child_gidx),
        )
        self.reserve_rows = np.asarray(reserve_rows, dtype=np.intp)
        self.reserve_pad, self.reserve_valid = build_fold_index(
            np.asarray(reserve_sizes, dtype=np.intp)
        )
        mask = np.asarray(capacity, dtype=bool)
        if mask.all() or not mask.any():
            self.capacity_mode = bool(mask[0]) if len(mask) else False
            self.capacity_mask = None
        else:
            self.capacity_mode = False
            self.capacity_mask = mask


class _Segment:
    """A run of consecutive array-capable sites, ticked as one.

    ``controllers`` are :class:`VectorizedWillowController` instances.
    With ``coordinator=None`` the segment is a controller's own
    one-site tick over its fleet arrays; otherwise it spans the
    coordinator's ``fed_fleet`` block across its sites' consecutive
    slices and keeps the coordinator's late-pair staleness.
    """

    def __init__(self, controllers, coordinator=None):
        ctrls = list(controllers)
        # A one-site segment lives on its controller and refers back
        # weakly, so a finished controller (and every row it recorded)
        # is freed at once rather than by the next full collection.
        if coordinator is None:
            self._owner = weakref.ref(ctrls[0])
        else:
            self._owner = None
            self._controllers = ctrls
        self.coordinator = coordinator
        sizes = [ctrl.fleet.n for ctrl in ctrls]
        bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
        self.n = int(bounds[-1])
        self.local_slices = [
            slice(int(bounds[i]), int(bounds[i + 1])) for i in range(len(ctrls))
        ]
        self.row_site = np.repeat(np.arange(len(ctrls)), sizes)
        self.row_base = bounds[:-1]

        # Views, never copies: per-site code (gathers, consolidation
        # resync, the rebalance pre-screens) sees the same memory.
        if coordinator is None:
            (ctrl,) = ctrls
            source, sl = ctrl.fleet, slice(None)
            smoother = ctrl.fleet.smoother
            self.values = smoother.values
            self.primed = smoother.primed
            self.alpha = smoother.alpha
            # Tracer frames are per site, so only a one-site segment
            # traces; a batched coordinator ticks traced sites through
            # their own segments.
            self.tracer = ctrl.tracer
        else:
            source = coordinator.fed_fleet
            first = source.fleets.index(ctrls[0].fleet)
            sl = slice(
                source.site_slices[first].start,
                source.site_slices[first + len(ctrls) - 1].stop,
            )
            self.values = source.smoother_values[sl]
            self.primed = source.smoother_primed[sl]
            self.alpha = source.alpha[sl]
            self.tracer = NULL_TRACER
            site_ctrls = [site.controller for site in coordinator.sites]
            self.global_idx = [site_ctrls.index(ctrl) for ctrl in ctrls]
            self._seg_pos = {g: pos for pos, g in enumerate(self.global_idx)}
        for name in _VIEW_FIELDS:
            setattr(self, name, getattr(source, name)[sl])

        # Node buffers: site i's node-id space maps to
        # [node_offsets[i], node_offsets[i] + its node count).
        node_offsets = []
        total = 0
        for ctrl in ctrls:
            node_offsets.append(total)
            total += max(node.node_id for node in ctrl.tree) + 1
        self._caps_buf = np.zeros(total)
        self._budget_buf = np.zeros(total)
        self._demand_buf = np.zeros(total)
        self._served_buf = np.zeros(total)
        self._vm_sums = np.zeros(self.n)
        self.server_gidx = np.concatenate(
            [off + ctrl.fleet.node_ids for off, ctrl in zip(node_offsets, ctrls)]
        )
        self._server_ids = [ctrl.fleet.node_ids.tolist() for ctrl in ctrls]
        self.root_entries = [
            (
                off + ctrl.tree.root.node_id,
                ctrl.internals[ctrl.tree.root.node_id],
            )
            for off, ctrl in zip(node_offsets, ctrls)
        ]

        # Switch power as one shared array: the allocation reserves and
        # the switch recording read and write it; each site's
        # ``_last_switch_power`` dict is refreshed from it on flush.
        self._sw_slices = []
        self._sw_meta = []
        self._sw_pos: List[Dict[int, int]] = []
        sw_site_gidx, sw_red, sw_static, sw_wpu = [], [], [], []
        start = 0
        for off, ctrl in zip(node_offsets, ctrls):
            switches = list(ctrl.fabric.switches)
            self._sw_slices.append(slice(start, start + len(switches)))
            self._sw_meta.append(
                ([s.switch_id for s in switches], [s.level for s in switches])
            )
            self._sw_pos.append(
                {s.switch_id: start + k for k, s in enumerate(switches)}
            )
            start += len(switches)
            sw_site_gidx.extend(off + s.site.node_id for s in switches)
            sw_red.extend(float(s.redundancy) for s in switches)
            model = ctrl.config.switch_model
            sw_static.extend([model.static_power] * len(switches))
            sw_wpu.extend([model.watts_per_unit_traffic] * len(switches))
        self._sw_site_gidx = np.asarray(sw_site_gidx, dtype=np.intp)
        self._sw_red = np.asarray(sw_red, dtype=float)
        self._sw_static = np.asarray(sw_static, dtype=float)
        self._sw_wpu = np.asarray(sw_wpu, dtype=float)

        # Tree levels grouped by height: one fold / one allocate_level
        # call spans every site that has that level.
        max_level = max(ctrl.tree.root.level for ctrl in ctrls)
        self.levels = [
            _SegLevel(ctrls, level, node_offsets, self._sw_pos)
            for level in range(1, max_level + 1)
        ]
        # Per-site control-message ids in emission order: levels
        # ascending for demand reports, descending for budget grants.
        self._up_ids = []
        self._down_ids = []
        for ctrl in ctrls:
            per_level = [
                [c.node_id for node in ctrl.tree.nodes_at_level(level)
                 for c in node.children]
                for level in range(1, ctrl.tree.root.level + 1)
            ]
            self._up_ids.append(tuple(c for ids in per_level for c in ids))
            self._down_ids.append(
                tuple(c for ids in reversed(per_level) for c in ids)
            )

        modes = {ctrl.config.thermal_mode for ctrl in ctrls}
        self.thermal_mode = modes.pop() if len(modes) == 1 else None
        caps = [ctrl.fleet.window_caps for ctrl in ctrls]
        self._static_caps = (
            np.concatenate(caps) if all(c is not None for c in caps) else None
        )

        # A batched segment's sample/message lists become lazily
        # materialised column stores.  A one-site segment builds its rows
        # inside the tick, as the scalar controller does: a deferred
        # block would outlive the tick and cost its reader a pause that
        # grows with the run.
        self._lazy = coordinator is not None
        if self._lazy:
            for ctrl in ctrls:
                collector = ctrl.collector
                for name in ("server_samples", "switch_samples", "messages"):
                    rows = getattr(collector, name)
                    if not isinstance(rows, LazyList):
                        setattr(collector, name, LazyList(rows))
        self._dirty_servers = [False] * len(ctrls)
        self._dirty_vms = [False] * len(ctrls)
        self._demands: List[Optional[np.ndarray]] = [None] * len(ctrls)
        self._adopt_object_state()

    @property
    def controllers(self) -> list:
        if self._owner is None:
            return self._controllers
        return [self._owner()]

    # ---------------------------------------------------------------- gates
    def tracing_active(self) -> bool:
        return any(ctrl.tracer.enabled for ctrl in self.controllers)

    def _late_pairs(self) -> list:
        """Foreign VM objects whose *home* site sits later in this
        segment than their host: the scalar coordinator would serve
        them against last tick's demand."""
        if self.coordinator is None or self.coordinator._vm_home is None:
            return []
        home_of = self.coordinator._vm_home
        out = []
        for pos, ctrl in enumerate(self.controllers):
            for vm_id, vm in ctrl._foreign_vms.items():
                h_pos = self._seg_pos.get(home_of.get(vm_id, -1))
                if h_pos is not None and h_pos > pos:
                    out.append(vm)
        return out

    def _emit(self, rows: list, build) -> None:
        """Queue one column block (batched) or build its rows now."""
        if self._lazy:
            rows.push_block(build)
        else:
            rows.extend(build())

    # --------------------------------------------------------------- sync
    def _flush_servers(self, i: int) -> None:
        """Scatter site ``i``'s array state back onto its runtimes.

        Position-independent: the block arrays always hold exactly the
        values an eager tick would have written to the objects by the
        same point, so scalar readers (planner, consolidation, gather)
        see identical state.
        """
        if not self._dirty_servers[i]:
            return
        self._dirty_servers[i] = False
        sl = self.local_slices[i]
        raw = self.raw[sl].tolist()
        smoothed = self.values[sl].tolist()
        served = self.served[sl].tolist()
        temps = self.temperature[sl].tolist()
        peaks = self._peak[sl].tolist()
        violations = self._viol[sl].tolist()
        for j, server in enumerate(self.controllers[i].fleet.servers):
            server.raw_demand = raw[j]
            server.smoothed_demand = smoothed[j]
            server.smoother._value = smoothed[j]
            server.served_power = served[j]
            thermal = server.thermal
            thermal.temperature = temps[j]
            thermal.peak = peaks[j]
            thermal.violations = violations[j]

    def _flush_vms(self, i: int) -> None:
        """Write site ``i``'s home-VM demand objects from the last
        sample.  Exported guests are skipped: they were refreshed
        eagerly at sample time and may carry a deliberate stale value
        (late-pair staleness) that must survive the flush."""
        if not self._dirty_vms[i]:
            return
        self._dirty_vms[i] = False
        ctrl = self.controllers[i]
        values = self._demands[i].tolist()
        vms = ctrl.placement.vms
        if ctrl._away_count:
            away = ctrl._vm_away.tolist()
            for r, vm in enumerate(vms):
                if not away[r]:
                    vm.current_demand = values[r]
        else:
            for vm, value in zip(vms, values):
                vm.current_demand = value

    def _flush_switch_dict(self) -> None:
        if not self._switch_dict_stale:
            return
        self._switch_dict_stale = False
        power = self._switch_power.tolist()
        for i, ctrl in enumerate(self.controllers):
            last = ctrl._last_switch_power
            sl = self._sw_slices[i]
            for switch_id, value in zip(self._sw_meta[i][0], power[sl]):
                last[switch_id] = value

    def sync_site(self, i: int) -> None:
        """Refresh one site's objects for an external scalar reader."""
        self._flush_servers(i)
        self._flush_vms(i)

    def flush(self) -> None:
        """Make every runtime object current (tick boundary / end of run)."""
        for i in range(len(self.controllers)):
            self.sync_site(i)
        self._flush_switch_dict()

    def _adopt_object_state(self) -> None:
        """(Re-)read the deferred side-cars from the objects: thermal
        peaks, violation counts and switch powers.  The float arrays
        alias the fleets, so they are already current."""
        servers = [s for ctrl in self.controllers for s in ctrl.fleet.servers]
        self._peak = np.fromiter(
            (s.thermal.peak for s in servers), float, self.n
        )
        self._viol = np.fromiter(
            (s.thermal.violations for s in servers), np.int64, self.n
        )
        self._switch_power = np.array(
            [
                ctrl._last_switch_power[switch_id]
                for ctrl, (ids, _levels) in zip(self.controllers, self._sw_meta)
                for switch_id in ids
            ],
            dtype=float,
        )
        self._switch_dict_stale = False
        for i in range(len(self.controllers)):
            self._dirty_servers[i] = False
            self._dirty_vms[i] = False
            self._demands[i] = None

    def scalar_tick(self) -> None:
        """Site-major fallback (tracing): flush, tick each site through
        its own one-site segment, and re-adopt the object state."""
        self.flush()
        for ctrl in self.controllers:
            ctrl._tick()
        self._adopt_object_state()

    # ----------------------------------------------------------------- tick
    def tick(self, now: float) -> None:
        ctrls = self.controllers
        tracer = self.tracer
        if tracer.enabled:
            # Open the frame before the plant hook, as the scalar tick does.
            tracer.begin_tick(ctrls[0]._tick_index, now)

        # 0. housekeeping: sparse scans instead of per-server loops.
        # Sleep transitions come straight off the block's awake lanes;
        # pending migration costs are scanned only while a controller's
        # cost watch is armed (every path that charges a cost arms it,
        # a scan that finds nothing left disarms it).
        for i, ctrl in enumerate(ctrls):
            ctrl._tick_migration_traffic = {}
            fleet = ctrl.fleet
            if ctrl._cost_watch:
                costs_dirty = False
                pending_left = False
                for server in fleet.servers:
                    if server._pending_costs:
                        server.expire_costs()
                        costs_dirty = True
                        if server._pending_costs:
                            pending_left = True
                if costs_dirty:
                    fleet.gather_costs()
                ctrl._cost_watch = pending_left
            sl = self.local_slices[i]
            if not bool(self.awake[sl].all()):
                servers = fleet.servers
                for r in np.nonzero(~self.awake[sl])[0].tolist():
                    servers[r].tick_wake()
                fleet.gather_sleep()
            ctrl._begin_tick(now)

        # 1. sample every site's demand in site order.  The arrays stay
        # authoritative; only exported guests (read as objects by their
        # host sites) are refreshed eagerly, and late-pair guests get
        # the stale value back (their home generator would not have run
        # yet under site-major execution).
        late = self._late_pairs()
        stale_vals = [vm.current_demand for vm in late]
        demands: List[Optional[np.ndarray]] = []
        for i, ctrl in enumerate(ctrls):
            source = ctrl.demand_source
            if isinstance(source, DemandGenerator):
                sample = source.sample_tick_array(write_objects=False)
            else:  # writes the VM objects itself
                source.sample_tick()
                sample = None
            demands.append(sample)
            self._demands[i] = sample
            self._dirty_vms[i] = sample is not None
            if sample is not None and ctrl._away_count:
                vms = ctrl.placement.vms
                rows = np.nonzero(ctrl._vm_away)[0]
                for r, value in zip(rows.tolist(), sample[rows].tolist()):
                    vms[r].current_demand = value
        fresh_vals = [vm.current_demand for vm in late]
        for vm, stale in zip(late, stale_vals):
            vm.current_demand = stale

        # 2. per-host sums, raw wall demand and Eq. 4 over the block.
        vm_sums = self._vm_sums
        for i, ctrl in enumerate(ctrls):
            vm_sums[self.local_slices[i]] = ctrl._host_demand_sums(demands[i])
        raw = np.where(
            self.asleep,
            self.standby_power,
            np.where(
                self.waking,
                self.static_power,
                self.static_power + vm_sums + self.mig_cost,
            ),
        )
        # VectorSmoother.update, with a per-lane alpha across sites: the
        # same IEEE-754 expression per lane.  Waking servers keep their
        # wake forecast; everyone else absorbs this tick's observation.
        smoothed_expr = self.alpha * raw + (1.0 - self.alpha) * self.values
        fresh = np.where(self.primed, smoothed_expr, raw)
        mask = ~self.waking
        np.copyto(self.values, fresh, where=mask)
        self.primed |= mask
        smoothed = self.values
        self.raw[...] = raw
        for i in range(len(ctrls)):
            self._dirty_servers[i] = True
        self._aggregate_demands(now)

        # 3. the budget waterfall, one allocate_level call per level
        # across every site (the coordinator validates a shared eta1,
        # and segment members share the base cadence rule).
        if ctrls[0]._allocation_due():
            self._allocate_budgets(now)
            self.budget[...] = self._budget_buf[self.server_gidx]
        if tracer.enabled:
            for sid, r, s, b in zip(
                self._server_ids[0],
                raw.tolist(),
                smoothed.tolist(),
                self.budget.tolist(),
            ):
                tracer.record_demand(sid, r, s, b)

        # 4. per-site demand migrations (planner state is per site).
        moved = [False] * len(ctrls)
        for i, ctrl in enumerate(ctrls):
            sl = self.local_slices[i]
            deficient = self.awake[sl] & (raw[sl] > self.budget[sl] + _EPS)
            if not bool(deficient.any()):
                continue
            # The planner walks runtime objects (raw demand, budgets,
            # VM demands): refresh this site before handing over.
            self.sync_site(i)
            plan = ctrl._plan_demand_migrations(raw[sl], smoothed[sl])
            if plan is not None:
                ctrl._execute_moves(plan.moves, MigrationCause.DEMAND, now)
                moved[i] = bool(plan.moves)
                for vm, node in plan.dropped:
                    ctrl.collector.record_unmatched(
                        Drop(now, node.node_id, vm.vm_id, vm.current_demand)
                    )

        # 5. per-site consolidation on each site's own eta2 cadence.
        for i, ctrl in enumerate(ctrls):
            if ctrl._tick_index > 0 and ctrl._tick_index % ctrl.config.eta2 == 0:
                # Consolidation reads and mutates the objects (and may
                # reset a woken server's smoother), then gather()
                # re-adopts them into the arrays wholesale.
                self.sync_site(i)
                n_migrations = len(ctrl.collector.migrations)
                ctrl._consolidate(now)
                moved[i] = moved[i] or len(ctrl.collector.migrations) > n_migrations
                ctrl.fleet.gather()
                self._dirty_servers[i] = False
            if moved[i]:
                # Migrations rehomed VMs and charged costs mid-tick.
                vm_sums[self.local_slices[i]] = ctrl._host_demand_sums(
                    demands[i]
                )
                ctrl.fleet.gather_costs()

        # 6. serve power within budget; throttle any residual excess.
        available = np.maximum(
            self.budget - self.static_power - self.mig_cost, 0.0
        )
        fast = self.awake & (available >= vm_sums + _SERVE_MARGIN)
        served = np.where(fast, vm_sums, 0.0)
        slow_rows = np.nonzero(self.awake & ~fast)[0]
        if len(slow_rows):
            available_list = available.tolist()
            for r in slow_rows.tolist():
                i = int(self.row_site[r])
                ctrl = ctrls[i]
                self._flush_vms(i)  # priority serving reads VM objects
                served[r] = ctrl._serve_scalar(
                    ctrl.fleet.servers[r - int(self.row_base[i])],
                    available_list[r],
                    now,
                )
        self.served[...] = served

        # 7. thermal update (Eq. 2/3) over the block, then samples.
        wall = np.where(
            self.asleep,
            self.standby_power,
            np.where(
                self.waking,
                self.static_power,
                self.static_power + served,
            ),
        )
        if self.thermal_mode is not None:
            temps, violations = self._thermal_step(self, self.thermal_mode, wall)
        else:  # mixed thermal modes: per-site sub-sweeps
            temps = np.empty(self.n)
            violations = np.empty(self.n, dtype=bool)
            for i, ctrl in enumerate(ctrls):
                sl = self.local_slices[i]
                temps[sl], violations[sl] = self._thermal_step(
                    ctrl.fleet, ctrl.config.thermal_mode, wall[sl]
                )
        self.temperature[...] = temps
        utilization = np.where(
            self.awake, np.minimum(served / self.slope, 1.0), 0.0
        )
        np.maximum(self._peak, temps, out=self._peak)
        self._viol += violations
        # One column block per site; budget/awake mutate across ticks,
        # so a queued block snapshots those two columns.
        budget_copy = self.budget.copy()
        awake_copy = self.awake.copy()
        for i, ctrl in enumerate(ctrls):
            sl = self.local_slices[i]
            self._emit(
                ctrl.collector.server_samples,
                _server_block(
                    now,
                    self._server_ids[i],
                    wall[sl],
                    temps[sl],
                    utilization[sl],
                    raw[sl],
                    budget_copy[sl],
                    awake_copy[sl],
                ),
            )
            self._dirty_servers[i] = True

        # 8+9. switch power and level-0 imbalance (Eq. 9).
        self._record_switches(now)
        for i, ctrl in enumerate(ctrls):
            ctrl.collector.record_imbalance(
                now,
                power_imbalance(raw[self.local_slices[i]], ctrl.fleet.budget),
            )
        for i, ctrl in enumerate(ctrls):
            if ctrl.on_tick:
                self.sync_site(i)
                self._flush_switch_dict()
                for hook in ctrl.on_tick:
                    hook(ctrl, ctrl._tick_index, now)
            ctrl._tick_index += 1

        # The segment is done reading: late-pair guests now carry the
        # demand their home generator sampled this tick, exactly the
        # state site-major execution leaves behind.
        for vm, value in zip(late, fresh_vals):
            vm.current_demand = value

    @staticmethod
    def _thermal_step(arrays, mode: str, wall: np.ndarray):
        """Eq. 2/3 for one thermal mode: ``window_reset`` re-derives
        each temperature from the zone ambient at this tick's power
        (paper Sec. V-B2); ``integrated`` advances it one tick."""
        if mode == "window_reset":
            start, decay, slack = arrays.t_ambient, arrays.decay_window, 1e-6
        else:
            start, decay, slack = arrays.temperature, arrays.decay_tick, 1e-9
        temps = temperature_step_arrays(
            start,
            wall,
            t_ambient=arrays.t_ambient,
            c1=arrays.c1,
            c2=arrays.c2,
            decay=decay,
        )
        return temps, temps > arrays.t_limit + slack

    # ------------------------------------------------------- demand reports
    def _aggregate_demands(self, now: float) -> None:
        """Bottom-up Eq. 4 propagation, one fold per level across all
        segment sites at once (groups are independent, so concatenating
        sites preserves each per-node left-to-right fold)."""
        below = self._demand_buf
        below[self.server_gidx] = self.values
        for level in self.levels:
            totals = fold_segment_sums(
                below[level.child_gidx], level.pad_idx, level.valid
            )
            for runtime, total in zip(level.runtimes, totals.tolist()):
                runtime.observe_demand(total)
            below[level.node_gidx] = np.fromiter(
                (r.smoothed_demand for r in level.runtimes),
                float,
                len(level.runtimes),
            )
        for i, ctrl in enumerate(self.controllers):
            self._emit(
                ctrl.collector.messages,
                _message_block(now, self._up_ids[i], True),
            )

    # ------------------------------------------------------------ switches
    def _record_switches(self, now: float) -> None:
        """Scalar ``_record_switches`` across every site at once: one
        served-power fold per level, one linear power expression over
        the shared switch array, lazily-queued samples."""
        below = self._served_buf
        below[self.server_gidx] = self.served
        for level in self.levels:
            below[level.node_gidx] = fold_segment_sums(
                below[level.child_gidx], level.pad_idx, level.valid
            )
        base = below[self._sw_site_gidx] / self._sw_red
        migration = np.zeros(len(base))
        for i, ctrl in enumerate(self.controllers):
            pos = self._sw_pos[i]
            for switch_id, extra in ctrl._ipc_traffic().items():
                base[pos[switch_id]] += extra
            for switch_id, extra in ctrl._tick_migration_traffic.items():
                migration[pos[switch_id]] += extra
        power = self._sw_static + self._sw_wpu * (base + migration)
        self._switch_power = power
        self._switch_dict_stale = True
        for i, ctrl in enumerate(self.controllers):
            sl = self._sw_slices[i]
            ids, levels = self._sw_meta[i]
            self._emit(
                ctrl.collector.switch_samples,
                _switch_block(now, ids, levels, base[sl], migration[sl], power[sl]),
            )

    # --------------------------------------------------------- supply side
    def _hard_caps(self) -> np.ndarray:
        if self._static_caps is not None:
            return self._static_caps
        return np.concatenate(
            [ctrl.fleet.hard_caps() for ctrl in self.controllers]
        )

    def _allocate_budgets(self, now: float) -> None:
        """The Sec. IV-D waterfall, level-at-a-time across all sites."""
        tracer = self.tracer
        caps = self._caps_buf
        caps[self.server_gidx] = self._hard_caps()
        for level in self.levels:
            caps[level.node_gidx] = fold_segment_sums(
                caps[level.child_gidx], level.pad_idx, level.valid
            )

        budgets = self._budget_buf
        for ctrl, (root_gid, runtime) in zip(
            self.controllers, self.root_entries
        ):
            ctrl.root_budget = ctrl.supply.at(now)
            runtime.set_budget(min(ctrl.root_budget, caps[root_gid]))
            budgets[root_gid] = runtime.budget
            if tracer.enabled:
                tracer.record_root(
                    ctrl.root_budget, caps[root_gid], runtime.budget
                )

        for level in reversed(self.levels):
            # Reserve each node's colocated switch draw off the top.
            reserves = fold_segment_sums(
                self._switch_power[level.reserve_rows],
                level.reserve_pad,
                level.reserve_valid,
            )
            parent_budget = np.maximum(
                budgets[level.node_gidx] - reserves, 0.0
            )
            child_caps = caps[level.child_gidx]
            if level.capacity_mask is None:
                weights = (
                    child_caps
                    if level.capacity_mode
                    else self._demand_buf[level.child_gidx]
                )
            else:
                weights = np.where(
                    level.capacity_mask,
                    child_caps,
                    self._demand_buf[level.child_gidx],
                )
            allocations, _unused = allocate_level(
                parent_budget, weights, child_caps, index=level.alloc_index
            )
            budgets[level.child_gidx] = allocations
            allocation_list = allocations.tolist()
            for runtime, allocation in zip(level.child_runtimes, allocation_list):
                runtime.set_budget(allocation)
            if tracer.enabled:
                self._trace_level(
                    level, allocation_list, weights, child_caps,
                    parent_budget, reserves,
                )
        for i, ctrl in enumerate(self.controllers):
            self._emit(
                ctrl.collector.messages,
                _message_block(now, self._down_ids[i], False),
            )

    def _trace_level(
        self, level, allocations, weights, caps, parent_budget, reserves
    ) -> None:
        """One level's allocation records, in scalar child order."""
        circuit_limit = self.controllers[0].config.circuit_limit
        seg = level.alloc_index.seg.tolist()
        weights = np.asarray(weights).tolist()
        caps = caps.tolist()
        parent_budget = parent_budget.tolist()
        reserves = reserves.tolist()
        for k, child in enumerate(level.child_nodes):
            g = seg[k]
            self.tracer.record_allocation(
                child.node_id,
                level.nodes[g].node_id,
                child.level,
                allocations[k],
                weights[k],
                caps[k],
                parent_budget[g],
                reserves[g],
                leaf=child.is_leaf,
                circuit_limit=circuit_limit if child.is_leaf else None,
            )


class VectorizedWillowController(WillowController):
    """Drop-in replacement for :class:`WillowController` whose tick is
    a one-site :class:`_Segment`.  Same constructor, same metrics, same
    hooks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.config.device_classes is not None:
            raise ValueError(
                "VectorizedWillowController does not support device_classes; "
                "use the scalar WillowController for device-level thermal runs"
            )
        ordered = [self.servers[leaf.node_id] for leaf in self.tree.servers()]
        self.fleet = FleetState(ordered, self.config)
        # One full gather seeds the arrays; after this the tick only
        # re-reads what other actors mutate (sleep states and migration
        # costs) -- budgets, temperatures and smoother lanes are written
        # by the tick alone and scattered back to the objects.
        self.fleet.gather()
        #: row in the VM demand vector for each vm_id (plan order)
        self._vm_row: Dict[int, int] = {
            vm.vm_id: i for i, vm in enumerate(self.placement.vms)
        }
        self._vm_host_rows = np.array(
            [self.fleet.index[vm.host_id] for vm in self.placement.vms],
            dtype=np.intp,
        )
        # Cross-site hosting support (geo-federation): home VMs that a
        # coordinator moved away contribute nothing here, while foreign
        # VMs hosted on this site's servers are added as a sparse
        # correction on top of the batched per-host sums.
        self._vm_away = np.zeros(len(self.placement.vms), dtype=bool)
        self._away_count = 0
        self._foreign_vms: Dict[int, object] = {}
        self._foreign_rows: Dict[int, int] = {}
        #: Armed by every path that charges a migration cost; the tick
        #: scans for pending costs only while it is set.
        self._cost_watch = True

        # Ancestor chains as an index matrix into a per-internal-node
        # flag vector, for the vectorized unidirectional-rule check.
        # Ragged chains pad with a sentinel slot that is always False.
        self._internal_list = list(self.internals.values())
        internal_index = {
            runtime.node.node_id: j
            for j, runtime in enumerate(self._internal_list)
        }
        chains = [
            [internal_index[a.node_id] for a in s.node.ancestors()]
            for s in self.fleet.servers
        ]
        depth = max((len(c) for c in chains), default=0)
        sentinel = len(self._internal_list)
        self._anc_matrix = np.full(
            (self.fleet.n, max(depth, 1)), sentinel, dtype=np.intp
        )
        for i, chain in enumerate(chains):
            self._anc_matrix[i, : len(chain)] = chain
        self._int_flags = np.zeros(sentinel + 1, dtype=bool)

        # Built on the first tick, after a batched coordinator may have
        # rebound this fleet's arrays into its shared block.
        self._segment: Optional[_Segment] = None

    # ----------------------------------------------------------------- tick
    def _tick(self) -> None:
        if self._segment is None:
            self._segment = _Segment([self])
        self._segment.tick(self.env.now)
        self._segment.flush()

    # ---------------------------------------------------------- migrations
    def _plan_demand_migrations(self, raw, smoothed):
        """Array pre-screen + the planner's matching stage.

        Replicates :meth:`MigrationPlanner.plan`'s per-server loops
        (deficient detection, the unidirectional squeeze rule, target
        capacity computation) as array expressions, then hands the
        results to :meth:`MigrationPlanner.plan_prescreened`.  Returns
        ``None`` when no awake server is over budget (the planner would
        return an empty plan).
        """
        fleet = self.fleet
        deficient_mask = fleet.awake & (raw > fleet.budget + _EPS)
        if not bool(deficient_mask.any()):
            return None
        squeezed = self._squeezed_mask(smoothed)
        overhead = self.config.p_min + self.config.migration_cost_power
        cap = np.maximum((fleet.budget - raw) - overhead, 0.0)
        eligible = fleet.awake & ~deficient_mask & ~squeezed & (cap > _EPS)
        cap_list = cap.tolist()
        capacity = {
            fleet.servers[i].node.node_id: cap_list[i]
            for i in np.nonzero(eligible)[0].tolist()
        }
        deficient = [
            fleet.servers[i] for i in np.nonzero(deficient_mask)[0].tolist()
        ]
        return self.migration_planner.plan_prescreened(
            self.servers, deficient, capacity
        )

    def _squeezed_mask(self, smoothed: np.ndarray) -> np.ndarray:
        """Fleet-wide :meth:`MigrationPlanner._squeezed`: a server is
        squeezed when it (or any ancestor) had its budget reduced while
        its smoothed demand still exceeds that budget."""
        fleet = self.fleet
        flags = self._int_flags
        for j, runtime in enumerate(self._internal_list):
            flags[j] = (
                runtime.budget_reduced
                and runtime.smoothed_demand > runtime.budget + _EPS
            )
        reduced = np.fromiter(
            (s.budget_reduced for s in fleet.servers), bool, fleet.n
        )
        return (reduced & (smoothed > fleet.budget + _EPS)) | flags[
            self._anc_matrix
        ].any(axis=1)

    def _execute_moves(
        self, moves: Iterable[PlannedMove], cause: MigrationCause, now: float
    ) -> None:
        moves = list(moves)
        super()._execute_moves(moves, cause, now)
        if moves:
            self._cost_watch = True
        for move in moves:
            vm_id = move.vm.vm_id
            dst_row = self.fleet.index[move.dst.node_id]
            row = self._vm_row.get(vm_id)
            if row is not None:
                self._vm_host_rows[row] = dst_row
            else:  # an intra-site move of a foreign (federated) guest
                self._foreign_rows[vm_id] = dst_row

    # -------------------------------------------------------------- demand
    def _host_demand_sums(self, vm_demands: Optional[np.ndarray]) -> np.ndarray:
        """Per-host VM demand sums, honouring cross-site hosting.

        The batched sum runs over the home placement (plan order, which
        matches each ``server.vms`` insertion order); VMs a federation
        coordinator moved away are zeroed out of the weights, and
        foreign guests are added afterwards in arrival order -- the
        same order the scalar controller's per-server dict sum sees.
        Without a sampled vector the sums come from the objects.
        """
        fleet = self.fleet
        if vm_demands is None:
            return np.fromiter(
                (s.vm_demand for s in fleet.servers), float, fleet.n
            )
        weights = vm_demands
        if self._away_count:
            weights = np.where(self._vm_away, 0.0, vm_demands)
        sums = np.bincount(
            self._vm_host_rows, weights=weights, minlength=fleet.n
        )
        if self._foreign_vms:
            rows = self._foreign_rows
            for vm_id, vm in self._foreign_vms.items():
                sums[rows[vm_id]] += vm.current_demand
        return sums

    # ------------------------------------------------- federation hosting
    # A coordinator charges the WAN migration cost on both endpoints of
    # every cross-site move it reports here, so both hooks arm the
    # pending-cost scan.
    def vm_departed(self, vm) -> None:
        self._cost_watch = True
        row = self._vm_row.get(vm.vm_id)
        if row is not None:
            if not self._vm_away[row]:
                self._vm_away[row] = True
                self._away_count += 1
        else:
            self._foreign_vms.pop(vm.vm_id, None)
            self._foreign_rows.pop(vm.vm_id, None)

    def vm_arrived(self, vm, dst_node_id: int) -> None:
        self._cost_watch = True
        row = self._vm_row.get(vm.vm_id)
        if row is not None:  # a home VM returning from another site
            if self._vm_away[row]:
                self._vm_away[row] = False
                self._away_count -= 1
            self._vm_host_rows[row] = self.fleet.index[dst_node_id]
        else:
            self._foreign_vms[vm.vm_id] = vm
            self._foreign_rows[vm.vm_id] = self.fleet.index[dst_node_id]

    # --------------------------------------------------- checkpoint/restore
    def snapshot_state(self) -> Dict:
        state = super().snapshot_state()
        # The batched bookkeeping is stored verbatim rather than rebuilt
        # from VM host ids: away VMs keep a stale row on purpose, and
        # live arrivals live outside the plan-ordered row map.
        state["vectorized"] = {
            "vm_row": dict(self._vm_row),
            "vm_host_rows": self._vm_host_rows.copy(),
            "vm_away": self._vm_away.copy(),
            "away_count": self._away_count,
            "foreign_vms": dict(self._foreign_vms),
            "foreign_rows": dict(self._foreign_rows),
        }
        return state

    def restore_state(self, state: Dict) -> None:
        super().restore_state(state)
        batched = state["vectorized"]
        self._vm_row = dict(batched["vm_row"])
        self._vm_host_rows = np.array(batched["vm_host_rows"], dtype=np.intp)
        self._vm_away = np.array(batched["vm_away"], dtype=bool)
        self._away_count = int(batched["away_count"])
        self._foreign_vms = dict(batched["foreign_vms"])
        self._foreign_rows = dict(batched["foreign_rows"])
        # Re-seed every fleet array from the freshly restored objects,
        # and let the next tick rebuild the segment so its deferred
        # state (peaks, violations, switch powers) is re-read too.
        self.fleet.gather()
        self._cost_watch = True
        self._segment = None

    # ------------------------------------------------------------- serving
    def _serve_scalar(self, server, available: float, now: float) -> float:
        """The scalar controller's per-VM priority serving loop, for
        servers whose budget cannot cover their full demand."""
        served = 0.0
        for vm in sorted(
            server.vms.values(), key=lambda v: (v.app.priority, v.vm_id)
        ):
            if vm.current_demand <= 0:
                continue
            grant = min(vm.current_demand, available - served)
            grant = max(grant, 0.0)
            unserved = vm.current_demand - grant
            if unserved > _EPS:
                self.collector.record_drop(
                    Drop(now, server.node.node_id, vm.vm_id, unserved)
                )
                self._dropped_since_consolidation += unserved
            served += grant
        return served
