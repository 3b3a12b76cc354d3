"""The benchmark's three workloads and the checks on their outputs.

Each workload builds one seeded instance of the program (``build``,
timed as set-up), runs a fixed number of control ticks while appending
one ``time.perf_counter()`` stamp per finished tick (``drive``), and
then reads its decisions back (``finish``).  Tick ``k`` of an episode
is the interval ``stamps[k]..stamps[k + 1]``.

Everything here goes through the program's public entry points; the
only hooks are the ones the program offers (``on_tick``) or, where it
offers none, a wrapper on one object's bound method.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Poisson demand is prefetched in blocks of this many ticks
#: (``DemandGenerator(block_size=256)``), so tick 0 and tick 256 refill.
REFILL_TICKS = 256


@dataclass
class Episode:
    """One built-and-run instance of a workload."""

    setup_s: float
    stamps: List[float]
    digest: str
    #: Simulated totals; they repeat exactly for one seed.
    totals: Dict[str, float]
    attempted: int
    failed: int
    #: One line per failed check; empty when every check passed.
    failures: List[str] = field(default_factory=list)
    #: Workload-specific counts for the per-layer report.
    counts: Dict[str, float] = field(default_factory=dict)
    #: The live run's audit log, for the replay check.
    audit_path: Optional[Path] = None
    #: Which of the run's instances this episode ran.
    instance: int = 0

    @property
    def tick_ms(self) -> List[float]:
        s = self.stamps
        return [(s[k + 1] - s[k]) * 1e3 for k in range(len(s) - 1)]


# ------------------------------------------------------------------ checks
def combined_digest(collectors) -> str:
    """``decision_digest`` of one collector, or a hash over several.

    Resolved through the module at call time, so the traced run's
    wrapper on ``repro.service.simulation.decision_digest`` sees it.
    """
    from repro.service import simulation

    digests = [simulation.decision_digest(c) for c in collectors]
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def thermal_violations(servers) -> int:
    """Servers that ever ran above their thermal limit (DESIGN.md §6)."""
    bad = 0
    for server in servers:
        limit = server.thermal_params.t_limit
        if server.thermal.violations or server.thermal.peak > limit + 1e-6:
            bad += 1
    return bad


def check_common(
    n_ticks: int, stamps: Sequence[float], collectors, servers
) -> List[str]:
    """Checks every workload shares: tick counts and thermal safety."""
    failures = []
    if len(stamps) - 1 != n_ticks:
        failures.append(f"stamped {len(stamps) - 1} ticks, ran {n_ticks}")
    for collector in collectors:
        if len(collector.imbalance) != n_ticks:
            failures.append(
                f"collector recorded {len(collector.imbalance)} ticks, "
                f"ran {n_ticks}"
            )
    violations = thermal_violations(servers)
    if violations:
        failures.append(f"{violations} server(s) exceeded the thermal limit")
    return failures


def check_same_decisions(episodes: Sequence[Episode]) -> List[str]:
    """Every episode of one instance made identical decisions."""
    failures = []
    first: Dict[int, Episode] = {}
    for i, episode in enumerate(episodes):
        base = first.setdefault(episode.instance, episode)
        if episode.digest != base.digest:
            failures.append(
                f"episode {i} (instance {episode.instance}) digest "
                f"{episode.digest[:12]} != {base.digest[:12]}"
            )
        if episode.totals != base.totals:
            failures.append(f"episode {i} simulated totals differ")
    return failures


def _totals(collectors, delta_d: float, extra_migrations: int = 0) -> dict:
    return {
        "sim_energy_mj": sum(c.total_energy() for c in collectors)
        * delta_d
        / 1e6,
        "sim_dropped_kj": sum(c.total_dropped_power() for c in collectors)
        * delta_d
        / 1e3,
        "sim_migrations": float(
            sum(len(c.migrations) for c in collectors) + extra_migrations
        ),
    }


# --------------------------------------------------------------- workloads
class Workload:
    """Base: subclasses set the sizes and implement the three steps."""

    name = ""
    #: Ticks of one episode (fixed per workload, so the tail percentile is).
    n_ticks = 0
    n_servers = 0
    refill: Optional[int] = REFILL_TICKS
    checkpoint_every: Optional[int] = None
    #: Independent instances per run (instance ``j`` of seed ``n`` runs
    #: with seed ``16 * n + j``); run statistics average over them, so
    #: one seed's quirks weigh less.
    instances = 1

    def __init__(self, workdir: Path):
        from repro.core.config import WillowConfig

        config = WillowConfig()
        self.workdir = workdir
        #: Supply and consolidation cadences, for the tick classes.
        self.eta1 = config.eta1
        self.eta2 = config.eta2

    def build(self, seed: int):
        raise NotImplementedError

    def prepare(self, state, seed: int) -> None:
        """Generate this episode's inputs (untimed)."""

    def drive(self, state, stamps: List[float]) -> None:
        raise NotImplementedError

    def finish(self, state, setup_s: float, stamps: List[float]) -> Episode:
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a built instance that will not run (extra set-ups)."""

    def tick_class(self, k: int) -> str:
        """The tick's cadence class; a tick in two goes to the rarer."""
        if self.refill and k % self.refill == 0:
            return "refill"
        if self.checkpoint_every and (k + 1) % self.checkpoint_every == 0:
            return "checkpoint"
        if k > 0 and k % self.eta2 == 0:
            return "consolidate"
        if k % self.eta1 == 0:
            return "supply"
        return "plain"

    def episode(self, seed: int, instance: int = 0) -> Episode:
        instance_seed = 16 * seed + instance
        clock = time.perf_counter
        start = clock()
        state = self.build(instance_seed)
        setup_s = clock() - start
        self.prepare(state, instance_seed)
        stamps = [clock()]
        self.drive(state, stamps)
        episode = self.finish(state, setup_s, stamps)
        episode.instance = instance
        return episode


class SiteDrain(Workload):
    """One 1024-server site on the vectorized controller, 30% busy.

    Supply is constant at 0.7x circuit capacity, so the site is
    provisioned and the eta2 consolidation pass drains and sleeps
    servers: the consolidation planner sets the tail.
    """

    name = "site_drain"
    utilization = 0.3
    supply_share = 0.7
    instances = 3

    def __init__(self, workdir: Path, *, smoke: bool = False):
        super().__init__(workdir)
        self.branching = (2, 4, 8) if smoke else (4, 16, 16)
        self.n_servers = math.prod(self.branching)
        self.n_ticks = 30 if smoke else 300

    def build(self, seed: int):
        from repro.core.config import WillowConfig
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
        tree = build_balanced(self.branching)
        servers = tree.servers()
        supply = constant_supply(
            self.supply_share * len(servers) * config.circuit_limit
        )
        placement = random_placement(
            [s.node_id for s in servers],
            SIMULATION_APPS,
            RandomStreams(seed)["placement"],
            vms_per_server=4,
        )
        scale_for_target_utilization(
            placement, config.server_model.slope, self.utilization
        )
        return VectorizedWillowController(
            tree, config, supply, placement, seed=seed
        )

    def drive(self, controller, stamps: List[float]) -> None:
        clock = time.perf_counter
        controller.on_tick.append(lambda _c, _k, _now: stamps.append(clock()))
        controller.run(self.n_ticks)

    def finish(self, controller, setup_s: float, stamps: List[float]) -> Episode:
        collectors = [controller.collector]
        failures = check_common(
            self.n_ticks, stamps, collectors, controller.servers.values()
        )
        return Episode(
            setup_s=setup_s,
            stamps=stamps,
            digest=combined_digest(collectors),
            totals=_totals(collectors, controller.config.delta_d),
            attempted=self.n_ticks,
            failed=0,
            failures=failures,
        )


class FedSolar(Workload):
    """Four 256-server solar sites on the batched (fused) federation.

    Phase-shifted solar humps over a 30% grid base give every site a
    nightly deficit, so migration, FFDLR and the predictive cross-site
    rebalance run all day while consolidation stays in its deficit
    regime (bypassed).
    """

    name = "fed_solar"
    n_sites = 4
    utilization = 0.55

    def __init__(self, workdir: Path, *, smoke: bool = False):
        super().__init__(workdir)
        self.branching = (2, 4, 4) if smoke else (4, 8, 8)
        self.n_servers = self.n_sites * math.prod(self.branching)
        self.n_ticks = 30 if smoke else 280

    def build(self, seed: int):
        from repro.core.config import WillowConfig
        from repro.federation import SiteSpec, build_federation
        from repro.power.supply import renewable_supply
        from repro.topology.builders import build_balanced

        per_site = math.prod(self.branching)
        specs = []
        for i in range(self.n_sites):
            config = WillowConfig()
            supply = renewable_supply(
                0.9 * per_site * config.circuit_limit,
                base_fraction=0.3,
                day_length=96.0,
                cloud_noise=0.0,
                days=self.n_ticks // 96 + 2,
                phase=i / self.n_sites,
            )
            specs.append(
                SiteSpec(
                    name=f"site{i}",
                    tree=build_balanced(self.branching),
                    config=config,
                    supply=supply,
                    target_utilization=self.utilization,
                    seed=seed * self.n_sites + i,
                    vectorized=True,
                )
            )
        return build_federation(
            specs,
            n_ticks=self.n_ticks,
            policy="predictive",
            horizon=4,
            vectorized=True,
        )

    def drive(self, coordinator, stamps: List[float]) -> None:
        # The batched coordinator never calls its on_tick hooks, and a
        # site-level hook would force a deferred-scatter flush every
        # tick.  The last site's clock advance runs once per tick after
        # every segment, so stamping there leaves the fused tick as is.
        env = coordinator.sites[-1].controller.env
        advance = env.advance
        clock = time.perf_counter

        def stamped_advance(dt):
            advance(dt)
            stamps.append(clock())

        env.advance = stamped_advance
        try:
            coordinator.run(self.n_ticks)
        finally:
            del env.advance

    def finish(self, coordinator, setup_s: float, stamps: List[float]) -> Episode:
        collectors = [site.collector for site in coordinator.sites]
        servers = [
            server
            for site in coordinator.sites
            for server in site.controller.servers.values()
        ]
        failures = check_common(self.n_ticks, stamps, collectors, servers)
        transfers = [t for _tick, batch in coordinator.transfer_log for t in batch]
        directed = sum(t.watts for t in transfers)
        return Episode(
            setup_s=setup_s,
            stamps=stamps,
            digest=combined_digest(collectors),
            totals=_totals(
                collectors,
                coordinator.delta_d,
                extra_migrations=len(coordinator.cross_migrations),
            ),
            attempted=self.n_ticks,
            failed=0,
            failures=failures,
            counts={
                "federation.transfers": len(transfers),
                "federation.cross_moves": len(coordinator.cross_migrations),
                "federation.cross_watt_ratio": (
                    coordinator.total_cross_watts() / directed if directed else 0.0
                ),
            },
        )


@dataclass
class _LiveState:
    sim: object
    gateway: object
    audit: object
    store: object
    directory: Path
    batches: List[List[dict]] = field(default_factory=list)


class LiveIngest(Workload):
    """The live service on the scalar fault-tolerant controller.

    A closed loop in one process: each tick the benchmark submits one
    seeded batch through ``IngestGateway.submit`` (demand samples for
    half the VMs, two arrivals, two departures, a supply update every
    eta1, a six-tick server crash every ten ticks and a cooling derate
    every 25 ticks), then drives ``LiveRunner``'s boundary order: drain,
    apply + audit, step, flush, and a checkpoint every eta2.
    """

    name = "live_ingest"
    refill = None  # demand is event-driven: no Poisson block refill
    instances = 2

    def __init__(self, workdir: Path, *, smoke: bool = False):
        super().__init__(workdir)
        self.branching = (2, 4, 4) if smoke else (4, 8, 8)
        self.n_servers = math.prod(self.branching)
        self.n_ticks = 30 if smoke else 105
        self.checkpoint_every = self.eta2
        self._episodes = 0

    def build(self, seed: int) -> _LiveState:
        from repro.checkpoint import CheckpointStore
        from repro.service.audit import AuditLog
        from repro.service.gateway import IngestGateway
        from repro.service.simulation import LiveSimulation, ServiceSpec

        self._episodes += 1
        directory = self.workdir / f"live-{self._episodes}"
        spec = ServiceSpec(
            seed=seed,
            controller="scalar",
            branching=self.branching,
            utilization=0.5,
        )
        sim = LiveSimulation(spec)
        gateway = IngestGateway(queue_bound=1 << 16, allow_faults=True)
        audit = AuditLog(directory / "audit.jsonl")
        audit.write_meta(
            spec.to_meta(), tick_seconds=1.0, queue_bound=gateway.queue_bound
        )
        store = CheckpointStore(directory / "checkpoints", keep=2)
        return _LiveState(sim, gateway, audit, store, directory)

    def discard(self, state: _LiveState) -> None:
        state.audit.close()

    def prepare(self, state: _LiveState, seed: int) -> None:
        state.batches = make_event_batches(
            state.sim, self.n_ticks, seed, eta1=self.eta1
        )

    def drive(self, state: _LiveState, stamps: List[float]) -> None:
        sim, gateway, audit, store = (
            state.sim, state.gateway, state.audit, state.store
        )
        spec_meta = {"spec": sim.spec.to_meta()}
        every = self.checkpoint_every
        clock = time.perf_counter
        for batch in state.batches:
            for event in batch:
                gateway.submit(event, source="bench")
            tick = sim.tick
            for entry in gateway.drain():
                result = sim.apply(entry.event)
                audit.write_event(
                    tick,
                    entry.seq,
                    entry.source,
                    entry.event,
                    applied=result.applied,
                    reason=result.reason,
                )
            sim.step()
            audit.flush()
            if sim.tick % every == 0:
                store.save(
                    kind="service",
                    tick=sim.tick,
                    state=sim.snapshot_state(),
                    meta=spec_meta,
                )
            stamps.append(clock())

    def finish(self, state: _LiveState, setup_s: float, stamps: List[float]) -> Episode:
        from repro.service.audit import read_audit

        sim, gateway, audit = state.sim, state.gateway, state.audit
        collectors = [sim.finish()]
        digest = combined_digest(collectors)
        audit.write_end(
            ticks=sim.tick, accepted=gateway.accepted, digest=digest, overruns=0
        )
        audit.close()
        failures = check_common(
            self.n_ticks, stamps, collectors, sim.controller.servers.values()
        )
        end = read_audit(state.directory / "audit.jsonl")["end"]
        if end is None or end.get("ticks") != self.n_ticks:
            failures.append("audit log has no end record for the run")
        submitted = sum(len(batch) for batch in state.batches)
        rejected = gateway.rejected_full + gateway.rejected_invalid
        ignored = sum(sim.ignored.values())
        if gateway.accepted + rejected != submitted:
            failures.append("gateway accounting does not match submissions")
        audit_bytes = sum(
            p.stat().st_size for p in state.directory.glob("audit.jsonl*")
        )
        return Episode(
            setup_s=setup_s,
            stamps=stamps,
            digest=digest,
            totals=_totals(collectors, sim.config.delta_d),
            attempted=submitted,
            failed=rejected + ignored,
            failures=failures,
            counts={
                "service.submit.rejected": rejected,
                "service.apply.ignored": ignored,
                "service.audit.bytes": audit_bytes,
            },
            audit_path=state.directory / "audit.jsonl",
        )


def check_replay(audit_path) -> List[str]:
    """``replay()`` of the audit log must report bit-exact parity."""
    from repro.service.replay import replay

    result = replay(audit_path)
    failures = []
    if result.parity is not True:
        failures.append(
            f"replay parity {result.parity}: digest {result.digest[:12]} vs "
            f"live {str(result.live_digest)[:12]}"
        )
    if result.apply_mismatches:
        failures.append(f"replay had {result.apply_mismatches} apply mismatches")
    return failures


def make_event_batches(sim, n_ticks: int, seed: int, *, eta1: int) -> List[List[dict]]:
    """One seeded event batch per tick, every event valid and applicable.

    The generator tracks the VM set and crash windows itself, so no
    demand sample names a departed VM and no crash hits a server that
    is already down: every event should apply.
    """
    rng = random.Random(seed)
    vms = sim.controller._vm_by_id
    live = sorted(vms)
    means = {vm_id: vms[vm_id].current_demand for vm_id in live}
    next_id = max(live) + 1
    servers = [s.name for s in sim.tree.servers()]
    capacity = len(servers) * sim.config.circuit_limit
    crashed_until: Dict[str, int] = {}
    apps = ("app-1", "app-2", "app-5", "app-9")
    batches = []
    for k in range(n_ticks):
        batch = []
        for _ in range(2):
            vm_id = live.pop(rng.randrange(len(live)))
            del means[vm_id]
            batch.append({"type": "vm_departure", "vm_id": vm_id})
        for _ in range(2):
            demand = round(rng.uniform(5.0, 30.0), 3)
            batch.append(
                {
                    "type": "vm_arrival",
                    "vm_id": next_id,
                    "app": rng.choice(apps),
                    "demand": demand,
                }
            )
            live.append(next_id)
            means[next_id] = demand
            next_id += 1
        for vm_id in rng.sample(live, len(live) // 2):
            mean = means[vm_id]
            demand = max(0.0, rng.gauss(mean, 0.3 * mean + 1.0))
            batch.append(
                {"type": "demand_sample", "vm_id": vm_id, "demand": demand}
            )
        if k % eta1 == 0:
            batch.append(
                {
                    "type": "supply_update",
                    "budget": capacity * rng.uniform(0.75, 1.0),
                }
            )
        if k % 10 == 5:
            up = [name for name in servers if crashed_until.get(name, -1) <= k]
            name = rng.choice(up)
            crashed_until[name] = k + 6
            batch.append(
                {"type": "fault", "kind": "server_crash", "server": name, "ticks": 6}
            )
        if k % 25 == 12:
            batch.append(
                {
                    "type": "fault",
                    "kind": "cooling_derate",
                    "derate": 0.8,
                    "ticks": 10,
                }
            )
        batches.append(batch)
    return batches


WORKLOADS = {cls.name: cls for cls in (SiteDrain, FedSolar, LiveIngest)}
