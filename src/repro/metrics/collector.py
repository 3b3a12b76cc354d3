"""Time-series collection for Willow runs.

The collector is deliberately dumb: controllers append samples and
events; analysis happens in :mod:`repro.metrics.summary` and the
experiment modules.  All series convert to NumPy arrays on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.checkpoint.errors import CheckpointError
from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
    PlantEvent,
)
from repro.metrics.table import Table
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "ServerSample",
    "SwitchSample",
    "MetricsCollector",
]


@dataclass(frozen=True, slots=True)
class ServerSample:
    """One server's physical state at one tick."""

    time: float
    server_id: int
    power: float  # wall watts drawn this tick
    temperature: float  # deg C at end of tick
    utilization: float  # fraction of dynamic range
    demand: float  # wall watts wanted this tick
    budget: float  # wall watts allocated
    asleep: bool


@dataclass(frozen=True, slots=True)
class SwitchSample:
    """One switch's state at one tick."""

    time: float
    switch_id: int
    level: int
    base_traffic: float  # served-demand units
    migration_traffic: float  # migration units
    power: float  # watts


@dataclass
class MetricsCollector:
    """Accumulates everything a Willow evaluation reports.

    Every dataclass-row series is a :class:`~repro.metrics.table.Table`
    (rows passed in as lists are converted); ``imbalance`` stays a list
    of ``(time, watts)`` tuples.
    """

    server_samples: Table = field(default_factory=list)
    switch_samples: Table = field(default_factory=list)
    migrations: Table = field(default_factory=list)
    drops: Table = field(default_factory=list)
    #: Deficit demand the matcher could not place (the VM stays on its
    #: host and runs degraded; actual unserved watts appear in `drops`).
    unmatched_deficits: Table = field(default_factory=list)
    messages: Table = field(default_factory=list)
    imbalance: List[tuple] = field(default_factory=list)  # (time, watts)
    #: Physical-plant fault transitions (crashes, sensor quarantines,
    #: circuit trips, cooling events and their recoveries).
    plant_events: Table = field(default_factory=list)
    #: Forwarding sink for the observability layer: drops, unmatched
    #: deficits, plant events and the imbalance residual also land in
    #: the owning controller's open trace frame.  Not a record series
    #: (excluded from export/round-trip by not being a table or list).
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, row_class in _TABLES.items():
            rows = getattr(self, name)
            if row_class is not None and not isinstance(rows, Table):
                setattr(self, name, Table(row_class, rows))

    # -- recording ---------------------------------------------------------
    def record_server(self, sample: ServerSample) -> None:
        self.server_samples.append(sample)

    def record_switch(self, sample: SwitchSample) -> None:
        self.switch_samples.append(sample)

    def record_migration(self, migration: Migration) -> None:
        self.migrations.append(migration)

    def record_drop(self, drop: Drop) -> None:
        self.drops.append(drop)
        if self.tracer.enabled:
            self.tracer.record_drop(drop.node_id, drop.vm_id, drop.power)

    def record_unmatched(self, drop: Drop) -> None:
        self.unmatched_deficits.append(drop)
        if self.tracer.enabled:
            self.tracer.record_unmatched(drop.node_id, drop.vm_id, drop.power)

    def record_message(self, message: ControlMessage) -> None:
        self.messages.append(message)

    def record_messages(self, time: float, links: Sequence[int], upward: bool) -> None:
        """One message per link in ``links``, all sent at ``time`` in one
        direction: a tick's demand reports or budget grants."""
        count = len(links)
        self.messages.append_columns([time] * count, links, [upward] * count)

    def record_imbalance(self, time: float, watts: float) -> None:
        self.imbalance.append((time, watts))
        if self.tracer.enabled:
            self.tracer.record_imbalance(watts)

    def record_plant_event(self, event: PlantEvent) -> None:
        self.plant_events.append(event)
        if self.tracer.enabled:
            self.tracer.record_event(event.kind, event.node_id, event.detail)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Every recorded table: a copy of each :class:`Table`'s columns
        (:meth:`Table.state`), ``imbalance`` as a list of tuples."""
        return {
            name: (
                list(self.imbalance) if row_class is None
                else getattr(self, name).state()
            )
            for name, row_class in _TABLES.items()
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Replace every table with the rows of a :meth:`state_dict`.

        The tables are refilled in place, so references held elsewhere
        stay valid; a table the snapshot lacks comes back empty.
        Nothing is replaced unless every table loads.
        """
        unknown = sorted(set(state) - set(_TABLES))
        if unknown:
            raise CheckpointError(
                f"snapshot has collector tables this build does not know: {unknown}"
            )
        loaded = {}
        for name, row_class in _TABLES.items():
            if row_class is None:
                loaded[name] = list(state.get(name, []))
            else:
                loaded[name] = Table(row_class)
                loaded[name].load(state.get(name, []), name)
        for name, rows in loaded.items():
            if isinstance(rows, Table):
                getattr(self, name).columns = rows.columns
            else:
                getattr(self, name)[:] = rows

    # -- plant faults --------------------------------------------------------
    def plant_event_counts(self) -> Dict[str, int]:
        """Number of plant-fault transitions per event kind."""
        counts: Dict[str, int] = {}
        for event in self.plant_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def plant_events_for(self, node_id: int) -> List[PlantEvent]:
        """Time-ordered plant events touching one node."""
        return [e for e in self.plant_events if e.node_id == node_id]

    # -- server series -------------------------------------------------------
    def server_ids(self) -> List[int]:
        """Distinct server ids, sorted."""
        return sorted(set(self.server_samples.column("server_id")))

    def server_series(self, server_id: int, attribute: str) -> np.ndarray:
        """Time-ordered values of ``attribute`` for one server."""
        return _series(self.server_samples, "server_id", server_id, attribute)

    def mean_server(self, server_id: int, attribute: str) -> float:
        """Run-average of ``attribute`` for one server."""
        series = self.server_series(server_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for server {server_id}")
        return float(series.mean())

    def times(self) -> np.ndarray:
        """Distinct sample times, sorted."""
        return np.unique(self.server_samples.column("time"))

    def total_energy(self) -> float:
        """Sum of server power over all samples (W * ticks)."""
        return float(sum(self.server_samples.column("power")))

    # -- migrations ----------------------------------------------------------
    def migrations_by_cause(self, cause: MigrationCause) -> List[Migration]:
        return [m for m in self.migrations if m.cause is cause]

    def migration_count(self, cause: Optional[MigrationCause] = None) -> int:
        if cause is None:
            return len(self.migrations)
        return len(self.migrations_by_cause(cause))

    def migrations_per_tick(self, horizon: float) -> np.ndarray:
        """Histogram of migration counts per unit-time bucket."""
        counts = np.zeros(int(np.ceil(horizon)), dtype=int)
        for m in self.migrations:
            index = int(m.time)
            if 0 <= index < len(counts):
                counts[index] += 1
        return counts

    def local_fraction(self) -> float:
        """Fraction of migrations that stayed within the parent group."""
        if not self.migrations:
            return float("nan")
        return sum(1 for m in self.migrations if m.local) / len(self.migrations)

    # -- drops -----------------------------------------------------------------
    def total_dropped_power(self) -> float:
        return float(sum(self.drops.column("power")))

    def total_unmatched_power(self) -> float:
        """Deficit watts left degrading in place (never placed elsewhere)."""
        return float(sum(self.unmatched_deficits.column("power")))

    # -- switches ----------------------------------------------------------------
    def switch_ids(self, level: Optional[int] = None) -> List[int]:
        samples = self.switch_samples
        ids = samples.column("switch_id")
        if level is not None:
            ids = [i for i, lv in zip(ids, samples.column("level")) if lv == level]
        return sorted(set(ids))

    def switch_series(self, switch_id: int, attribute: str) -> np.ndarray:
        return _series(self.switch_samples, "switch_id", switch_id, attribute)

    def mean_switch(self, switch_id: int, attribute: str) -> float:
        series = self.switch_series(switch_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for switch {switch_id}")
        return float(series.mean())

    # -- messages -----------------------------------------------------------------
    def messages_per_link_per_tick(self) -> Dict[tuple, int]:
        """Max message count observed on any (link, tick) pair, per link."""
        counts: Dict[tuple, int] = {}
        messages = self.messages
        for key in zip(messages.column("link"), messages.column("time")):
            counts[key] = counts.get(key, 0) + 1
        worst: Dict[tuple, int] = {}
        for (link, _time), count in counts.items():
            worst[link] = max(worst.get(link, 0), count)
        return worst


def _series(table: Table, key: str, wanted: int, attribute: str) -> np.ndarray:
    """Row-ordered ``attribute`` values of the rows whose ``key`` is ``wanted``."""
    values = table.column(attribute)
    return np.array(
        [v for k, v in zip(table.column(key), values) if k == wanted]
    )


#: Row class of every recorded table of :class:`MetricsCollector`;
#: ``None`` marks a table of plain tuples, checkpointed as it is.
_TABLES: Dict[str, Optional[type]] = {
    "server_samples": ServerSample,
    "switch_samples": SwitchSample,
    "migrations": Migration,
    "drops": Drop,
    "unmatched_deficits": Drop,
    "messages": ControlMessage,
    "imbalance": None,
    "plant_events": PlantEvent,
}
