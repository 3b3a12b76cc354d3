"""Time-series collection for Willow runs.

The collector is deliberately dumb: controllers append samples and
events; analysis happens in :mod:`repro.metrics.summary` and the
experiment modules.  All series convert to NumPy arrays on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.checkpoint.errors import CheckpointError
from repro.core.events import (
    ControlMessage,
    Drop,
    Migration,
    MigrationCause,
    PlantEvent,
)
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "ServerSample",
    "SwitchSample",
    "MetricsCollector",
    "rows_to_columns",
    "rows_from_columns",
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


def rows_to_columns(rows: List[Any], row_class: type) -> Any:
    """Encode a table of ``row_class`` dataclass rows for a checkpoint.

    The table becomes its field names plus one plain list per field.
    Pickling a few long lists of floats is an order of magnitude faster
    than pickling one object per row, and every value is kept as it is,
    so bools, ``None``, NaN and -0.0 bit patterns and enum members
    round-trip exactly.  An empty table is stored as it is.
    """
    if not rows:
        return []
    names = tuple(f.name for f in fields(row_class))
    return {
        "fields": names,
        "columns": [list(map(attrgetter(name), rows)) for name in names],
    }


def rows_from_columns(encoded: Any, row_class: type, table: str) -> List[Any]:
    """Rebuild the rows :func:`rows_to_columns` encoded.

    The row class comes from the caller's schema, never from the
    payload, and rows are built with ``row_class(*fields)`` so its
    ``__post_init__`` validation runs on every row.  Raises
    :class:`CheckpointError` when the stored field names are not this
    build's.
    """
    if encoded == []:
        return []
    names = tuple(f.name for f in fields(row_class))
    found = tuple(encoded["fields"]) if isinstance(encoded, dict) else None
    if found != names:
        raise CheckpointError(
            f"snapshot table {table!r} has fields {found}; this build's "
            f"{row_class.__name__} has {names}"
        )
    return list(map(row_class, *encoded["columns"]))


@dataclass
class MetricsCollector:
    """Accumulates everything a Willow evaluation reports."""

    server_samples: List[ServerSample] = field(default_factory=list)
    switch_samples: List[SwitchSample] = field(default_factory=list)
    migrations: List[Migration] = field(default_factory=list)
    drops: List[Drop] = field(default_factory=list)
    #: Deficit demand the matcher could not place (the VM stays on its
    #: host and runs degraded; actual unserved watts appear in `drops`).
    unmatched_deficits: List[Drop] = field(default_factory=list)
    messages: List[ControlMessage] = field(default_factory=list)
    imbalance: List[tuple] = field(default_factory=list)  # (time, watts)
    #: Physical-plant fault transitions (crashes, sensor quarantines,
    #: circuit trips, cooling events and their recoveries).
    plant_events: List[PlantEvent] = field(default_factory=list)
    #: Forwarding sink for the observability layer: drops, unmatched
    #: deficits, plant events and the imbalance residual also land in
    #: the owning controller's open trace frame.  Not a record series
    #: (excluded from export/round-trip by not being a list field).
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)

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
        """Every recorded table, dataclass tables encoded as columns."""
        return {
            name: (
                list(getattr(self, name))
                if row_class is None
                else rows_to_columns(getattr(self, name), row_class)
            )
            for name, row_class in _TABLES.items()
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Replace every table with the rows of a :meth:`state_dict`.

        The tables are refilled in place, so references held elsewhere
        stay valid; a table the snapshot lacks comes back empty.
        """
        unknown = sorted(set(state) - set(_TABLES))
        if unknown:
            raise CheckpointError(
                f"snapshot has collector tables this build does not know: {unknown}"
            )
        tables = {
            name: (
                list(state.get(name, []))
                if row_class is None
                else rows_from_columns(state.get(name, []), row_class, name)
            )
            for name, row_class in _TABLES.items()
        }
        for name, rows in tables.items():
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
        return sorted({s.server_id for s in self.server_samples})

    def server_series(self, server_id: int, attribute: str) -> np.ndarray:
        """Time-ordered values of ``attribute`` for one server."""
        return np.array(
            [
                getattr(s, attribute)
                for s in self.server_samples
                if s.server_id == server_id
            ]
        )

    def mean_server(self, server_id: int, attribute: str) -> float:
        """Run-average of ``attribute`` for one server."""
        series = self.server_series(server_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for server {server_id}")
        return float(series.mean())

    def times(self) -> np.ndarray:
        """Distinct sample times, sorted."""
        return np.unique([s.time for s in self.server_samples])

    def total_energy(self) -> float:
        """Sum of server power over all samples (W * ticks)."""
        return float(sum(s.power for s in self.server_samples))

    # -- migrations ----------------------------------------------------------
    def migrations_by_cause(self, cause: MigrationCause) -> List[Migration]:
        return [m for m in self.migrations if m.cause is cause]

    def migration_count(self, cause: Optional[MigrationCause] = None) -> int:
        if cause is None:
            return len(self.migrations)
        return len(self.migrations_by_cause(cause))

    def migration_times(self) -> np.ndarray:
        return np.array([m.time for m in self.migrations])

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
        return float(sum(d.power for d in self.drops))

    def total_unmatched_power(self) -> float:
        """Deficit watts left degrading in place (never placed elsewhere)."""
        return float(sum(d.power for d in self.unmatched_deficits))

    # -- switches ----------------------------------------------------------------
    def switch_ids(self, level: Optional[int] = None) -> List[int]:
        ids = {
            s.switch_id
            for s in self.switch_samples
            if level is None or s.level == level
        }
        return sorted(ids)

    def switch_series(self, switch_id: int, attribute: str) -> np.ndarray:
        return np.array(
            [
                getattr(s, attribute)
                for s in self.switch_samples
                if s.switch_id == switch_id
            ]
        )

    def mean_switch(self, switch_id: int, attribute: str) -> float:
        series = self.switch_series(switch_id, attribute)
        if series.size == 0:
            raise ValueError(f"no samples for switch {switch_id}")
        return float(series.mean())

    # -- messages -----------------------------------------------------------------
    def messages_per_link_per_tick(self) -> Dict[tuple, int]:
        """Max message count observed on any (link, tick) pair, per link."""
        counts: Dict[tuple, int] = {}
        for msg in self.messages:
            key = (msg.link, msg.time)
            counts[key] = counts.get(key, 0) + 1
        worst: Dict[tuple, int] = {}
        for (link, _time), count in counts.items():
            worst[link] = max(worst.get(link, 0), count)
        return worst


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
