"""Control-plane records: migrations, drops, plant events, messages.

These are the events Willow's evaluation counts (Figs. 9-12, 16) and the
units the network-impact accounting works in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "MigrationCause",
    "Migration",
    "Drop",
    "ControlMessage",
    "PlantEvent",
]


class MigrationCause(enum.Enum):
    """Why a VM moved (Fig. 9 splits migration counts by these)."""

    DEMAND = "demand"  # constraint tightening: deficit at the source
    CONSOLIDATION = "consolidation"  # draining an under-utilised server
    EVACUATION = "evacuation"  # emergency: host crashed or shut down

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Migration:
    """One executed VM migration."""

    time: float
    vm_id: int
    src_id: int
    dst_id: int
    demand: float  # VM demand (W) at migration time
    cause: MigrationCause
    local: bool  # True when src and dst share a parent (Sec. IV-E)
    hops: int  # switch sites traversed
    cost_power: float  # temporary power charged to src and dst

    def __post_init__(self) -> None:
        if self.src_id == self.dst_id:
            raise ValueError("migration source and destination are the same node")
        if self.demand < 0:
            raise ValueError("migrated demand must be non-negative")


@dataclass(frozen=True, slots=True)
class Drop:
    """Demand shed because no surplus could absorb it (QoS loss).

    "If there is no surplus that can satisfy the deficit in a node, the
    excess demand is simply dropped" (Sec. IV-E).
    """

    time: float
    node_id: int
    vm_id: Optional[int]
    power: float

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("dropped power must be non-negative")


@dataclass(frozen=True, slots=True)
class PlantEvent:
    """One physical-plant fault transition (crash, trip, quarantine...).

    ``kind`` is a short slug -- the fault layer uses ``server_crash``,
    ``server_restart``, ``server_recovered``, ``thermal_shutdown``,
    ``sensor_quarantine``, ``sensor_restore``, ``circuit_trip``,
    ``circuit_restore``, ``cooling_degraded`` and ``cooling_restored``.
    ``node_id`` is the affected tree node (server or PMU subtree root);
    ``detail`` carries free-form context for logs.
    """

    time: float
    kind: str
    node_id: int
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("plant event kind must be non-empty")


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """One message on a tree link (Property 3 counts these).

    ``link`` identifies the (child, parent) edge by the child's node id;
    ``upward`` is True for demand reports, False for budget directives.
    """

    time: float
    link: int
    upward: bool
