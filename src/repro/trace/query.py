"""Reading traces back: causal queries over recorded tick frames.

:class:`TraceReader` loads a (possibly rotated) JSONL trace, splits it
into runs at ``meta`` frames, and answers the questions the trace
exists for:

* :meth:`~TraceReader.budget_path` -- the chain of allocation records
  from the root grant down to one server at one tick, each with the
  constraint that bound it;
* :meth:`~TraceReader.constraint_histogram` -- how often each
  constraint bound, fleet-wide;
* :meth:`~TraceReader.explain` -- a human-readable account of one
  server at one tick ("why did server 12's budget drop at t=340?");
* :meth:`~TraceReader.events` -- plant / control-plane fault edges.

Budgets are only re-divided every ``eta1`` ticks (or when a fault edge
forces reallocation), so lookups walk backward to the latest allocation
at or before the queried tick -- which also makes the same code correct
for the distributed controller, where a node's standing budget can come
from a directive computed several ticks earlier.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.trace.writer import trace_segments

__all__ = ["TraceReader", "TraceRun"]


class TraceRun:
    """One controller run inside a trace: a meta frame + its tick frames."""

    def __init__(self, meta: Dict[str, Any]):
        self.meta = meta
        self.frames: List[Dict[str, Any]] = []

    @property
    def controller(self) -> str:
        return self.meta.get("controller", "")

    @property
    def nodes(self) -> Dict[int, Dict[str, Any]]:
        return {node["id"]: node for node in self.meta.get("nodes", [])}

    def leaf_ids(self) -> List[int]:
        return [n["id"] for n in self.meta.get("nodes", []) if n["leaf"]]


def _iter_frames(path) -> Iterator[Dict[str, Any]]:
    """Yield frames across all segments, skipping undecodable lines.

    A hard kill can tear the final line of *any* segment that was
    active when the process died -- after a crash-recovery restart in
    append mode the torn segment may sit in the middle of the rotation
    order, so every segment gets the same tolerance, counted via
    :attr:`TraceReader.skipped_lines` by the caller.
    """
    for segment in trace_segments(path):
        with segment.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    yield None  # sentinel: caller counts it


class TraceReader:
    """Loads a trace file and answers causal queries about one run.

    Parameters
    ----------
    path:
        Trace path as given to :class:`~repro.trace.writer.JsonlTraceWriter`
        (rotated segments are found automatically).
    run:
        Which run to query when the file holds several; defaults to the
        last one, matching "the run I just recorded".

    Attributes
    ----------
    skipped_lines:
        Partial/garbled lines tolerated while reading (hard kills can
        tear the tail of any segment, not just the newest).
    """

    def __init__(self, path, *, run: int = -1):
        self.runs: List[TraceRun] = []
        self.skipped_lines = 0
        current: Optional[TraceRun] = None
        for frame in _iter_frames(path):
            if frame is None:
                self.skipped_lines += 1
            elif frame.get("type") == "meta":
                current = TraceRun(frame)
                self.runs.append(current)
            elif current is not None:
                current.frames.append(frame)
        if not self.runs:
            raise ValueError(f"{path}: no meta frame; not a Willow trace")
        if not -len(self.runs) <= run < len(self.runs):
            raise ValueError(
                f"{path}: no run {run}; the file holds {len(self.runs)} run(s)"
            )
        self.run = self.runs[run]

    # ------------------------------------------------------------- plumbing
    @property
    def nodes(self) -> Dict[int, Dict[str, Any]]:
        return self.run.nodes

    def frame(self, tick: int) -> Optional[Dict[str, Any]]:
        for frame in self.run.frames:
            if frame["tick"] == tick:
                return frame
        return None

    def last_tick(self) -> int:
        if not self.run.frames:
            raise ValueError("trace run has no tick frames")
        return self.run.frames[-1]["tick"]

    def _latest_alloc(
        self, node_id: int, tick: int
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest allocation record for ``node_id`` at or before
        ``tick``, as ``(tick_recorded, record)``."""
        for frame in reversed(self.run.frames):
            if frame["tick"] > tick:
                continue
            for record in frame.get("alloc", ()):
                if record["node"] == node_id:
                    return frame["tick"], record
        return None

    def _latest_root(
        self, tick: int
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        for frame in reversed(self.run.frames):
            if frame["tick"] <= tick and "root" in frame:
                return frame["tick"], frame["root"]
        return None

    # -------------------------------------------------------------- queries
    def budget_path(self, server_id: int, tick: int) -> List[Dict[str, Any]]:
        """The budget's path from the root grant down to ``server_id``.

        Returns records ordered root -> leaf.  The first entry is the
        facility-level grant (binding ``facility_supply`` or
        ``aggregate_cap``); every following entry is the allocation one
        level down, annotated with ``at_tick`` -- the tick the standing
        budget was actually computed (== ``tick`` only when an
        allocation round landed on it).
        """
        nodes = self.nodes
        if server_id not in nodes:
            raise KeyError(f"unknown node id {server_id}")
        if not nodes[server_id]["leaf"]:
            raise ValueError(f"node {server_id} is not a server (leaf)")
        path: List[Dict[str, Any]] = []
        node_id: Optional[int] = server_id
        while node_id is not None and nodes[node_id]["parent"] is not None:
            found = self._latest_alloc(node_id, tick)
            if found is None:
                break
            at_tick, record = found
            path.append({"at_tick": at_tick, **record})
            node_id = record["parent"]
        root = self._latest_root(tick)
        if root is not None:
            at_tick, record = root
            binding = (
                "aggregate_cap"
                if record["cap"] <= record["supply"]
                else "facility_supply"
            )
            path.append(
                {
                    "at_tick": at_tick,
                    "node": node_id if node_id is not None else -1,
                    "parent": None,
                    "level": nodes.get(node_id, {}).get("level", 0),
                    "budget": record["granted"],
                    "weight": record["supply"],
                    "cap": record["cap"],
                    "parent_budget": record["supply"],
                    "reserve": 0.0,
                    "binding": binding,
                }
            )
        path.reverse()
        return path

    def constraint_histogram(
        self, *, level: Optional[int] = None
    ) -> Dict[str, int]:
        """How often each constraint bound, over every allocation record
        in the run (optionally restricted to one tree level)."""
        counts: Counter = Counter()
        for frame in self.run.frames:
            for record in frame.get("alloc", ()):
                if level is None or record["level"] == level:
                    counts[record["binding"]] += 1
        return dict(counts)

    def events(
        self, *, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Fault edges across the run, each tagged with its tick/time."""
        out = []
        for frame in self.run.frames:
            for event in frame.get("events", ()):
                if kind is None or event["kind"] == kind:
                    out.append(
                        {"tick": frame["tick"], "t": frame["t"], **event}
                    )
        return out

    def explain(self, server_id: int, tick: int) -> str:
        """A per-node causal account of one server at one tick."""
        nodes = self.nodes
        frame = self.frame(tick)
        lines = [
            f"server {server_id} ({nodes[server_id]['name']}) at tick "
            f"{tick}" + (f" (t={frame['t']:g})" if frame else " (no frame)")
        ]
        if frame is not None:
            for entry in frame.get("demand", ()):
                if entry[0] == server_id:
                    lines.append(
                        f"  demand: raw={entry[1]:.2f} W, "
                        f"smoothed={entry[2]:.2f} W (Eq. 4), "
                        f"budget={entry[3]:.2f} W"
                    )
                    break
        path = self.budget_path(server_id, tick)
        if path:
            lines.append("  budget path (root -> server):")
        for record in path:
            name = nodes.get(record["node"], {}).get("name", "?")
            stale = (
                "" if record["at_tick"] == tick
                else f" [from tick {record['at_tick']}]"
            )
            src = record.get("source_tick")
            if src is not None:
                stale += f" [directive computed at tick {src}]"
            lines.append(
                f"    L{record['level']} {name} (node {record['node']}): "
                f"budget={record['budget']:.2f} W of "
                f"parent_budget={record['parent_budget']:.2f} W "
                f"(weight={record['weight']:.2f}, cap={record['cap']:.2f}, "
                f"reserve={record['reserve']:.2f}) "
                f"<- {record['binding']}{stale}"
            )
        if frame is not None:
            for entry in frame.get("unmatched", ()):
                if entry[0] == server_id:
                    lines.append(
                        f"  unmatched deficit: {entry[2]:.2f} W "
                        f"(vm {entry[1]}) left in place"
                    )
            for entry in frame.get("drops", ()):
                if entry[0] == server_id:
                    lines.append(
                        f"  dropped: {entry[2]:.2f} W (vm {entry[1]})"
                    )
            for move in frame.get("migrations", ()):
                if server_id in (move["src"], move["dst"]):
                    role = "out of" if move["src"] == server_id else "into"
                    lines.append(
                        f"  migration {role} this server: vm {move['vm']} "
                        f"({move['demand']:.2f} W, {move['cause']}, "
                        f"src_deficit={move['src_deficit']:.2f} W, "
                        f"dst_surplus={move['dst_surplus']:.2f} W)"
                    )
            for event in frame.get("events", ()):
                lines.append(
                    f"  event: {event['kind']} @ node {event['node']}"
                    + (f" ({event['detail']})" if event["detail"] else "")
                )
        return "\n".join(lines)
