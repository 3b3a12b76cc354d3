"""In-memory spans around the program's layer entry points.

The benchmark times a layer without editing the program: it replaces
the function at the name its callers resolve -- a module global such as
``repro.core.consolidation.ffdlr_pack`` or a class attribute such as
``ConsolidationPlanner.plan`` -- with a wrapper that records one span
per call, and puts every original back when the traced run ends.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index
of the enclosing span (``-1`` at top level) and ``extra`` holds the
per-call counts a layer reports (moves, items, bytes...).  Tick spans
are not recorded here; the workloads stamp tick boundaries themselves
and :func:`reduce_spans` assigns each top-level span to the tick whose
interval contains it.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module path, attribute path, layer name, count function or None).
#: A count function maps ``(result, args, kwargs)`` to a tuple of
#: numbers summed per layer; see :data:`EXTRA_FIELDS` for the names.
Target = Tuple[str, str, str, Optional[Callable]]


def _migration_counts(result, args, kwargs):
    return (len(result.moves), len(result.dropped))


def _consolidation_counts(result, args, kwargs):
    return (len(result.moves), len(result.to_sleep))


def _ffdlr_counts(result, args, kwargs):
    items = len(args[0]) if args else len(kwargs["items"])
    return (items, items - len(result.unpacked))


def _save_counts(result, args, kwargs):
    return (Path(result).stat().st_size,)


def _submit_counts(result, args, kwargs):
    return (0 if result.get("status") == "accepted" else 1,)


def _apply_counts(result, args, kwargs):
    return (0 if result.applied else 1,)


#: Names of each layer's ``extra`` fields, in count-function order.
EXTRA_FIELDS: Dict[str, Tuple[str, ...]] = {
    "core.migration": ("moves", "unmatched"),
    "core.consolidation": ("moves", "slept"),
    "binpack.ffdlr": ("items", "placed"),
    "checkpoint.save": ("bytes",),
    "service.submit": ("rejected",),
    "service.apply": ("ignored",),
}

TARGETS: Tuple[Target, ...] = (
    ("repro.workload.generator", "DemandGenerator.sample_tick", "workload.sample", None),
    ("repro.workload.generator", "DemandGenerator.sample_tick_array", "workload.sample", None),
    ("repro.core.controller", "allocate_proportional", "power.allocate", None),
    ("repro.core.vectorized", "allocate_level", "power.allocate", None),
    ("repro.federation.vectorized", "allocate_level", "power.allocate", None),
    ("repro.core.vectorized", "temperature_step_arrays", "thermal.step", None),
    ("repro.federation.vectorized", "temperature_step_arrays", "thermal.step", None),
    ("repro.core.state", "ServerRuntime.update_temperature", "thermal.step", None),
    ("repro.core.migration", "MigrationPlanner.plan", "core.migration", _migration_counts),
    ("repro.core.migration", "MigrationPlanner.plan_prescreened", "core.migration", _migration_counts),
    ("repro.core.consolidation", "ConsolidationPlanner.plan", "core.consolidation", _consolidation_counts),
    ("repro.core.consolidation", "ffdlr_pack", "binpack.ffdlr", _ffdlr_counts),
    ("repro.core.migration", "ffdlr_pack", "binpack.ffdlr", _ffdlr_counts),
    ("repro.federation.coordinator", "ffdlr_pack", "binpack.ffdlr", _ffdlr_counts),
    ("repro.plant_faults.controller", "ffdlr_pack", "binpack.ffdlr", _ffdlr_counts),
    ("repro.federation.coordinator", "FederationCoordinator._rebalance", "federation.rebalance", None),
    ("repro.federation.coordinator", "FederationCoordinator.statuses", "federation.statuses", None),
    ("repro.federation.coordinator", "FederationCoordinator.site_forecasts", "federation.forecast", None),
    ("repro.federation.predictive", "PredictivePlanner.plan", "federation.planner", None),
    ("repro.service.simulation", "LiveSimulation.snapshot_state", "checkpoint.snapshot", None),
    ("repro.checkpoint.store", "CheckpointStore.save", "checkpoint.save", _save_counts),
    ("repro.service.gateway", "IngestGateway.submit", "service.submit", _submit_counts),
    ("repro.service.simulation", "LiveSimulation.apply", "service.apply", _apply_counts),
    ("repro.service.audit", "AuditLog.write_event", "service.audit", None),
    ("repro.service.simulation", "LiveSimulation.step", "service.step", None),
    ("repro.service.simulation", "decision_digest", "metrics.digest", None),
    ("repro.sim.core", "Environment.advance", "sim.clock", None),
    ("repro.sim.core", "Environment.timeout", "sim.clock", None),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Recorder:
    """Spans of one traced run, kept in memory until :meth:`write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[Tuple[int, str]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                # A layer calling into itself (``plan`` -> ``plan_prescreened``)
                # is one span, not two.
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1][0] if stack else -1, None]
            spans.append(span)
            stack.append((index, name))
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result, args, kwargs)
            return result

        return wrapper

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target in place; :meth:`uninstall` undoes it."""
        for module_name, attr_path, name, count in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output
    def write(self, path: Path, header: dict, stamps: Sequence[float]) -> None:
        """One JSON header line, then one line per span.

        Each span line is ``[name, start_s, end_s, parent, tick, extra]``
        with times relative to the first tick stamp and ``tick = -1``
        for spans outside the timed ticks.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = stamps[0]
        ticks = tick_of_spans(self.spans, stamps)
        with path.open("w") as handle:
            handle.write(json.dumps(dict(header, run_id=self.run_id)) + "\n")
            for span, tick in zip(self.spans, ticks):
                name, start, end, parent, extra = span
                handle.write(
                    json.dumps(
                        [name, start - origin, end - origin, parent, tick, extra]
                    )
                    + "\n"
                )


def tick_of_spans(spans: Sequence[list], stamps: Sequence[float]) -> List[int]:
    """The tick index each span ran in (``-1`` outside the timed ticks).

    Tick ``k`` is the interval ``[stamps[k], stamps[k + 1])``.  Nested
    spans inherit their top-level ancestor's tick.
    """
    out: List[int] = []
    last = len(stamps) - 1
    for span in spans:
        parent = span[3]
        if parent >= 0:
            out.append(out[parent])
            continue
        k = bisect.bisect_right(stamps, span[1]) - 1
        out.append(k if 0 <= k < last and span[2] <= stamps[k + 1] else -1)
    return out


def reduce_spans(spans: Sequence[list], stamps: Sequence[float]) -> dict:
    """Per-layer calls, self time and counts, plus tick accounting.

    A span's self time is its duration minus its direct children's
    durations.  ``tick_busy_ms`` is the stamped tick time and
    ``tick_self_ms`` the part of it no top-level span covers, so
    ``tick_self_ms + sum(in_tick_ms.values()) == tick_busy_ms``.
    """
    ticks = tick_of_spans(spans, stamps)
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ms[span[3]] += (span[2] - span[1]) * 1e3
    layers: Dict[str, dict] = {}
    in_tick_ms: Dict[str, float] = {}
    top_ms = 0.0
    for i, (span, tick) in enumerate(zip(spans, ticks)):
        name, start, end, parent, extra = span
        total = (end - start) * 1e3
        self_ms = total - child_ms[i]
        row = layers.setdefault(
            name, {"calls": 0, "busy_ms": 0.0, "ms_max": 0.0, "extra": None}
        )
        row["calls"] += 1
        row["busy_ms"] += self_ms
        row["ms_max"] = max(row["ms_max"], total)
        if extra is not None:
            if row["extra"] is None:
                row["extra"] = [0] * len(extra)
            row["extra"] = [a + b for a, b in zip(row["extra"], extra)]
            if name == "checkpoint.save":
                row.setdefault("bytes_first", extra[0])
                row["bytes_last"] = extra[0]
            if name == "core.consolidation" and extra[1] > 0:
                row["useful_passes"] = row.get("useful_passes", 0) + 1
        if tick >= 0:
            in_tick_ms[name] = in_tick_ms.get(name, 0.0) + self_ms
            if parent < 0:
                top_ms += total
    tick_busy_ms = (stamps[-1] - stamps[0]) * 1e3
    return {
        "layers": layers,
        "in_tick_ms": in_tick_ms,
        "tick_busy_ms": tick_busy_ms,
        "tick_self_ms": tick_busy_ms - top_ms,
    }
