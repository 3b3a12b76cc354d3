"""Export recorded metrics to CSV / JSON for external analysis.

The collector's in-memory series are handy inside Python; downstream
users (plotting, spreadsheets, other languages) get flat files:

* :func:`export_csv` -- one CSV per record type into a directory;
* :func:`export_json` -- a single JSON document;
* :func:`load_json` -- round-trip loader (returns plain dicts/lists).

The table set is derived from :class:`MetricsCollector`'s dataclass
fields (:func:`record_tables`), not hand-listed: every
:class:`~repro.metrics.table.Table` or list field exports, so adding a
record series to the collector automatically adds its table here.  (A
hand-written table list once silently dropped
``unmatched_deficits`` and ``plant_events`` -- the whole fault
telemetry of a run; ``tests/test_metrics_export.py`` now asserts the
field-to-table coverage introspectively.)
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.metrics.collector import MetricsCollector
from repro.metrics.table import Table

__all__ = ["export_csv", "export_json", "load_json", "record_tables"]

#: Collector field -> exported table name, where they differ (the
#: original export shipped the sample series under shorter names).
_TABLE_NAMES = {"server_samples": "servers", "switch_samples": "switches"}

#: Column names for series stored as plain tuples instead of dataclasses.
_TUPLE_COLUMNS = {"imbalance": ("time", "imbalance_watts")}


def record_tables(collector: MetricsCollector) -> Dict[str, list]:
    """Every record series of the collector, keyed by exported name.

    Introspects the dataclass: all table- and list-valued fields are
    record series (others, like the forwarding tracer, are not).
    """
    tables: Dict[str, list] = {}
    for field in dataclasses.fields(type(collector)):
        value = getattr(collector, field.name)
        if not isinstance(value, (Table, list)):
            continue
        tables[_TABLE_NAMES.get(field.name, field.name)] = value
    return tables


def _plain(column: list) -> list:
    """Enum members as their values; every other value as it is."""
    return [v.value if hasattr(v, "value") else v for v in column]


def _table_rows(name: str, records) -> List[Dict[str, Any]]:
    if isinstance(records, Table):
        names, rows = records.fields, zip(*map(_plain, records.columns))
    else:
        names, rows = _TUPLE_COLUMNS[name], records
    return [dict(zip(names, row)) for row in rows]


def export_csv(collector: MetricsCollector, directory) -> Dict[str, Path]:
    """Write one CSV per record type; returns the written paths.

    Empty record types are skipped.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for name, records in record_tables(collector).items():
        rows = _table_rows(name, records)
        if not rows:
            continue
        path = directory / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        written[name] = path
    return written


def export_json(collector: MetricsCollector, path) -> Path:
    """Write the whole collector as one JSON document."""
    path = Path(path)
    document = {
        name: _table_rows(name, records)
        for name, records in record_tables(collector).items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1))
    return path


def load_json(path) -> Dict[str, Any]:
    """Load a document written by :func:`export_json`."""
    return json.loads(Path(path).read_text())
