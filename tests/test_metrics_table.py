"""The column store behind the collector's row tables."""

import pytest

from repro.checkpoint import CheckpointError
from repro.core.events import ControlMessage, Drop
from repro.metrics.table import Table


def test_rows_read_back_as_recorded_whichever_way_they_were_appended():
    rows = [Drop(0.0, 1, None, 2.5), Drop(1.0, 2, 7, 0.0), Drop(1.0, 3, 8, 4.0)]
    table = Table(Drop, rows[:1])
    table.append(rows[1])
    table.append_columns([1.0], [3], [8], [4.0])
    assert table == rows and rows == list(table)
    assert len(table) == 3
    assert table[-1] == rows[-1]
    assert table[1:] == rows[1:]
    assert table.column("vm_id") == [None, 7, 8]
    assert table != rows[:2]
    assert Table(Drop, rows) == table


def test_append_columns_needs_one_list_per_field():
    table = Table(ControlMessage)
    with pytest.raises(ValueError):
        table.append_columns([0.0], [1])
    assert len(table) == 0


def test_state_round_trips_as_a_copy_and_load_validates_rows():
    table = Table(Drop, [Drop(0.0, 1, None, 2.5)])
    state = table.state()
    assert state == {"fields": ("time", "node_id", "vm_id", "power"),
                     "columns": [[0.0], [1], [None], [2.5]]}
    twin = Table(Drop)
    twin.load(state, "drops")
    state["columns"][3][0] = 9.0  # the loaded table holds its own lists
    assert twin == table
    assert Table(Drop).state() == []

    state["columns"][3][0] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        Table(Drop).load(state, "drops")
    state["columns"][3] = []
    with pytest.raises(CheckpointError, match="'drops' has ragged columns"):
        Table(Drop).load(state, "drops")
