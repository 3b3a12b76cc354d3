"""Columnar storage for one table of recorded dataclass rows.

Every tick records a few thousand samples and control messages.  A
:class:`Table` stores them as one plain Python list per dataclass field,
so recording a tick appends a handful of values per column instead of
building one object per row: nothing it holds is tracked by the cyclic
garbage collector, and the lists are already the checkpoint payload.
Readers still see rows -- iteration and indexing build the row objects
on demand -- while hot readers take whole columns with :meth:`column`.

Columns hold Python scalars (``ndarray.tolist()`` values, never NumPy
scalars), so ``repr`` of a recorded value and left-fold ``sum`` over a
column are the same as over the rows they replace.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import fields
from typing import Any, Iterable, List

from repro.checkpoint.errors import CheckpointError

__all__ = ["Table"]


class Table(Sequence):
    """A sequence of ``row_class`` rows stored column by column."""

    __slots__ = ("row_class", "fields", "columns")

    def __init__(self, row_class: type, rows: Iterable = ()):
        self.row_class = row_class
        self.fields = tuple(f.name for f in fields(row_class))
        self.columns = tuple([] for _ in self.fields)
        self.extend(rows)

    # -- recording -----------------------------------------------------------
    def append(self, row) -> None:
        """Record one row object (its ``__post_init__`` already ran)."""
        for column, name in zip(self.columns, self.fields):
            column.append(getattr(row, name))

    def extend(self, rows: Iterable) -> None:
        for row in rows:
            self.append(row)

    def append_columns(self, *values: List[Any]) -> None:
        """Record a block of rows given as one list per field, in field
        order -- the per-tick path of every controller."""
        if len(values) != len(self.fields):
            raise ValueError(
                f"{self.row_class.__name__} has {len(self.fields)} fields, "
                f"got {len(values)} columns"
            )
        for column, block in zip(self.columns, values):
            column.extend(block)

    # -- reading -------------------------------------------------------------
    def column(self, name: str) -> list:
        """One field's values in row order (the live list: do not mutate)."""
        return self.columns[self.fields.index(name)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.row_class, *self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.row_class, *(c[index] for c in self.columns)))
        return self.row_class(*(c[index] for c in self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, Table) and other.row_class is self.row_class:
            return self.columns == other.columns
        if isinstance(other, (Table, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))

    # -- checkpointing -------------------------------------------------------
    def state(self) -> Any:
        """The checkpoint payload: field names plus a copy of each
        column (an empty table is ``[]``).  Every value is kept as it
        is, so bools, ``None``, NaN and -0.0 round-trip exactly."""
        if not len(self):
            return []
        return {"fields": self.fields, "columns": [list(c) for c in self.columns]}

    def load(self, encoded: Any, table: str) -> None:
        """Replace the rows with a copy of a :meth:`state` payload.

        The field names must be this build's and every column the same
        length, else :class:`CheckpointError` names ``table``.  Rows of
        a class with ``__post_init__`` are built once so its validation
        runs on every loaded row.
        """
        if encoded == []:
            columns = [()] * len(self.fields)
        else:
            found = tuple(encoded["fields"]) if isinstance(encoded, dict) else None
            if found != self.fields:
                raise CheckpointError(
                    f"snapshot table {table!r} has fields {found}; this build's "
                    f"{self.row_class.__name__} has {self.fields}"
                )
            columns = encoded["columns"]
            lengths = [len(c) for c in columns]
            if len(columns) != len(self.fields) or len(set(lengths)) > 1:
                raise CheckpointError(
                    f"snapshot table {table!r} has ragged columns: lengths "
                    f"{lengths} for fields {self.fields}"
                )
            if hasattr(self.row_class, "__post_init__"):
                deque(map(self.row_class, *columns), maxlen=0)
        self.columns = tuple(map(list, columns))
