"""repro.api — the typed public operation surface (API v2).

This package is the single schema through which the index stack is driven:

* :mod:`repro.api.operations` — frozen :class:`Operation` dataclasses
  (:class:`Insert`, :class:`Update`, :class:`Delete`, :class:`RangeQuery`,
  :class:`KNN`) — the one operation currency from the facade down to
  the concurrent engine's scheduler;
* :mod:`repro.api.errors` — the structured error taxonomy
  (:class:`UnknownObjectError`, :class:`DuplicateObjectError`,
  :class:`InvalidWindowError`, ...), each error also inheriting the builtin
  exception the legacy surface raised for the same condition;
* :mod:`repro.api.results` — :class:`OperationResult`,
  :class:`BatchReport`, and the streaming :class:`QueryCursor`;
* :mod:`repro.api.builder` — the declarative entry point
  :func:`open_index`, whose one JSON-round-trippable spec is shared with
  persistence checkpoints.

Typical usage::

    import repro
    from repro.api import KNN, RangeQuery, Update

    index = repro.open_index({"kind": "sharded", "shards": 4,
                              "config": {"strategy": "GBU"}})
    index.load(initial_objects)

    index.execute(Update(42, Point(0.30, 0.41)))
    cursor = index.execute(RangeQuery(Rect(0.2, 0.2, 0.4, 0.5))).cursor()
    first_ten = cursor.fetch(10)          # streaming: pays only what it reads

    report = index.execute_many([Update(7, p1), Update(9, p2), KNN(p3, 5)])
    print(report.describe())

>>> from repro.api import Operation, Update
>>> from repro.geometry import Point
>>> isinstance(Update(1, Point(0.5, 0.5)), Operation)
True
"""

from repro.api.builder import (
    config_from_spec,
    config_to_spec,
    index_spec,
    open_index,
)
from repro.api.errors import (
    CheckpointError,
    CorruptLogError,
    DuplicateObjectError,
    InvalidNeighborCountError,
    InvalidOperationError,
    InvalidWindowError,
    OperationError,
    UnknownObjectError,
    WorkerFailedError,
)
from repro.api.operations import (
    KNN,
    Delete,
    Insert,
    Operation,
    RangeQuery,
    Update,
)
from repro.api.results import BatchReport, OperationResult, QueryCursor

__all__ = [
    # operations
    "Operation",
    "Insert",
    "Update",
    "Delete",
    "RangeQuery",
    "KNN",
    # errors
    "OperationError",
    "UnknownObjectError",
    "DuplicateObjectError",
    "InvalidWindowError",
    "InvalidNeighborCountError",
    "InvalidOperationError",
    "CheckpointError",
    "CorruptLogError",
    "WorkerFailedError",
    # results
    "OperationResult",
    "BatchReport",
    "QueryCursor",
    # construction
    "open_index",
    "index_spec",
    "config_to_spec",
    "config_from_spec",
]
