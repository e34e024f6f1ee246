"""Typed results of the operation API: cursors, per-operation results, batch reports.

The pre-v2 surface answered queries with fully materialised lists and
signalled failure with bare ``KeyError``/``bool`` returns.  This module is
the replacement contract:

* :class:`QueryCursor` — an iterator over query results that *streams*:
  the underlying tree traversal advances only as the cursor is consumed, one
  leaf at a time, so a caller that stops after ten hits pays the I/O of the
  leaves holding them, not of the whole result set;
* :class:`OperationResult` — the uniform outcome envelope of one executed
  operation (value, update outcome, or structured error);
* :class:`BatchReport` — what one batch did: the per-kind counts and I/O
  delta of the group-by-leaf execution plus every query's answer, in
  stream order.

>>> from repro.api.results import QueryCursor
>>> cursor = QueryCursor(iter([3, 1, 2]))
>>> cursor.fetch(2)
[3, 1]
>>> list(cursor)
[2]
>>> cursor.fetch(5)
[]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    TypeVar,
)

from repro.api.errors import OperationError
from repro.api.operations import Operation

if TYPE_CHECKING:  # typing only; avoids runtime import cycles
    from repro.storage.stats import IOStatistics
    from repro.update.base import UpdateOutcome

T = TypeVar("T")


class QueryCursor(Generic[T], Iterator[T]):
    """A streaming iterator over query results.

    Wraps a lazy result source.  A window query's source is the tree
    traversal's per-leaf hit lists flattened with
    ``itertools.chain.from_iterable``: a ``next()`` that finds the current
    leaf's list used up advances the traversal to the next leaf holding a
    hit and takes that leaf's hits whole, so the I/O is charged per leaf,
    when — and only if — the caller consumes a hit from it, and no Python
    frame resumes per hit.  A drained cursor keeps returning nothing.
    """

    def __init__(self, source: Iterable[T]) -> None:
        self._source: Iterator[T] = iter(source)

    def __iter__(self) -> "QueryCursor[T]":
        return self

    def __next__(self) -> T:
        return next(self._source)

    def fetch(self, count: int) -> List[T]:
        """Up to *count* further results (fewer when the source runs dry)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        results: List[T] = []
        for _ in range(count):
            try:
                results.append(next(self))
            except StopIteration:
                break
        return results

    def all(self) -> List[T]:
        """Every remaining result, materialised in one ``list()`` call."""
        return list(self._source)


@dataclass
class OperationResult:
    """The outcome envelope of one executed :class:`~repro.api.operations.Operation`.

    Exactly one of the payload fields is meaningful, by operation kind:

    * ``Update`` — ``outcome`` (how the strategy carried the move out);
    * ``Insert`` — nothing (success is the absence of ``error``);
    * ``Delete`` — ``value`` is ``True`` (``False`` only under
      ``strict=False``, where a missing object is not an error);
    * ``RangeQuery`` / ``KNN`` — ``value`` is a :class:`QueryCursor`.

    Under ``strict`` execution (the default) errors raise; under
    ``strict=False`` they are captured in ``error``.
    """

    operation: Operation
    value: Any = None
    outcome: Optional["UpdateOutcome"] = None
    error: Optional[OperationError] = None

    def cursor(self) -> "QueryCursor[Any]":
        """The result cursor of a query operation (raises otherwise)."""
        if not isinstance(self.value, QueryCursor):
            raise TypeError(
                f"{self.operation.kind!r} result carries no cursor"
            )
        return self.value

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.operation.kind}: error={self.error}"
        if self.outcome is not None:
            return f"{self.operation.kind}: {self.outcome.value}"
        return f"{self.operation.kind}: ok"


@dataclass
class BatchReport:
    """What one batch execution did, and what it cost.

    Built by the batch layer (:mod:`repro.update.batch`), the facade's
    ``execute_many`` and the concurrent engine's batch path: per-kind
    operation counts, group/coalescing/residual/migration statistics of the
    group-by-leaf pipeline, every window query's answer and every kNN's
    answer in stream order, and the batch's
    :class:`~repro.storage.stats.IOStatistics` delta — taken between the
    first and last operation, so batch and per-operation cost compare
    without resetting the index-wide counters.
    """

    #: Updates submitted (before coalescing).
    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    #: Window-query answers, in stream order.
    queries: List[List[int]] = field(default_factory=list)
    #: kNN answers (``(distance, oid)`` pairs), in stream order.
    neighbors: List[List[Any]] = field(default_factory=list)
    #: Updates superseded by a later update of the same object.
    coalesced: int = 0
    #: Leaf buckets run through the strategy's ladder.
    groups: int = 0
    #: Size of the largest single group.
    largest_group: int = 0
    #: Updates replayed through the per-operation path: members the engine
    #: re-routed because their leaf changed since planning.
    residuals: int = 0
    #: Updates that crossed a shard boundary (sharded index only).
    migrations: int = 0
    #: Per-batch I/O delta, set by ``execute_many`` when the call finishes.
    io: Optional["IOStatistics"] = None

    @property
    def operations(self) -> int:
        """Total operations the batch carried out."""
        return (
            self.updates
            + self.inserts
            + self.deletes
            + len(self.queries)
            + len(self.neighbors)
        )

    def describe(self) -> str:
        migrated = f", migrations={self.migrations}" if self.migrations else ""
        io = ""
        if self.io is not None:
            io = (
                f" | physical_reads={self.io.physical_reads} "
                f"physical_writes={self.io.physical_writes}"
            )
        return (
            f"updates={self.updates} (coalesced={self.coalesced}, "
            f"groups={self.groups}, residual={self.residuals}{migrated}) "
            f"inserts={self.inserts} deletes={self.deletes} "
            f"queries={len(self.queries)} knn={len(self.neighbors)}{io}"
        )


__all__ = ["QueryCursor", "OperationResult", "BatchReport"]
