"""The facade every index is opened through.

:class:`SpatialIndexFacade` holds the code a caller reaches on any index
``open_index`` returns: the typed entry points :meth:`execute` /
:meth:`execute_many` (operating on :class:`repro.api.operations.Operation`
values and streaming query results through
:class:`~repro.api.results.QueryCursor`\\ s) and multi-client sessions over
the online operation engine.

It has one implementation, :class:`~repro.shard.index.ShardedIndex`: a
single index is a one-shard ``ShardedIndex`` (spec ``{"kind": "single"}``)
whose one :class:`~repro.core.index.MovingObjectIndex` is the paper's
system.  The abstract methods below are only what this shared code calls.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Tuple, cast

import repro.api.operations as api_ops
from repro.api.errors import InvalidOperationError, OperationError
from repro.api.results import BatchReport, OperationResult, QueryCursor
from repro.geometry import Point, Rect

if TYPE_CHECKING:  # typing only; avoids import cycles at runtime
    from repro.concurrency.engine import ConcurrentSession
    from repro.shard.index import ShardedIndex
    from repro.update import UpdateOutcome


class SpatialIndexFacade(abc.ABC):
    """The typed operation surface and engine sessions."""

    #: Default parameters for sessions opened via :meth:`engine`: the
    #: ``engine`` section of a spec or checkpoint, which
    #: :func:`repro.api.builder.install_sections` assigns as an instance
    #: attribute.  Class-level empty mapping.
    engine_defaults: Mapping[str, Any] = {}

    @abc.abstractmethod
    def insert(self, oid: int, location: Point) -> None: ...

    @abc.abstractmethod
    def update(self, oid: int, new_location: Point) -> "UpdateOutcome": ...

    @abc.abstractmethod
    def delete(self, oid: int, strict: bool = True) -> bool: ...

    @abc.abstractmethod
    def stream_query(self, window: Rect) -> "QueryCursor[int]": ...

    @abc.abstractmethod
    def stream_knn(self, point: Point, k: int) -> "QueryCursor[Tuple[float, int]]": ...

    @abc.abstractmethod
    def _execute_operation_stream(
        self, operations: Iterable["api_ops.Operation"], strict_deletes: bool
    ) -> BatchReport: ...

    # ------------------------------------------------------------------
    # Typed operation API (v2): one schema for every operation path
    # ------------------------------------------------------------------
    def execute(
        self, operation: "api_ops.Operation", strict: bool = True
    ) -> OperationResult:
        """Execute one typed operation and return its result envelope.

        Query operations return their :class:`~repro.api.results.QueryCursor`
        in ``result.value`` — consuming the cursor advances the underlying
        traversal, so unread results cost no I/O.

        With ``strict=True`` (default) failures raise their structured
        :class:`~repro.api.errors.OperationError`; with ``strict=False``
        *execution* errors are captured on the returned result instead, and
        a ``Delete`` of an absent object degrades to the ``False``-returning
        behaviour.  Anything that is not an
        :class:`~repro.api.operations.Operation` always raises
        :class:`~repro.api.errors.InvalidOperationError` — there is no
        operation to attach a result to.
        """
        op = operation
        try:
            if isinstance(op, api_ops.Update):  # the common case first
                return OperationResult(op, outcome=self.update(op.oid, op.new_location))
            if isinstance(op, api_ops.Insert):
                from repro.update import UpdateOutcome  # local: import cycle

                self.insert(op.oid, op.location)
                return OperationResult(op, outcome=UpdateOutcome.INSERTED_NEW)
            if isinstance(op, api_ops.Delete):
                return OperationResult(op, value=self.delete(op.oid, strict=strict))
            if isinstance(op, api_ops.RangeQuery):
                return OperationResult(op, value=self.stream_query(op.window))
            if isinstance(op, api_ops.KNN):
                return OperationResult(op, value=self.stream_knn(op.point, op.k))
        except OperationError as error:
            if strict:
                raise
            return OperationResult(op, error=error)
        raise InvalidOperationError(f"expected an Operation, got {op!r}")

    def execute_many(
        self,
        operations: Iterable["api_ops.Operation"],
        strict: bool = True,
    ) -> BatchReport:
        """Execute a typed operation stream with batched updates.

        Runs of consecutive updates are grouped by leaf and executed with
        one leaf read/write per group; inserts, deletes and queries act as
        barriers, so the stream observes exactly the sequential semantics.
        Query and kNN answers land on the returned
        :class:`~repro.api.results.BatchReport` in stream order.  The whole
        stream is validated before anything executes — an item that is not
        an :class:`~repro.api.operations.Operation` raises
        :class:`~repro.api.errors.InvalidOperationError`; under
        ``strict=True`` a ``Delete`` of an absent object is an
        :class:`~repro.api.errors.UnknownObjectError`, under
        ``strict=False`` a silent no-op.
        """
        return self._execute_operation_stream(operations, strict_deletes=strict)

    # ------------------------------------------------------------------
    # Concurrent execution
    # ------------------------------------------------------------------
    def engine(
        self,
        num_clients: Optional[int] = None,
        time_per_io: Optional[float] = None,
        cpu_time_per_op: Optional[float] = None,
    ) -> "ConcurrentSession":
        """Open a multi-client session over the online operation engine.

        Virtual clients execute operations concurrently under DGL granule
        locking on a deterministic logical clock: each operation predicts
        its lock scope (``lock_requests_for``), acquires the locks
        all-or-nothing, blocks on conflict, and runs for real when its locks
        are granted.  Granules are namespaced per shard, so operations on
        different shards never conflict.

        Parameters left unset fall back to the index's
        :attr:`engine_defaults` (the spec's ``engine`` section), then to the
        global defaults (50 clients, 0.01 per I/O, 0.001 per op).
        """
        from repro.concurrency.engine import (  # local: engine imports nothing from core
            ConcurrentSession,
            OnlineOperationEngine,
        )

        defaults = self.engine_defaults
        if num_clients is None:
            num_clients = int(defaults.get("num_clients", 50))
        if time_per_io is None:
            time_per_io = float(defaults.get("time_per_io", 0.01))
        if cpu_time_per_op is None:
            cpu_time_per_op = float(defaults.get("cpu_time_per_op", 0.001))
        return ConcurrentSession(
            OnlineOperationEngine(
                cast("ShardedIndex", self),  # the one facade the engine drives
                num_clients=num_clients,
                time_per_io=time_per_io,
                cpu_time_per_op=cpu_time_per_op,
            )
        )
