"""The common facade protocol of spatial index implementations.

:class:`SpatialIndexFacade` is the contract every "complete index" in this
repository satisfies: the single-machine
:class:`~repro.core.index.MovingObjectIndex` and the spatially partitioned
:class:`~repro.shard.index.ShardedIndex` are drop-in interchangeable anywhere
a facade is consumed: the online concurrent operation engine, persistence,
the examples, and the figure runners that drive both implementations program
against this surface.  (Some single-index experiment code reaches deeper —
``run_experiment`` reads per-strategy outcome counters and tree statistics
that deliberately have no sharded aggregate.)

The protocol has two halves:

* the **data plane** — the typed entry points :meth:`execute` /
  :meth:`execute_many` (operating on :class:`repro.api.operations.Operation`
  values, streaming query results through
  :class:`~repro.api.results.QueryCursor`\\ s) together with the direct
  methods ``load`` / ``insert`` / ``update`` / ``delete`` / ``range_query``
  / ``knn``, and the statistics/validation hooks;
* the **engine SPI** — the hooks the
  :class:`~repro.concurrency.engine.OnlineOperationEngine` needs to schedule
  operations without knowing what kind of index it drives:
  :meth:`lock_requests_for` (predict an operation's DGL granule lock set),
  :meth:`prepare_concurrent_batch` (turn an update batch into schedulable
  virtual operations), and :meth:`total_physical_io`, from which the engine
  measures each operation's I/O into its per-client ledger.
  A sharded index namespaces its granules per shard, which is exactly how
  operations on different shards become conflict-free under one scheduler.

:meth:`engine` is concrete: opening a multi-client session works identically
for every implementation.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Any,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import repro.api.operations as api_ops
from repro.api.errors import InvalidOperationError, OperationError
from repro.api.results import BatchReport, OperationResult, QueryCursor
from repro.geometry import Point, Rect
from repro.storage import IOStatistics

if TYPE_CHECKING:  # typing only; avoids import cycles at runtime
    from pathlib import Path

    from repro.concurrency.engine import ConcurrentSession, PreparedBatch
    from repro.concurrency.locks import LockMode
    from repro.durability.commit import DurabilityManager
    from repro.update import UpdateOutcome


class SpatialIndexFacade(abc.ABC):
    """Abstract surface shared by single and sharded moving-object indexes."""

    #: Default parameters for sessions opened via :meth:`engine`: the
    #: ``engine`` section of a spec or checkpoint, which
    #: :func:`repro.api.builder.install_sections` assigns as an instance
    #: attribute.  Class-level empty mapping.
    engine_defaults: Mapping[str, Any] = {}

    #: The active parallel-execution spec (``{"backend": ..., "workers": N}``)
    #: or ``None`` for serial execution.  Only the sharded implementation
    #: supports non-serial backends; the class-level default keeps the
    #: attribute readable on every facade.
    parallel_spec: Optional[Mapping[str, Any]] = None

    #: Attached :class:`~repro.durability.commit.DurabilityManager`, or
    #: ``None`` when the index runs without a write-ahead log.  When set,
    #: every mutation is logged once it has been applied (apply first, log
    #: on success), and checkpoints rotate the logs (see
    #: :mod:`repro.durability`).
    durability: Optional["DurabilityManager"] = None

    def attach_durability(self, manager: "DurabilityManager") -> None:
        """Start write-ahead logging every mutation through *manager*.

        The manager must describe the state the index currently holds (a
        fresh empty index, or one just restored + replayed from the
        manager's own directory) — attaching does not checkpoint; call
        :meth:`checkpoint` (or :meth:`load`, which checkpoints when
        durability is attached) to establish the recovery baseline.
        """
        if self.durability is not None:
            self.durability.close()
        self.durability = manager

    def detach_durability(self) -> None:
        """Stop logging; flushes and closes the logs (no-op when detached)."""
        if self.durability is not None:
            self.durability.close()
            self.durability = None

    def checkpoint(self, path: Optional[Any] = None) -> "Path":
        """Write a checkpoint and — when it lands in the durability
        directory — rotate the write-ahead logs.

        With *path* omitted the checkpoint goes to the attached durability
        manager's ``checkpoint.json`` (requires durability).  An explicit
        *path* elsewhere is a plain export: the logs are left untouched, so
        the durability directory keeps its own recovery timeline.
        """
        from pathlib import Path as _Path

        from repro.core.persistence import save_index  # local: import cycle

        if path is None:
            if self.durability is None:
                raise ValueError(
                    "checkpoint() without a path requires an attached "
                    "durability manager; pass an explicit path instead"
                )
            path = self.durability.checkpoint_path
        save_index(self, path)
        return _Path(path)

    def set_parallel(
        self,
        backend: str = "process",
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        """Attach a shard-execution backend (sharded indexes only).

        The default facade accepts only ``"serial"`` (a no-op); the sharded
        implementation overrides this with the real process backend
        (see :mod:`repro.shard.parallel`).
        """
        if backend != "serial":
            raise ValueError(
                f"parallel backend {backend!r} requires a sharded index"
            )

    def detach_parallel(self) -> None:
        """Return to serial execution (no-op when nothing is attached)."""

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def load(self, objects: Iterable[Tuple[int, Point]], bulk: bool = True) -> None:
        """Load the initial set of objects (construction, not measured)."""

    @abc.abstractmethod
    def configure_buffer(self, percent: Optional[float] = None) -> None:
        """(Re)size the buffer pool as a percentage of the database size.

        A sharded implementation sizes the *aggregate* pool against the
        aggregate database and splits the resulting capacity across its
        shards' pools in proportion to their disk sizes.
        """

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

    @abc.abstractmethod
    def _execute_operation_stream(
        self,
        operations: Iterable["api_ops.Operation"],
        strict_deletes: bool,
    ) -> BatchReport:
        """Validate and run one operation stream (the body of ``execute_many``)."""

    @abc.abstractmethod
    def stream_query(self, window: Rect) -> "QueryCursor[int]":
        """A streaming cursor over the objects inside *window*.

        Same answer and order as :meth:`range_query`, but lazily: the tree
        traversal advances only as the cursor is consumed.
        """

    @abc.abstractmethod
    def stream_knn(self, point: Point, k: int) -> "QueryCursor[Tuple[float, int]]":
        """A streaming cursor over the *k* nearest ``(distance, oid)`` pairs."""

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, oid: int, location: Point) -> None:
        """Insert a new object (:class:`DuplicateObjectError` when it exists)."""

    @abc.abstractmethod
    def update(self, oid: int, new_location: Point) -> "UpdateOutcome":
        """Move an existing object (:class:`UnknownObjectError` when absent)."""

    @abc.abstractmethod
    def delete(self, oid: int, strict: bool = True) -> bool:
        """Remove an object; ``True`` when it existed.

        With ``strict=True`` (default) deleting an absent object raises
        :class:`~repro.api.errors.UnknownObjectError`, mirroring
        :meth:`update`; ``strict=False`` returns ``False`` instead.
        """

    @abc.abstractmethod
    def range_query(self, window: Rect) -> List[int]:
        """Object ids whose positions fall inside *window*."""

    @abc.abstractmethod
    def knn(self, point: Point, k: int) -> List[Tuple[float, int]]:
        """The *k* objects nearest to *point* as ``(distance, oid)`` pairs."""

    @abc.abstractmethod
    def position_of(self, oid: int) -> Optional[Point]:
        """Last recorded position of *oid* (``None`` if absent)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __contains__(self, oid: int) -> bool: ...

    # ------------------------------------------------------------------
    # Statistics and integrity
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reset_statistics(self) -> None:
        """Zero the I/O counters and outcome counters."""

    @abc.abstractmethod
    def io_snapshot(self) -> IOStatistics:
        """A copy of the current (aggregated) I/O counters."""

    @abc.abstractmethod
    def validate(self, check_min_fill: bool = False) -> dict:
        """Run the full structural validation; returns statistics."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable one-line summary of the index state."""

    # ------------------------------------------------------------------
    # Engine SPI — lock-scope prediction
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def lock_requests_for(
        self, op: "api_ops.Operation"
    ) -> List[Tuple[Hashable, "LockMode"]]:
        """Predict the granule lock set of one typed operation.

        Dispatches on the operation's type; an ``Update`` of an object the
        index does not hold predicts the scope of the insert the engine runs
        instead.  Recomputed on every dispatch attempt, so predictions track
        the live index.
        """

    @abc.abstractmethod
    def prepare_concurrent_batch(
        self, engine, updates: Iterable["api_ops.Update"]
    ) -> "PreparedBatch":
        """Turn a typed update batch into schedulable virtual operations.

        The updates are validated through the shared stream grammar
        (:func:`~repro.update.batch.parse_operation_stream`), so an unknown
        oid raises before anything executes.  Returns a
        :class:`~repro.concurrency.engine.PreparedBatch` whose operations the
        engine hands to the scheduler and whose ``finalize`` callback computes
        the batch's I/O delta once the schedule drains.
        """

    def maintenance_operations(self, engine) -> List:
        """Background work to interleave with a live engine schedule.

        The online engine polls this hook between operation draws and hands
        whatever it returns to the scheduler ahead of the next client
        operation, under the ordinary all-or-nothing granule locking.  The
        default facade has no background work; a sharded index with an
        online rebalancer attached returns its conflict-scheduled
        rebalance migrations here (see
        :meth:`repro.shard.index.ShardedIndex.maintenance_operations`).
        """
        return []

    # ------------------------------------------------------------------
    # Engine SPI — physical-I/O measurement
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def total_physical_io(self) -> int:
        """Aggregated physical I/O count (reads + writes + charged probes)."""

    # ------------------------------------------------------------------
    # Concurrent execution (shared implementation)
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
        its lock scope through :meth:`lock_requests_for`, acquires the locks
        all-or-nothing, blocks on conflict, and runs for real when its locks
        are granted.  Works identically for single and sharded indexes; a
        sharded index namespaces granules per shard, so operations on
        different shards never conflict.

        Parameters left unset fall back to the index's
        :attr:`engine_defaults` (the spec's ``engine`` section), then to the global defaults
        (50 clients, 0.01 per I/O, 0.001 per op).
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
                self,
                num_clients=num_clients,
                time_per_io=time_per_io,
                cpu_time_per_op=cpu_time_per_op,
            )
        )
