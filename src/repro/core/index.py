"""The MovingObjectIndex facade.

A :class:`MovingObjectIndex` is the complete system the paper evaluates: an
R-tree on a paged, buffered disk; a secondary object-ID hash index; the
main-memory summary structure (when the configured strategy uses it); and one
of the update strategies (TD, NAIVE, LBU, GBU).

Typical usage (the typed operation API, v2)::

    import repro
    from repro.api import KNN, RangeQuery, Update
    from repro.geometry import Point, Rect

    index = repro.open_index({"config": {"strategy": "GBU"}})
    index.load([(oid, Point(x, y)) for oid, (x, y) in enumerate(positions)])

    index.execute(Update(42, Point(0.30, 0.41)))  # object 42 moved
    hits = index.execute(RangeQuery(Rect(0.2, 0.2, 0.4, 0.5))).cursor()
    print(hits.fetch(10))                         # streaming result cursor
    print(index.stats.as_dict())                  # disk I/O so far

High-rate ingestion should prefer the batch entry point, which groups
pending updates by leaf page and executes each group with one leaf
read/write (see :mod:`repro.update.batch`)::

    report = index.execute_many([
        Update(7, Point(0.8, 0.1)),
        Update(42, Point(0.32, 0.40)),
        RangeQuery(Rect(0.2, 0.2, 0.4, 0.5)),
    ])
    print(report.describe())                      # per-batch I/O snapshot

Multi-client workloads run through the online concurrent operation engine
(:meth:`MovingObjectIndex.engine`): virtual clients acquire DGL granule
locks predicted by the strategy's ``lock_scope()`` hook and execute against
the index on a deterministic logical clock::

    session = index.engine(num_clients=50)
    session.submit(0, Update(42, Point(0.33, 0.40)))
    print(session.run().throughput)

The direct methods (``update`` / ``range_query`` / ...) remain first-class.

The facade tracks each object's current position so callers only supply the
new position on update (the strategies internally need the old one to apply
the distance-threshold optimisation and to fall back to top-down deletion).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import repro.api.operations as api_ops
from repro.api.errors import (
    DuplicateObjectError,
    InvalidOperationError,
    UnknownObjectError,
)
from repro.api.results import BatchReport, QueryCursor
from repro.concurrency.dgl import DGLProtocol
from repro.concurrency.engine import (
    GroupOperation,
    PreparedBatch,
    ReplayOperation,
)
from repro.concurrency.locks import LockMode
from repro.core.config import IndexConfig
from repro.core.protocol import SpatialIndexFacade
from repro.durability.commit import SINGLE_SHARD
from repro.durability.wal import (
    LogRecord,
    delete_record,
    insert_record,
    set_strategy_record,
    update_record,
)
from repro.geometry import Point, Rect
from repro.rtree.bulk import bulk_load_str
from repro.rtree.tree import RTree
from repro.rtree.validation import validate_tree
from repro.secondary import ObjectHashIndex
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.storage.serialization import NodeCodec
from repro.summary import SummaryStructure
from repro.update import UpdateOutcome, make_strategy
from repro.update.factory import strategy_names, strategy_requires_parent_pointers
from repro.update.base import BatchUpdate, UpdateStrategy
from repro.update.batch import (
    BatchExecutor,
    BatchOperation,
    DeleteOp,
    parse_operation_stream,
)


class MovingObjectIndex(SpatialIndexFacade):
    """A complete moving-object index with a configurable update strategy."""

    def __init__(self, config: Optional[IndexConfig] = None) -> None:
        self.config = config if config is not None else IndexConfig()
        self.stats = IOStatistics()
        self.layout = PageLayout(page_size=self.config.page_size)
        self.disk = DiskManager(page_size=self.config.page_size, stats=self.stats)
        # The buffer is sized after loading (it depends on the database size);
        # start unbuffered so that nothing is cached before the measured phase.
        self.buffer = BufferPool(
            self.disk,
            capacity=0,
            stats=self.stats,
            codec=NodeCodec(),
        )
        self.tree = RTree(
            self.buffer,
            layout=self.layout,
            store_parent_pointers=self.config.needs_parent_pointers,
        )
        self.hash_index = ObjectHashIndex.build_from_tree(self.tree, stats=self.stats)
        self.summary: Optional[SummaryStructure] = None
        if self.config.strategy == "GBU":
            self.summary = SummaryStructure.build_from_tree(self.tree)
        self.strategy: UpdateStrategy = make_strategy(
            self.config.strategy,
            self.tree,
            params=self.config.params,
            stats=self.stats,
            hash_index=self.hash_index,
            summary=self.summary,
            use_summary_for_queries=self.config.use_summary_for_queries,
        )
        self.strategy.install()  # idempotent: construction already wired the state
        self.batch = BatchExecutor(
            self.tree, self.strategy, self.hash_index, stats=self.stats
        )
        #: The strategy currently live on this index.  ``config.strategy``
        #: stays the *initial* strategy; :meth:`set_strategy` moves this.
        self.active_strategy: str = self.config.strategy
        self._positions: Dict[int, Point] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, objects: Iterable[Tuple[int, Point]], bulk: bool = True) -> None:
        """Load the initial set of objects.

        With ``bulk=True`` (default) the initial tree is STR-packed, the
        buffer pool is sized to ``buffer_percent`` of the resulting database,
        and the I/O counters are reset — loading is index construction, not
        part of any measured phase.  With ``bulk=False`` objects are inserted
        one by one through the normal top-down path.
        """
        objects = list(objects)
        if bulk:
            if self.tree.size != 0:
                raise ValueError("bulk loading requires an empty index")
            bulk_load_str(self.tree, objects)
        else:
            for oid, location in objects:
                self.tree.insert(oid, location)
        self._positions.update(objects)
        self.configure_buffer()
        self.reset_statistics()
        if self.durability is not None:
            # Bulk construction is not representable as a cheap log tail;
            # checkpointing here (which rotates the logs) makes the loaded
            # state the recovery baseline.
            self.checkpoint()

    def configure_buffer(self, percent: Optional[float] = None) -> None:
        """(Re)size the buffer pool as a percentage of the current database size."""
        percent = self.config.buffer_percent if percent is None else percent
        self.buffer.clear()
        self.buffer.capacity = BufferPool.capacity_for_percentage(
            percent, len(self.disk)
        )

    # ------------------------------------------------------------------
    # Strategy lifecycle (hot swap)
    # ------------------------------------------------------------------
    def set_strategy(self, name: str) -> str:
        """Switch the live index to update strategy *name* without a rebuild.

        The transition is in place: the old strategy's auxiliary state is
        released through its ``uninstall()`` hook (GBU detaches the summary
        observer, LBU stops parent-pointer maintenance) and the new
        strategy's is installed (LBU backfills leaf parent pointers in one
        tree sweep — those leaf writes are the switch's I/O cost; GBU builds
        a fresh summary from the live tree, uncharged like any bootstrap).
        The tree keeps its construction-time leaf capacity throughout — the
        paper's one-slot parent-pointer charge models trees *built* for LBU.

        ``config.strategy`` remains the initial strategy; the live choice is
        :attr:`active_strategy`, which checkpoints round-trip.  Switching to
        the already-active strategy is a no-op.  When a durability manager
        is attached the switch is logged as its own commit unit, so recovery
        replays the log tail into the strategy that was live.
        """
        key = name.upper()
        if key not in strategy_names():
            raise ValueError(
                f"unknown strategy {name!r}; expected one of {strategy_names()}"
            )
        if key == self.active_strategy:
            return key
        self.strategy.uninstall()
        self.summary = None
        if strategy_requires_parent_pointers(key):
            # The LBU constructor validates the flag, so it is raised before
            # the strategy exists; install() then backfills the pointers.
            self.tree.store_parent_pointers = True
        self.strategy = make_strategy(
            key,
            self.tree,
            params=self.config.params,
            stats=self.stats,
            hash_index=self.hash_index,
            use_summary_for_queries=self.config.use_summary_for_queries,
        )
        self.strategy.install()
        self.summary = getattr(self.strategy, "summary", None)
        self.batch.strategy = self.strategy
        self.active_strategy = key
        if self.durability is not None:
            self.durability.log_unit(
                {SINGLE_SHARD: (set_strategy_record(key),)}, barrier=True
            )
        return key

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def insert(self, oid: int, location: Point) -> None:
        """Insert a new object (:class:`DuplicateObjectError` when it exists)."""
        if oid in self._positions:
            raise DuplicateObjectError(oid)
        # Apply first, log on success: a strategy that raises must leave the
        # WAL silent, or recovery would replay a mutation the live index
        # never performed (redo replay is idempotent, so apply-then-log
        # costs nothing; a crash in the gap loses an op that was never
        # acknowledged durable).
        self.strategy.insert(oid, location)
        self._positions[oid] = location
        if self.durability is not None:
            self.durability.log_record(SINGLE_SHARD, insert_record(oid, location))

    def update(self, oid: int, new_location: Point) -> UpdateOutcome:
        """Move an existing object to *new_location* using the configured strategy.

        Raises :class:`~repro.api.errors.UnknownObjectError` (a ``KeyError``)
        when the object is not indexed.
        """
        old_location = self._positions.get(oid)
        if old_location is None:
            raise UnknownObjectError(oid)
        outcome = self.strategy.update(oid, old_location, new_location)
        self._positions[oid] = new_location
        if self.durability is not None:
            self.durability.log_record(SINGLE_SHARD, update_record(oid, new_location))
        return outcome

    def delete(self, oid: int, strict: bool = True) -> bool:
        """Remove an object from the index.

        Deleting an absent object raises
        :class:`~repro.api.errors.UnknownObjectError` — the same contract as
        :meth:`update` — unless ``strict=False``, which returns ``False``
        instead (the behaviour ``execute_many(strict=False)`` and the online
        engine keep).
        """
        location = self._positions.get(oid)
        if location is None:
            if strict:
                raise UnknownObjectError(oid)
            return False
        removed = self.strategy.delete(oid, location)
        del self._positions[oid]
        if self.durability is not None:
            self.durability.log_record(SINGLE_SHARD, delete_record(oid))
        return removed

    def range_query(self, window: Rect) -> List[int]:
        """Object ids whose positions fall inside *window*."""
        return self.strategy.range_query(window)

    def stream_query(self, window: Rect) -> QueryCursor:
        """Streaming counterpart of :meth:`range_query` (same answer, same order)."""
        return QueryCursor(self.strategy.iter_range_query(window))

    def stream_knn(self, point: Point, k: int) -> QueryCursor:
        """Streaming counterpart of :meth:`knn`: pairs surface best-first."""
        return QueryCursor(self.tree.iter_knn(point, k))

    # ------------------------------------------------------------------
    # Batch operations (group-by-leaf execution, repro.update.batch)
    # ------------------------------------------------------------------
    def _execute_operation_stream(
        self, operations: Iterable[api_ops.Operation], strict_deletes: bool
    ) -> BatchReport:
        """Validate a typed stream against the overlay and run the batch."""
        parsed = self._parse_operations(operations, strict_deletes=strict_deletes)
        result = self.batch.execute(parsed)
        self._log_batch_ops(parsed)
        return result

    def _log_batch_ops(self, ops: Sequence[BatchOperation]) -> None:
        """Log one executed batch as a single group-commit frame.

        The batch executor applies its operations through the strategy
        directly (never back through the facade's per-op methods), so the
        whole stream logs here exactly once — queries carry no records.
        Called *after* the batch has been applied (apply first, log on
        success): an executor that raises mid-stream leaves the WAL silent
        rather than durably recording mutations that never happened —
        recovery then restores the pre-batch state, and the caller already
        knows the batch failed.
        """
        if self.durability is None:
            return
        records: List[LogRecord] = []
        for op in ops:
            if isinstance(op, BatchUpdate):
                records.append(update_record(op.oid, op.new_location))
            elif isinstance(op, api_ops.Insert):
                records.append(insert_record(op.oid, op.location))
            elif isinstance(op, DeleteOp):
                records.append(delete_record(op.oid))
        if records:
            self.durability.log_unit({SINGLE_SHARD: records}, barrier=True)

    def _parse_operations(
        self, operations: Iterable[api_ops.Operation], strict_deletes: bool = False
    ) -> List[BatchOperation]:
        # ``None`` in the overlay marks a pending delete; nothing touches
        # self._positions until the whole stream parses.
        parsed, overlay = parse_operation_stream(
            operations, self._positions.get, strict_deletes=strict_deletes
        )
        for oid, location in overlay.items():
            if location is None:
                self._positions.pop(oid, None)
            else:
                self._positions[oid] = location
        return parsed

    def knn(self, point: Point, k: int) -> List[Tuple[float, int]]:
        """The *k* objects nearest to *point* as ``(distance, oid)`` pairs."""
        return self.tree.knn(point, k)

    # ------------------------------------------------------------------
    # Engine SPI (repro.core.protocol; sessions open via engine())
    # ------------------------------------------------------------------
    def lock_requests_for(
        self, op: api_ops.Operation
    ) -> List[Tuple[Hashable, LockMode]]:
        """Predict one typed operation's DGL granule lock set.

        Scopes come from the strategy's prediction hooks: a top-down update
        locks every leaf its descents may visit, the bottom-up strategies
        lock the object's leaf plus shift candidates and ancestor intents.
        Recomputed on every dispatch attempt against the live tree.
        """
        strategy = self.strategy
        if isinstance(op, api_ops.Update):
            old_location = self.position_of(op.oid)
            if old_location is None:
                requests = strategy.insert_lock_scope(op.new_location)
            else:
                requests = strategy.lock_scope(op.oid, old_location, op.new_location)
        elif isinstance(op, api_ops.RangeQuery):
            requests = strategy.query_lock_scope(op.window)
        elif isinstance(op, api_ops.Insert):
            requests = strategy.insert_lock_scope(op.location)
        elif isinstance(op, api_ops.Delete):
            location = self.position_of(op.oid)
            if location is None:
                return []  # nothing to delete, nothing to lock
            requests = strategy.delete_lock_scope(op.oid, location)
        elif isinstance(op, api_ops.KNN):
            # A kNN's reach depends on the data, so the prediction is
            # conservative: the scope of a window query over the whole
            # covered space (every leaf a best-first descent might read).
            root_mbr = self.tree.root_mbr()
            window = root_mbr if root_mbr is not None else Rect.from_point(op.point)
            requests = strategy.query_lock_scope(window)
        else:
            raise InvalidOperationError(f"expected an Operation, got {op!r}")
        return DGLProtocol.as_pairs(requests)

    def prepare_concurrent_batch(
        self, engine, updates: Iterable[api_ops.Update]
    ) -> PreparedBatch:
        """Plan one update batch as schedulable virtual operations.

        The updates parse through the shared stream grammar, which pre-commits
        the facade's position map to the batch's final positions (every
        planned member eventually executes).  The batch executor then plans
        the group-by-leaf buckets (coalescing repeated updates of one object
        exactly as the serial path does); each bucket becomes one
        :class:`GroupOperation`, unindexed members become
        :class:`ReplayOperation`\\ s.
        """
        parsed = self._parse_operations(updates, strict_deletes=True)
        plan = self.batch.plan(parsed)
        result = BatchReport(updates=plan.requested, coalesced=plan.coalesced)
        operations: List = [
            ReplayOperation(engine, self.batch, request, result)
            for request in plan.unindexed
        ]
        operations.extend(
            GroupOperation(engine, self.batch, leaf_page, bucket, result)
            for leaf_page, bucket in plan.buckets.items()
        )
        before = self.batch.stats.snapshot()

        def finalize() -> None:
            result.io = self.batch.stats.snapshot().delta_since(before)
            # Apply first, log on success: finalize runs once the scheduler
            # has drained every operation, so a batch the engine abandoned
            # mid-schedule is never durably recorded as having happened.
            self._log_batch_ops(parsed)

        return PreparedBatch(operations=operations, result=result, finalize=finalize)

    def total_physical_io(self) -> int:
        """Physical reads + writes + charged hash-index probes so far."""
        return self.stats.total_physical_io

    def position_of(self, oid: int) -> Optional[Point]:
        """Last recorded position of *oid* (``None`` if absent)."""
        return self._positions.get(oid)

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, oid: int) -> bool:
        return oid in self._positions

    # ------------------------------------------------------------------
    # Statistics and integrity
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero the I/O counters and the strategy's outcome counters."""
        self.stats.reset()
        self.strategy.reset_counters()

    def io_snapshot(self) -> IOStatistics:
        """A copy of the current I/O counters."""
        return self.stats.snapshot()

    def refresh_summary(self) -> None:
        """Bulk-rebuild the summary structure from the live tree (GBU only).

        The observer protocol keeps the summary incrementally consistent, so
        this is a recovery/bulk-load hook, not part of normal operation.
        """
        if self.summary is not None:
            self.summary.rebuild_from_tree()

    def validate(self, check_min_fill: bool = False) -> dict:
        """Run the full structural validation; returns tree statistics."""
        report = validate_tree(
            self.tree, check_min_fill=check_min_fill, expected_size=len(self._positions)
        )
        hash_errors = self.hash_index.consistency_errors(self.tree)
        if hash_errors:
            raise AssertionError("; ".join(hash_errors))
        if self.summary is not None:
            summary_errors = self.summary.consistency_errors()
            if summary_errors:
                raise AssertionError("; ".join(summary_errors))
        return report

    def describe(self) -> str:
        """Human-readable one-line summary of the index state."""
        counts = self.tree.node_count()
        return (
            f"{self.config.describe()} | objects={len(self._positions)} "
            f"height={self.tree.height} leaves={counts['leaf']} internals={counts['internal']}"
        )
