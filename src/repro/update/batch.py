"""Group-by-leaf batch execution of update streams.

The paper's motivation is an update rate so high that the index is the
bottleneck; its answer is to make each *individual* update cheap by working
bottom-up from the object's leaf.  This module carries the same idea one
step further along the axis real ingestion engines use: when updates arrive
in batches, many of them target the *same* leaf — Gaussian and skewed
workloads concentrate hot objects on hot pages — yet the per-operation path
re-reads and re-writes that leaf once per update.  The batch engine

1. **plans in memory** — pending updates are grouped by their current leaf
   page, resolved through the secondary object-ID hash index (the same
   structure that gives the bottom-up strategies their leaf access; for GBU
   the summary structure's direct access table supplies the parent and
   sibling context of each group);
2. **executes each group bottom-up** — the strategy's
   :meth:`~repro.update.base.UpdateStrategy.apply_group` hook reads the leaf
   once, absorbs every group member it can (in place, by one shared
   ε-extension, or by bulk sibling shifts), writes the leaf once, and fixes
   all affected ancestor MBRs in one deferred
   :meth:`~repro.rtree.tree.RTree.adjust_upward` pass;
3. **replays the rest sequentially** — updates a group pass cannot absorb
   (root escapes, underflow hazards, ascents) go through the ordinary
   per-operation strategy code, so every structural corner case is handled
   by exactly the code that handles it in the one-at-a-time regime.

Sequential equivalence
----------------------
A batch yields the same query answers as applying its operations one by one:

* every operation carries the object's **absolute** new position, so an
  object's final entry depends only on its *last* update in the batch —
  which both regimes apply last (pending updates to the same object are
  coalesced onto the earliest slot, keeping the first old position and the
  latest new one);
* updates to *different* objects commute at query granularity: each group
  pass only rewrites the affected objects' entry rectangles (or moves them
  between leaves under the same parent), never drops or duplicates an
  object, and keeps every MBR a valid bound — the trees produced by the two
  regimes may differ in shape, but index the identical object→position map;
* inserts, deletes and queries act as **barriers**: all pending updates are
  flushed before one executes, so a query inside a batch observes exactly
  the positions a sequential execution would.

Groups are formed just in time, one at a time: a residual replay may
restructure the tree (splits, CondenseTree re-insertions) and move objects
that are still pending, so each group re-resolves its members' leaves at the
moment it is executed.  The group's leaf is pinned in the buffer pool for
the duration of the pass so interleaved reads cannot evict it mid-group.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import repro.api.operations as api_ops
from repro.api.errors import DuplicateObjectError, UnknownObjectError
from repro.geometry import Point, Rect
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.buffer import BufferPool
from repro.storage.stats import IOStatistics
from repro.update.base import BatchUpdate, UpdateStrategy


class InsertOp(NamedTuple):
    """Insert a brand-new object."""

    oid: int
    location: Point


class DeleteOp(NamedTuple):
    """Remove an object (``location`` is its last known position)."""

    oid: int
    location: Point


class QueryOp(NamedTuple):
    """Answer a window query; the result lands in :attr:`BatchResult.queries`."""

    window: Rect


class KNNOp(NamedTuple):
    """Answer a kNN query; the result lands in :attr:`BatchResult.neighbors`."""

    point: Point
    k: int


Operation = Union[BatchUpdate, InsertOp, DeleteOp, QueryOp, KNNOp]


def parse_operation_stream(
    operations: Iterable["api_ops.OperationLike"],
    position_of: "Callable[[int], Optional[Point]]",
    strict_deletes: bool = False,
) -> Tuple[List[Operation], Dict[int, Optional[Point]]]:
    """Parse a stream of typed operations into executable batch operations.

    This is the one stream grammar both facades share.  The native currency
    is the typed :class:`repro.api.operations.Operation` model; legacy
    tuples are accepted through :meth:`Operation.from_any` (the deprecated
    compatibility adapter).  The stream is validated against an overlay so a
    bad operation mid-stream (unknown oid, duplicate insert) raises before
    anything executes.  *position_of* supplies the pre-stream position of an
    object; the returned overlay maps each touched oid to its post-stream
    position (``None`` = deleted), for callers that pre-commit a position
    map.

    A delete of an absent object raises
    :class:`~repro.api.errors.UnknownObjectError` under
    ``strict_deletes=True`` (the typed surface's default behaviour) and
    parses to nothing otherwise — the legacy adapter's sequential semantics
    (no barrier, no effect).
    """
    overlay: Dict[int, Optional[Point]] = {}

    def current(oid: int) -> Optional[Point]:
        return overlay[oid] if oid in overlay else position_of(oid)

    parsed: List[Operation] = []
    for item in operations:
        op = api_ops.Operation.from_any(item)
        if isinstance(op, (api_ops.Update, api_ops.Migrate)):
            old_location = current(op.oid)
            if old_location is None:
                raise UnknownObjectError(op.oid)
            parsed.append(BatchUpdate(op.oid, old_location, op.new_location))
            overlay[op.oid] = op.new_location
        elif isinstance(op, api_ops.Insert):
            if current(op.oid) is not None:
                raise DuplicateObjectError(op.oid)
            parsed.append(InsertOp(op.oid, op.location))
            overlay[op.oid] = op.location
        elif isinstance(op, api_ops.Delete):
            location = current(op.oid)
            if location is not None:
                parsed.append(DeleteOp(op.oid, location))
                overlay[op.oid] = None
            elif strict_deletes:
                raise UnknownObjectError(op.oid)
        elif isinstance(op, api_ops.RangeQuery):
            parsed.append(QueryOp(op.window))
        elif isinstance(op, api_ops.KNN):
            parsed.append(KNNOp(op.point, op.k))
        else:  # pragma: no cover - from_any only returns the above
            raise TypeError(f"unsupported operation {op!r}")
    return parsed, overlay


def coalesce_updates(
    updates: Iterable[BatchUpdate],
) -> Tuple["OrderedDict[int, BatchUpdate]", int, int]:
    """Collapse repeated updates of one object onto its earliest slot.

    Returns ``(pending, requested, coalesced)``: the surviving requests in
    first-seen order, the number submitted, and the number superseded.  A
    coalesced request keeps the **first** old position and the **latest**
    new position — only the last update of an object matters for the final
    state, which is what makes batch and sequential execution equivalent.
    This is the shared first half of every batch path: the serial executor,
    the planner, and the sharded router all coalesce with this rule.
    """
    pending: "OrderedDict[int, BatchUpdate]" = OrderedDict()
    requested = 0
    coalesced = 0
    for op in updates:
        requested += 1
        previous = pending.get(op.oid)
        if previous is not None:
            pending[op.oid] = BatchUpdate(
                op.oid, previous.old_location, op.new_location
            )
            coalesced += 1
        else:
            pending[op.oid] = op
    return pending, requested, coalesced


@dataclass
class BatchPlan:
    """Group-by-leaf partitioning of one update batch.

    ``buckets`` maps each target leaf page to its pending updates in stream
    order; the buckets' granule lock sets are what the concurrent engine
    schedules against each other (conflict-aware batch scheduling), and the
    serial path drains them front to back.  Planning is main-memory work:
    leaves are resolved through uncharged hash-index peeks.
    """

    buckets: "OrderedDict[int, List[BatchUpdate]]"
    #: Members with no indexed leaf yet (replayed through the per-op path).
    unindexed: List[BatchUpdate]
    #: Updates submitted, before coalescing.
    requested: int
    #: Updates superseded by a later update to the same object.
    coalesced: int


@dataclass
class BatchResult:
    """What one batch execution did, and what it cost.

    ``io`` is the per-batch :class:`IOStatistics` delta — the counters
    accumulated between the first and last operation of the batch, so
    callers can compare batch and per-operation cost without resetting the
    index-wide statistics.
    """

    updates: int = 0
    inserts: int = 0
    deletes: int = 0
    queries: List[List[int]] = field(default_factory=list)
    #: kNN answers (``(distance, oid)`` pairs) in stream order.
    neighbors: List[List[Tuple[float, int]]] = field(default_factory=list)
    #: Updates superseded by a later update to the same object in the batch.
    coalesced: int = 0
    #: Leaf groups executed through ``apply_group``.
    groups: int = 0
    #: Size of the largest single group.
    largest_group: int = 0
    #: Updates replayed through the per-operation path.
    residuals: int = 0
    #: Updates that crossed a shard boundary (sharded index only).
    migrations: int = 0
    io: IOStatistics = field(default_factory=IOStatistics)

    @property
    def grouped_updates(self) -> int:
        """Updates absorbed by group passes (after coalescing)."""
        return self.updates - self.coalesced - self.residuals - self.migrations

    def describe(self) -> str:
        migrated = f", migrations={self.migrations}" if self.migrations else ""
        knn = f" knn={len(self.neighbors)}" if self.neighbors else ""
        return (
            f"updates={self.updates} (coalesced={self.coalesced}, "
            f"groups={self.groups}, residual={self.residuals}{migrated}) "
            f"inserts={self.inserts} deletes={self.deletes} "
            f"queries={len(self.queries)}{knn} | physical_reads={self.io.physical_reads} "
            f"physical_writes={self.io.physical_writes}"
        )


class BatchExecutor:
    """Executes operation streams with group-by-leaf amortisation.

    A run of updates is coalesced once — inline by :meth:`execute`, or by
    :meth:`plan` for callers that hand in a raw stream — and bucketed by
    current leaf (``_bucket``, shared by both); each bucket is one
    :meth:`execute_group` pass with its leaf pinned.

    Parameters
    ----------
    tree:
        The R-tree the strategy operates on.
    strategy:
        Any of the four update strategies; its ``apply_group`` hook defines
        what a group pass can absorb.
    hash_index:
        Object-ID index used (uncharged, via :meth:`ObjectHashIndex.peek`)
        by the planner to resolve each pending update's current leaf.
        Planning is main-memory work; the strategies themselves charge one
        probe per absorbed update to keep the paper's accounting.
    buffer:
        Buffer pool whose pin/unpin protects each group's leaf.
    stats:
        Shared counters used to compute the per-batch I/O delta.
    """

    def __init__(
        self,
        tree: RTree,
        strategy: UpdateStrategy,
        hash_index: ObjectHashIndex,
        buffer: Optional[BufferPool] = None,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        self.tree = tree
        self.strategy = strategy
        self.hash_index = hash_index
        self.buffer = buffer if buffer is not None else tree.buffer
        self.stats = stats if stats is not None else tree.disk.stats

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, operations: Iterable[Operation]) -> BatchResult:
        """Run *operations*; updates are batched, everything else is a barrier."""
        result = BatchResult()
        before = self.stats.snapshot()
        pending: "OrderedDict[int, BatchUpdate]" = OrderedDict()
        for op in operations:
            if isinstance(op, BatchUpdate):
                result.updates += 1
                previous = pending.get(op.oid)
                if previous is not None:
                    # Keep the earliest slot and the first old position; only
                    # the latest new position matters for the final state.
                    pending[op.oid] = BatchUpdate(
                        op.oid, previous.old_location, op.new_location
                    )
                    result.coalesced += 1
                else:
                    pending[op.oid] = op
            elif isinstance(op, InsertOp):
                self._flush(pending, result)
                self.strategy.insert(op.oid, op.location)
                result.inserts += 1
            elif isinstance(op, DeleteOp):
                self._flush(pending, result)
                self.strategy.delete(op.oid, op.location)
                result.deletes += 1
            elif isinstance(op, QueryOp):
                self._flush(pending, result)
                result.queries.append(self.strategy.range_query(op.window))
            elif isinstance(op, KNNOp):
                self._flush(pending, result)
                result.neighbors.append(self.tree.knn(op.point, op.k))
            else:
                raise TypeError(f"unsupported batch operation {op!r}")
        self._flush(pending, result)
        result.io = self.stats.snapshot().delta_since(before)
        return result

    # ------------------------------------------------------------------
    # Planning (shared by the serial drain and the concurrent engine)
    # ------------------------------------------------------------------
    def plan(self, updates: Iterable[BatchUpdate]) -> BatchPlan:
        """Coalesce *updates* per object and bucket them by current leaf.

        Repeated updates of one object collapse onto the earliest slot,
        keeping the first old position and the latest new one — identical to
        the coalescing :meth:`execute` performs inline.  Leaves are resolved
        with uncharged peeks; the paper's per-probe charge is paid at
        execution time by the strategies themselves.
        """
        pending, requested, coalesced = coalesce_updates(updates)
        buckets, unindexed = self._bucket(pending.values())
        return BatchPlan(
            buckets=buckets,
            unindexed=unindexed,
            requested=requested,
            coalesced=coalesced,
        )

    def _bucket(
        self, requests: Iterable[BatchUpdate]
    ) -> Tuple["OrderedDict[int, List[BatchUpdate]]", List[BatchUpdate]]:
        """Bucket coalesced *requests* by current leaf: ``(buckets, unindexed)``."""
        buckets: "OrderedDict[int, List[BatchUpdate]]" = OrderedDict()
        unindexed: List[BatchUpdate] = []
        for request in requests:
            leaf_page = self.hash_index.peek(request.oid)
            if leaf_page is None:
                unindexed.append(request)
            else:
                buckets.setdefault(leaf_page, []).append(request)
        return buckets, unindexed

    def execute_group(
        self,
        leaf_page: int,
        bucket: List[BatchUpdate],
        result: BatchResult,
        reroute: Optional["OrderedDict[int, List[BatchUpdate]]"] = None,
    ) -> None:
        """Re-verify *bucket* against the live hash index and run the group pass.

        A residual replay (or, under the engine, a concurrently scheduled
        group) may have restructured the tree and moved members since the
        bucket was planned, so each member's leaf is re-resolved immediately
        before the pass.  Mismatched members are re-routed into *reroute*
        when given (the serial drain appends them to their current leaf's
        bucket) and replayed per-operation otherwise (the engine path, where
        sibling buckets may already have executed).
        """
        group: List[BatchUpdate] = []
        for request in bucket:
            current = self.hash_index.peek(request.oid)
            if current == leaf_page:
                group.append(request)
            elif current is None:
                self.replay(request, result)
            elif reroute is not None:
                reroute.setdefault(current, []).append(request)
            else:
                self.replay(request, result)
        if not group:
            return
        result.groups += 1
        result.largest_group = max(result.largest_group, len(group))
        self.buffer.pin(leaf_page)
        try:
            residuals = self.strategy.apply_group(leaf_page, group)
        finally:
            self.buffer.unpin(leaf_page)
        for request in residuals:
            self.replay(request, result)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush(
        self, pending: "OrderedDict[int, BatchUpdate]", result: BatchResult
    ) -> None:
        """Drain *pending*, one leaf group at a time (serial execution).

        *pending* is already coalesced (one request per object, by
        :meth:`execute`), so it is bucketed as it is.
        """
        if not pending:
            return
        buckets, unindexed = self._bucket(pending.values())
        pending.clear()
        for request in unindexed:
            # Not indexed (yet): the per-operation path inserts it.
            self.replay(request, result)

        while buckets:
            leaf_page, bucket = buckets.popitem(last=False)
            self.execute_group(leaf_page, bucket, result, reroute=buckets)

    def replay(self, request: BatchUpdate, result: BatchResult) -> None:
        """Run one update through the ordinary per-operation path."""
        self.strategy.update(
            request.oid, request.old_location, request.new_location
        )
        result.residuals += 1
