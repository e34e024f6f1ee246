"""Group-by-leaf batch execution of update streams.

The paper makes each *individual* update cheap by working bottom-up from the
object's leaf.  When updates arrive in batches, many of them target the same
leaf — Gaussian and skewed workloads concentrate hot objects on hot pages —
so the batch engine

1. **plans in memory**: pending updates are coalesced per object and grouped
   by their current leaf page, resolved through uncharged peeks at the
   object-ID hash index;
2. **runs the strategy's ladder once per bucket**
   (:meth:`~repro.update.base.UpdateStrategy.update_group`): one leaf read
   and write for the bucket, each member that leaves the leaf continuing up
   the same ladder — the code a per-operation update runs, since one update
   is the bucket of one;
3. **replays only what it cannot bucket**: members not indexed yet and, under
   the concurrent engine, members whose leaf changed since planning.

A batch yields the same query answers as applying its operations one by one:
every operation carries the object's absolute new position, and repeated
updates of one object are coalesced onto the earliest slot with the first
old and the latest new position, so an object's final entry is its last
update's; updates to different objects commute at query granularity (the
trees of the two regimes may differ in shape, never in the object→position
map); and inserts, deletes and queries are **barriers** that flush the
pending updates first.  Buckets are formed just in time: an escalation may
restructure the tree and move objects still pending, so each bucket
re-resolves its members' leaves when it runs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import repro.api.operations as api_ops
from repro.api.errors import (
    DuplicateObjectError,
    InvalidOperationError,
    UnknownObjectError,
)
from repro.api.results import BatchReport
from repro.geometry import Point
from repro.secondary import ObjectHashIndex
from repro.update.base import BatchUpdate, UpdateStrategy


class DeleteOp(NamedTuple):
    """Remove an object (``location`` is its last known position)."""

    oid: int
    location: Point


#: One parsed stream item: the typed insert/query operations pass through
#: as they are; an update gains its old position and a delete its location.
BatchOperation = Union[
    BatchUpdate, DeleteOp, api_ops.Insert, api_ops.RangeQuery, api_ops.KNN
]


def parse_operation_stream(
    operations: Iterable["api_ops.Operation"],
    position_of: "Callable[[int], Optional[Point]]",
    strict_deletes: bool = False,
) -> List[BatchOperation]:
    """Parse a stream of typed operations into executable batch operations.

    The one stream grammar of the facade's batch paths.  The stream is
    validated against an overlay of the positions it assigns, so a bad
    operation mid-stream (unknown oid, duplicate insert, anything that is
    not an :class:`~repro.api.operations.Operation`) raises before anything
    executes.  *position_of* supplies the pre-stream position of an object.

    A delete of an absent object raises
    :class:`~repro.api.errors.UnknownObjectError` under
    ``strict_deletes=True`` (the typed surface's default behaviour) and
    parses to nothing otherwise — sequential semantics (no barrier, no
    effect).
    """
    overlay: Dict[int, Optional[Point]] = {}

    def current(oid: int) -> Optional[Point]:
        return overlay[oid] if oid in overlay else position_of(oid)

    parsed: List[BatchOperation] = []
    for op in operations:
        if isinstance(op, api_ops.Update):
            old_location = current(op.oid)
            if old_location is None:
                raise UnknownObjectError(op.oid)
            parsed.append(BatchUpdate(op.oid, old_location, op.new_location))
            overlay[op.oid] = op.new_location
        elif isinstance(op, api_ops.Insert):
            if current(op.oid) is not None:
                raise DuplicateObjectError(op.oid)
            parsed.append(op)
            overlay[op.oid] = op.location
        elif isinstance(op, api_ops.Delete):
            location = current(op.oid)
            if location is not None:
                parsed.append(DeleteOp(op.oid, location))
                overlay[op.oid] = None
            elif strict_deletes:
                raise UnknownObjectError(op.oid)
        elif isinstance(op, (api_ops.RangeQuery, api_ops.KNN)):
            parsed.append(op)
        else:
            raise InvalidOperationError(f"expected an Operation, got {op!r}")
    return parsed


def coalesce_updates(
    updates: Iterable[BatchUpdate],
) -> Tuple["OrderedDict[int, BatchUpdate]", int, int]:
    """Collapse repeated updates of one object onto its earliest slot.

    Returns ``(pending, requested, coalesced)``: the surviving requests in
    first-seen order, the number submitted, and the number superseded.  A
    coalesced request keeps the **first** old position and the **latest**
    new one.  The planner and the sharded router both coalesce with this.
    """
    pending: "OrderedDict[int, BatchUpdate]" = OrderedDict()
    requested = coalesced = 0
    for op in updates:
        requested += 1
        previous = pending.get(op.oid)
        if previous is not None:
            pending[op.oid] = BatchUpdate(op.oid, previous.old_location, op.new_location)
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


class BatchExecutor:
    """Executes operation streams with group-by-leaf amortisation.

    A run of updates between barriers is coalesced and bucketed by current
    leaf once (:meth:`plan`); each bucket is one :meth:`execute_group` run of
    the strategy's ladder (:meth:`~repro.update.base.UpdateStrategy.update_group`).
    Leaves are resolved with uncharged :meth:`ObjectHashIndex.peek` calls —
    planning is main-memory work; the ladder charges one probe per member
    that reaches its leaf, keeping the paper's accounting.
    """

    def __init__(self, strategy: UpdateStrategy, hash_index: ObjectHashIndex) -> None:
        self.strategy = strategy
        self.hash_index = hash_index

    def execute(self, updates: Iterable[BatchUpdate]) -> BatchReport:
        """Drain one run of updates, one leaf bucket at a time (serial execution).

        The facade splits a stream at its barriers (inserts, deletes and
        queries) and hands each run between them here.
        """
        plan = self.plan(updates)
        result = BatchReport(updates=plan.requested, coalesced=plan.coalesced)
        for request in plan.unindexed:
            self.replay(request, result)  # not indexed yet: the update inserts it
        buckets = plan.buckets
        while buckets:
            leaf_page, bucket = buckets.popitem(last=False)
            self.execute_group(leaf_page, bucket, result, reroute=buckets)
        return result

    def plan(self, updates: Iterable[BatchUpdate]) -> BatchPlan:
        """Coalesce *updates* per object and bucket them by current leaf.

        Shared by the serial drain and the concurrent engine, which schedules
        the buckets against each other.
        """
        pending, requested, coalesced = coalesce_updates(updates)
        buckets: "OrderedDict[int, List[BatchUpdate]]" = OrderedDict()
        unindexed: List[BatchUpdate] = []
        for request in pending.values():
            leaf_page = self.hash_index.peek(request.oid)
            if leaf_page is None:
                unindexed.append(request)
            else:
                buckets.setdefault(leaf_page, []).append(request)
        return BatchPlan(buckets, unindexed, requested, coalesced)

    def execute_group(
        self,
        leaf_page: int,
        bucket: List[BatchUpdate],
        result: BatchReport,
        reroute: Optional["OrderedDict[int, List[BatchUpdate]]"] = None,
    ) -> None:
        """Re-verify *bucket* against the live hash index and run its ladder.

        An earlier bucket's escalation (or, under the engine, a concurrently
        scheduled bucket) may have moved members since planning, so each
        member's leaf is re-resolved first.  Members not (or, after the
        ladder, no longer) in the leaf are re-routed into *reroute* when
        given (the serial drain appends them to their current leaf's bucket)
        and replayed per-operation otherwise (the engine path).
        """
        group: List[BatchUpdate] = []
        for request in bucket:
            if self.hash_index.peek(request.oid) == leaf_page:
                group.append(request)
            else:
                self._reroute(request, result, reroute)
        if not group:
            return
        result.groups += 1
        result.largest_group = max(result.largest_group, len(group))
        for request in self.strategy.update_group(leaf_page, group):
            self._reroute(request, result, reroute)

    def _reroute(
        self,
        request: BatchUpdate,
        result: BatchReport,
        reroute: Optional["OrderedDict[int, List[BatchUpdate]]"],
    ) -> None:
        current = self.hash_index.peek(request.oid)
        if current is None or reroute is None:
            self.replay(request, result)
        else:
            reroute.setdefault(current, []).append(request)

    def replay(self, request: BatchUpdate, result: BatchReport) -> None:
        """Run one unindexed or re-routed member through the per-operation path."""
        self.strategy.update(*request)
        result.residuals += 1
