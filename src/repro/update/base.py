"""Common interface of the update strategies.

Every strategy turns an update request — "object *oid*, last seen at
*old_location*, is now at *new_location*" — into a sequence of index
operations, and reports which of the paper's update classes the request fell
into (:class:`UpdateOutcome`).  The per-class counters a strategy keeps are
what reproduce statements such as "82 % of the updates remain top-down" for
the naive strategy and the TD-fallback rates discussed for GBU.

A bottom-up strategy's algorithm is written once, as a **ladder over a leaf
bucket** — the n ≥ 1 pending requests whose objects share one leaf
(:meth:`UpdateStrategy.update_group`).  The bucket reads its leaf once and
each member takes the ladder's local rungs (in place, MBR extension, sibling
shift) on it; members those rungs do not absorb continue up the same ladder
(ascent, top-down) once the leaf is released.  A per-operation
:meth:`UpdateStrategy.update` is the bucket of one.  Lock-scope prediction
follows the same ladder: one scope function per strategy, whose bucket of one
is :meth:`UpdateStrategy.lock_scope`.

Strategies also expose :meth:`UpdateStrategy.range_query` so experiments can
issue the query workload through the same object: TD and LBU answer queries
with the plain top-down R-tree search, GBU answers them through the summary
structure (Section 3.2).
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.concurrency.dgl import (
    EXTERNAL_GRANULE,
    TREE_GRANULE,
    GranuleLockRequest,
    merge_requests,
)
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics


class BatchUpdate(NamedTuple):
    """One pending request of a batch: move *oid* from *old_location* to *new_location*."""

    oid: int
    old_location: Point
    new_location: Point


class UpdateOutcome(enum.Enum):
    """How an update was ultimately carried out."""

    IN_PLACE = "in_place"              # new position within the leaf MBR
    EXTENDED = "extended"              # leaf MBR enlarged (by ε) to cover it
    SIBLING_SHIFT = "sibling_shift"    # object moved to a sibling leaf
    ASCENDED = "ascended"              # re-inserted below a covering ancestor
    TOP_DOWN = "top_down"              # full top-down delete + insert
    INSERTED_NEW = "inserted_new"      # object was not in the index yet
    MIGRATED = "migrated"              # moved to another shard (sharded index)


#: One request of a leaf bucket, ``(oid, old_location, new_location)``: a
#: :class:`BatchUpdate`, or the plain tuple a per-operation update builds.
Request = Tuple[int, Point, Point]
#: A bucket member's next rung, run once the bucket's leaf is released.
Escalation = Callable[[], UpdateOutcome]
#: What a bucket's local rungs leave: ``(outcomes, escalations, unsettled)``.
LeafPass = Tuple[List[UpdateOutcome], List[Escalation], List[Request]]


class UpdateStrategy:
    """Base class for TD, NAIVE, LBU and GBU.

    The base ladder is NAIVE's (and TD's group pass): in place, or top-down.
    """

    #: Short name used in reports and experiment configuration ("TD", ...).
    name: str = "abstract"
    #: The secondary object-ID index of the bottom-up strategies (TD owns none).
    hash_index: Optional[ObjectHashIndex] = None

    def __init__(self, tree: RTree, stats: Optional[IOStatistics] = None) -> None:
        self.tree = tree
        self.stats = stats if stats is not None else tree.disk.stats
        self.outcome_counts: Dict[UpdateOutcome, int] = {
            outcome: 0 for outcome in UpdateOutcome
        }
        self.update_count = 0

    # ------------------------------------------------------------------
    # Lifecycle (hot swap — repro.core.index.MovingObjectIndex.set_strategy)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Install the strategy's auxiliary state on the live tree (idempotent).

        Called after construction, at build time and when a live index
        switches to this strategy; the state may already be present.  LBU
        backfills leaf parent pointers, GBU attaches its summary observer.
        """

    def uninstall(self) -> None:
        """Release the auxiliary state when a live index switches away.

        The tree then behaves as if the strategy had never been active.
        """

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        """Move object *oid* from *old_location* to *new_location*."""
        outcome = self._update(oid, old_location, new_location)
        self.record_outcome(outcome)
        return outcome

    def _update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        """The bucket of one: the ladder over this request at the object's leaf."""
        request = (oid, old_location, new_location)
        leaf_page = self.hash_index.peek(oid)
        if leaf_page is None:
            return self._insert_new(request)
        # No pin and one member: the local rungs, then the escalation if any.
        outcomes, escalations, _unsettled = self.apply_group(leaf_page, (request,))
        return escalations[0]() if escalations else outcomes[0]

    def update_group(
        self, leaf_page_id: int, group: Sequence[Request]
    ) -> List[Request]:
        """Run the ladder over a bucket of requests whose objects share one leaf.

        The local rungs run with the leaf pinned across the members (a
        bucket of one — a per-operation update — takes no pin), the
        escalations after the pin is released, since a CondenseTree they
        trigger may dissolve the leaf.  Returns the members left *unsettled*
        by a top-down repair that may have dissolved the leaf; the executor
        re-routes them to wherever their objects are now.
        """
        pinned = len(group) > 1
        if pinned:
            self.tree.buffer.pin(leaf_page_id)
        try:
            outcomes, escalations, unsettled = self.apply_group(leaf_page_id, group)
        finally:
            if pinned:
                self.tree.buffer.unpin(leaf_page_id)
        for escalate in escalations:
            outcomes.append(escalate())
        for outcome in outcomes:
            self.record_outcome(outcome)
        return unsettled

    def insert(self, oid: int, location: Point) -> None:
        """Insert a brand-new object (all strategies use the standard insert)."""
        self.tree.insert(oid, location)

    def delete(self, oid: int, location: Point) -> bool:
        """Remove an object from the index (standard top-down delete)."""
        return self.tree.delete(oid, location)

    def range_query(self, window: Rect) -> List[int]:
        """Answer a window query; strategies may override (GBU uses the summary)."""
        return self.tree.range_query(window)

    def iter_range_query(self, window: Rect) -> Iterator[int]:
        """Stream a window query's hits lazily (same order as :meth:`range_query`).

        Backs the public API's :class:`~repro.api.results.QueryCursor`:
        traversal I/O is paid only for results actually consumed.  GBU
        overrides this with the summary-guided descent.
        """
        return self.tree.iter_range_query(window)

    # ------------------------------------------------------------------
    # The ladder's local rungs over one leaf bucket
    # ------------------------------------------------------------------
    def apply_group(self, leaf_page_id: int, group: Sequence[Request]) -> LeafPass:
        """The ladder's local rungs over one bucket: in place, else top-down.

        Each member in turn takes the rungs a per-operation update takes, on
        the one copy of the leaf the bucket reads; the leaf is written once,
        when the rungs are done.  Returns the outcomes of the members the
        leaf absorbed, the escalations of those it did not, and the members
        it left unsettled.  Strategies override this with their own rungs.
        """
        outcomes: List[UpdateOutcome] = []
        escalations: List[Escalation] = []
        self._charge_probes(len(group))
        leaf = self.tree.read_node(leaf_page_id)
        dirty = False
        for request in group:
            oid, _old_location, new_location = request
            if leaf.has_child(oid) and leaf.effective_mbr().contains_point(new_location):
                leaf.set_point(oid, new_location)
                dirty = True
                outcomes.append(UpdateOutcome.IN_PLACE)
            else:
                escalations.append(partial(self._top_down_update, *request))
        if dirty:
            self.tree.write_node(leaf)
        return outcomes, escalations, []

    def _charge_probes(self, count: int) -> None:
        """Charge one secondary-index probe per member that reached its leaf.

        The paper's cost model (Section 4.2) charges bottom-up strategies one
        I/O per object located through the hash index; buckets are planned
        with uncharged peeks, so the ladder pays the probe.  TD owns no hash
        index and stays uncharged.
        """
        if self.hash_index is not None:
            self.stats.hash_index_reads += count

    def _insert_new(self, request: Request) -> UpdateOutcome:
        """Update of an object the hash index does not hold: a missed probe, an insert."""
        oid, _old_location, new_location = request
        self._charge_probes(1)
        self.tree.insert(oid, new_location)
        return UpdateOutcome.INSERTED_NEW

    def _top_down_update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        """The traditional delete-then-insert update, shared by every fallback."""
        deleted = self.tree.delete(oid, old_location)
        self.tree.insert(oid, new_location)
        return UpdateOutcome.TOP_DOWN if deleted else UpdateOutcome.INSERTED_NEW

    # ------------------------------------------------------------------
    # Lock-scope prediction (DGL, concurrency engine)
    # ------------------------------------------------------------------
    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Predict the DGL granules one update must lock before it runs.

        The bucket of one of :meth:`group_lock_scope`: the strategy's scope
        ladder for this request at the object's current leaf.  Prediction is
        made from uncharged peeks at dispatch time and is recomputed on
        every retry, so scopes track the live tree.
        """
        request = (oid, old_location, new_location)
        return merge_requests(self._scope(self.hash_index.peek(oid), request))

    def group_lock_scope(
        self, leaf_page_id: int, group: Sequence[Request]
    ) -> List[GranuleLockRequest]:
        """Granules a leaf bucket locks: the merge of its members' scopes.

        Escalated members run inside the bucket's scheduled slot, so their
        ascent or top-down granules are part of the set.  A bucket whose
        planned leaf was dissolved before dispatch locks only that granule
        and the tree intent: execution re-routes its members.
        """
        requests: List[GranuleLockRequest] = []
        if self.tree.disk.contains(leaf_page_id):
            for request in group:
                requests.extend(self._scope(leaf_page_id, request))
        requests.append(GranuleLockRequest(leaf_page_id, LockMode.EXCLUSIVE))
        requests.append(GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE))
        return merge_requests(requests)

    def _scope(
        self, leaf_page_id: Optional[int], request: Request
    ) -> List[GranuleLockRequest]:
        """One member's scope ladder: its leaf when it stays in place, else top-down.

        NAIVE has exactly these two classes, so the asymmetry against TD
        appears only for the in-place share — precisely the paper's point
        about why this strawman does not scale.
        """
        oid, _old_location, new_location = request
        if leaf_page_id is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page_id)
        if leaf.has_child(oid) and leaf.effective_mbr().contains_point(new_location):
            return [
                GranuleLockRequest(leaf_page_id, LockMode.EXCLUSIVE),
                GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE),
            ]
        return self._top_down_scope(request)

    def _top_down_scope(self, request: Request) -> List[GranuleLockRequest]:
        """The **top-down** scope (TD's, and every bottom-up fallback's).

        The delete descent may follow every subtree whose region covers the
        old position, so all leaves a FindLeaf search would visit are locked
        exclusively, plus the leaf the insert descent would choose for the
        new position — Section 3.2.2's observation that top-down updates
        lock many, widely spread granules.
        """
        _oid, old_location, new_location = request
        requests = [
            GranuleLockRequest(page, LockMode.EXCLUSIVE)
            for page in self.tree.predict_visited_leaves(Rect.from_point(old_location))
        ]
        requests.extend(self.insert_lock_scope(new_location))
        return requests

    def query_lock_scope(self, window: Rect) -> List[GranuleLockRequest]:
        """Shared locks on every leaf granule a window query will visit."""
        requests = [
            GranuleLockRequest(page, LockMode.SHARED)
            for page in self.tree.predict_visited_leaves(window)
        ]
        requests.append(GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_SHARED))
        return requests

    def insert_lock_scope(self, location: Point) -> List[GranuleLockRequest]:
        """Exclusive lock on the predicted insert target leaf.

        When the location falls outside the root MBR the insert grows the
        covered space, so the external granule is locked too — DGL's phantom
        protection for the uncovered region.
        """
        target = self.tree.predict_insert_leaf(Rect.from_point(location))
        requests = [GranuleLockRequest(target, LockMode.EXCLUSIVE)]
        root_mbr = self.tree.root_mbr()
        if root_mbr is None or not root_mbr.contains_point(location):
            requests.append(GranuleLockRequest(EXTERNAL_GRANULE, LockMode.EXCLUSIVE))
        requests.append(GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE))
        return requests

    def delete_lock_scope(self, oid: int, location: Point) -> List[GranuleLockRequest]:
        """Exclusive locks on every leaf the delete's FindLeaf may visit."""
        requests = [
            GranuleLockRequest(page, LockMode.EXCLUSIVE)
            for page in self.tree.predict_visited_leaves(Rect.from_point(location))
        ]
        requests.append(GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE))
        return requests

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def record_outcome(self, outcome: UpdateOutcome) -> None:
        """Count one completed update (used by both per-op and batch paths)."""
        self.outcome_counts[outcome] += 1
        self.update_count += 1

    def outcome_fractions(self) -> Dict[str, float]:
        """Fraction of updates per outcome (empty dict before any update)."""
        if self.update_count == 0:
            return {}
        return {
            outcome.value: count / self.update_count
            for outcome, count in self.outcome_counts.items()
            if count
        }

    def top_down_fraction(self) -> float:
        """Fraction of updates that degenerated to a full top-down update.

        Read only by tests today; kept as a counter for the planned
        in-engine metrics registry.
        """
        if self.update_count == 0:
            return 0.0
        return self.outcome_counts[UpdateOutcome.TOP_DOWN] / self.update_count

    def reset_counters(self) -> None:
        for outcome in self.outcome_counts:
            self.outcome_counts[outcome] = 0
        self.update_count = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(updates={self.update_count})"
