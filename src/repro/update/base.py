"""Common interface of the update strategies.

Every strategy turns an update request — "object *oid*, last seen at
*old_location*, is now at *new_location*" — into a sequence of index
operations, and reports which of the paper's update classes the request fell
into (:class:`UpdateOutcome`).  The per-class counters a strategy keeps are
what reproduce statements such as "82 % of the updates remain top-down" for
the naive strategy and the TD-fallback rates discussed for GBU.

Strategies also expose :meth:`UpdateStrategy.range_query` so experiments can
issue the query workload through the same object: TD and LBU answer queries
with the plain top-down R-tree search, GBU answers them through the summary
structure (Section 3.2).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.concurrency.dgl import (
    EXTERNAL_GRANULE,
    TREE_GRANULE,
    GranuleLockRequest,
    merge_requests,
)
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.node import Node
from repro.rtree.tree import RTree
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


class UpdateStrategy:
    """Base class for TD, LBU and GBU."""

    #: Short name used in reports and experiment configuration ("TD", ...).
    name: str = "abstract"

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
        """Install the strategy's auxiliary state on the live tree.

        Called once after construction, both at index build time and when a
        live index switches to this strategy.  Implementations must be
        idempotent: the auxiliary state may already be present (a tree built
        for this strategy from the start, or a checkpoint restore).  The base
        strategies own no auxiliary state; LBU backfills leaf parent
        pointers, GBU attaches its summary structure as a tree observer.
        """

    def uninstall(self) -> None:
        """Release the strategy's auxiliary state from the live tree.

        Called when a live index switches *away* from this strategy.  After
        uninstall the tree must behave as if the strategy had never been
        active: LBU stops parent-pointer maintenance, GBU detaches its
        summary observer.
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
        raise NotImplementedError

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
    # Batch execution (group-by-leaf, repro.update.batch)
    # ------------------------------------------------------------------
    def apply_group(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[BatchUpdate]:
        """Apply a group of pending updates that all live in one leaf.

        The default hook amortises the paper's dominant update class over the
        whole group: the leaf is read **once**, every group member whose new
        position stays inside the leaf's effective MBR is carried out in
        place, and the leaf is written back **once** — where the
        per-operation path pays one leaf read and one leaf write for each of
        them.  Strategies override this to also absorb their cheap non-local
        classes (ε-extension, sibling shifting) at group granularity.

        Returns the *residual* sub-list of updates the group pass could not
        absorb; the batch executor replays those through the ordinary
        per-operation :meth:`update` path, which preserves the sequential
        semantics of the batch.
        """
        leaf = self.tree.read_node(leaf_page_id)
        residuals, dirty = self._apply_in_place(leaf, group)
        if dirty:
            self.tree.write_node(leaf)
        self._charge_batch_probes(len(group) - len(residuals))
        return residuals

    def _apply_in_place(
        self, leaf: Node, group: Sequence[BatchUpdate]
    ) -> Tuple[List[BatchUpdate], bool]:
        """In-place sweep over *group*; returns (residuals, leaf_dirty).

        The containment check uses the leaf MBR as it was when the group pass
        started: in-place moves of point entries can only shrink the tight
        bound, so the initial effective MBR remains a valid bound for every
        member of the group (and is itself contained in the parent's entry).
        """
        mbr = leaf.effective_mbr() if len(leaf) else None
        residuals: List[BatchUpdate] = []
        dirty = False
        for request in group:
            if (
                leaf.has_child(request.oid)
                and mbr is not None
                and mbr.contains_point(request.new_location)
            ):
                leaf.set_rect(request.oid, Rect.from_point(request.new_location))
                dirty = True
                self.record_outcome(UpdateOutcome.IN_PLACE)
            else:
                residuals.append(request)
        return residuals, dirty

    def _charge_batch_probes(self, count: int) -> None:
        """Charge one secondary-index probe per batch-absorbed update.

        The batch planner groups updates with uncharged main-memory peeks,
        but the paper's cost model (Section 4.2) charges bottom-up strategies
        one I/O per object located through the hash index — an update carried
        out by a group pass must pay the same probe its per-operation
        counterpart would.  Residual updates are *not* charged here: they are
        replayed through :meth:`update`, which performs (and charges) its own
        lookup.  TD owns no hash index and stays uncharged.
        """
        hash_index = getattr(self, "hash_index", None)
        if count > 0 and hash_index is not None and hash_index.charge_io:
            self.stats.hash_index_reads += count

    # ------------------------------------------------------------------
    # Lock-scope prediction (DGL, concurrency engine)
    # ------------------------------------------------------------------
    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Predict the DGL granules this update must lock before it runs.

        The base implementation is the **top-down** scope (used verbatim by
        TD and by every bottom-up fallback): the delete descent may follow
        every subtree whose region covers the old position, so all leaves a
        FindLeaf search would visit are locked exclusively, plus the leaf the
        insert descent would choose for the new position — Section 3.2.2's
        observation that top-down updates lock many, widely spread granules.
        Bottom-up strategies override this with their far smaller scope (the
        object's leaf, possibly a sibling, possibly the adjusted ancestor).

        Prediction is made from uncharged peeks at dispatch time and is
        recomputed on every retry, so scopes track the live tree.
        """
        requests = [
            GranuleLockRequest(page, LockMode.EXCLUSIVE)
            for page in self.tree.predict_visited_leaves(Rect.from_point(old_location))
        ]
        requests.extend(self.insert_lock_scope(new_location))
        return merge_requests(requests)

    def query_lock_scope(self, window: Rect) -> List[GranuleLockRequest]:
        """Shared locks on every leaf granule a window query will visit."""
        requests = [
            GranuleLockRequest(page, LockMode.SHARED)
            for page in self.tree.predict_visited_leaves(window)
        ]
        requests.append(
            GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_SHARED)
        )
        return requests

    def insert_lock_scope(self, location: Point) -> List[GranuleLockRequest]:
        """Exclusive lock on the predicted insert target leaf.

        When the location falls outside the root MBR the insert grows the
        covered space, so the external granule is locked too — DGL's phantom
        protection for the uncovered region.
        """
        rect = Rect.from_point(location)
        requests = [
            GranuleLockRequest(
                self.tree.predict_insert_leaf(rect), LockMode.EXCLUSIVE
            )
        ]
        root_mbr = self.tree.root_mbr()
        if root_mbr is None or not root_mbr.contains_point(location):
            requests.append(GranuleLockRequest(EXTERNAL_GRANULE, LockMode.EXCLUSIVE))
        requests.append(
            GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE)
        )
        return requests

    def delete_lock_scope(self, oid: int, location: Point) -> List[GranuleLockRequest]:
        """Exclusive locks on every leaf the delete's FindLeaf may visit."""
        requests = [
            GranuleLockRequest(page, LockMode.EXCLUSIVE)
            for page in self.tree.predict_visited_leaves(Rect.from_point(location))
        ]
        requests.append(
            GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE)
        )
        return requests

    def group_lock_scope(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[GranuleLockRequest]:
        """Granules a group-by-leaf batch pass over *leaf_page_id* locks.

        The base group pass reads and rewrites only the leaf itself, so the
        scope is one exclusive leaf granule; strategies whose group pass
        also adjusts the parent entry or shifts objects into siblings extend
        it.  Residual members are replayed per-operation by the batch
        executor inside the same scheduled slot — a deliberate timing-model
        approximation (their fallback I/O is charged to the group's
        duration, their extra granules are not contended for separately).
        """
        return [
            GranuleLockRequest(leaf_page_id, LockMode.EXCLUSIVE),
            GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE),
        ]

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
        """Fraction of updates that degenerated to a full top-down update."""
        if self.update_count == 0:
            return 0.0
        return self.outcome_counts[UpdateOutcome.TOP_DOWN] / self.update_count

    def reset_counters(self) -> None:
        for outcome in self.outcome_counts:
            self.outcome_counts[outcome] = 0
        self.update_count = 0

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _top_down_update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        """The traditional delete-then-insert update, shared by every fallback."""
        deleted = self.tree.delete(oid, old_location)
        self.tree.insert(oid, new_location)
        return UpdateOutcome.TOP_DOWN if deleted else UpdateOutcome.INSERTED_NEW

    def __repr__(self) -> str:
        return f"{type(self).__name__}(updates={self.update_count})"
