"""The naive bottom-up strategy from the start of Section 3.1.

"An initial bottom-up approach is to access the leaf of an object's entry
directly. ... If the new extent of the object does not exceed the MBR of its
leaf node, then the update is carried out immediately.  Otherwise, a top-down
update is issued."

The paper reports that on one million uniformly distributed points this
simple strategy leaves about 82 % of the updates top-down, which motivates
both the ε-enlargement/sibling ideas of LBU and ultimately GBU.  The strategy
is included so that observation can be reproduced (see
the ``naive_fallback`` figure).

Under the batch engine NAIVE inherits the base group pass unchanged — it is
exactly this strategy's "update in place or give up" rule applied at group
granularity, with one hash probe charged per absorbed update.
"""

from __future__ import annotations

from typing import List, Optional

from repro.concurrency.dgl import TREE_GRANULE, GranuleLockRequest
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.update.base import UpdateOutcome, UpdateStrategy


class NaiveBottomUpUpdate(UpdateStrategy):
    """Update in place when the leaf MBR already covers the new position."""

    name = "NAIVE"

    def __init__(
        self,
        tree: RTree,
        hash_index: ObjectHashIndex,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        super().__init__(tree, stats=stats)
        self.hash_index = hash_index

    def _update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        leaf_page = self.hash_index.lookup(oid)
        if leaf_page is None:
            self.tree.insert(oid, new_location)
            return UpdateOutcome.INSERTED_NEW

        leaf = self.tree.read_node(leaf_page)
        if not leaf.has_child(oid):
            # Stale secondary index (should not happen); repair via top-down.
            return self._top_down_update(oid, old_location, new_location)

        if leaf.effective_mbr().contains_point(new_location):
            leaf.set_rect(oid, Rect.from_point(new_location))
            self.tree.write_node(leaf)
            return UpdateOutcome.IN_PLACE

        return self._top_down_update(oid, old_location, new_location)

    # ------------------------------------------------------------------
    # Lock-scope prediction (concurrency engine)
    # ------------------------------------------------------------------
    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        """One exclusive leaf granule when the update stays in place.

        NAIVE has exactly two classes: in place (lock the object's leaf,
        nothing else) or give up and go top-down (the base scope).  The
        asymmetry against TD therefore appears only for the in-place share —
        precisely the paper's point about why this strawman does not scale.
        """
        leaf_page = self.hash_index.peek(oid)
        if leaf_page is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page)
        if leaf.has_child(oid) and leaf.effective_mbr().contains_point(new_location):
            return [
                GranuleLockRequest(leaf_page, LockMode.EXCLUSIVE),
                GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE),
            ]
        return super().lock_scope(oid, old_location, new_location)
