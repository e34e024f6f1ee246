"""LBU — Localized Bottom-Up Update (Algorithm 1).

The localized strategy reaches the object's leaf through the secondary hash
index and tries, in order:

1. update in place when the new position lies within the leaf MBR;
2. enlarge the leaf MBR by ε **in all directions** — a Kwon-style lazy
   enlargement — provided the enlarged MBR stays within the parent MBR,
   which the strategy reads through the parent pointer stored in the leaf;
3. shift the object to a sibling leaf whose MBR already contains the new
   position (each candidate sibling must be read from disk to check that it
   is not full);
4. otherwise fall back to a full top-down update.

The strategy requires the tree to be built with ``store_parent_pointers=True``:
the leaf-level parent pointers reduce leaf fan-out and must be rewritten when
a level-1 node splits — the maintenance costs the paper identifies as LBU's
main weakness (Section 3.1 and the discussion of Figure 5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.concurrency.dgl import TREE_GRANULE, GranuleLockRequest, merge_requests
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.update.base import BatchUpdate, UpdateOutcome, UpdateStrategy
from repro.update.params import TuningParameters


class LocalizedBottomUpUpdate(UpdateStrategy):
    """Algorithm 1 of the paper."""

    name = "LBU"

    def __init__(
        self,
        tree: RTree,
        hash_index: ObjectHashIndex,
        params: Optional[TuningParameters] = None,
        stats: Optional[IOStatistics] = None,
    ) -> None:
        super().__init__(tree, stats=stats)
        if not tree.store_parent_pointers:
            raise ValueError(
                "LocalizedBottomUpUpdate requires a tree built with "
                "store_parent_pointers=True (the strategy relies on leaf-level "
                "parent pointers)"
            )
        self.hash_index = hash_index
        self.params = params if params is not None else TuningParameters.paper_defaults()

    # ------------------------------------------------------------------
    # Lifecycle (hot swap)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Backfill leaf parent pointers with one tree sweep.

        A tree that was *built* for LBU already maintains the pointers, so
        the sweep finds every leaf correct and writes nothing.  A live index
        switching into LBU arrives with stale (or absent) pointers: each
        stale leaf is rewritten once, and those leaf writes are charged —
        they are the I/O cost of the switch.  The tree keeps its
        construction-time leaf capacity either way: the paper's one-slot
        parent-pointer charge models trees built for LBU, not a live switch.
        """
        self.tree.store_parent_pointers = True
        for node, parent_page_id in self.tree.iter_nodes():
            if node.level == 0 and node.parent_page_id != parent_page_id:
                node.parent_page_id = parent_page_id
                self.tree.write_node(node)

    def uninstall(self) -> None:
        """Stop parent-pointer maintenance.

        The pointers already written stay in the pages (they are ignored,
        and validation only checks them while the flag is on); a later
        switch back into LBU re-sweeps whatever went stale in between.
        """
        self.tree.store_parent_pointers = False

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _update(self, oid: int, old_location: Point, new_location: Point) -> UpdateOutcome:
        # Locate the leaf through the secondary object-ID index.
        leaf_page = self.hash_index.lookup(oid)
        if leaf_page is None:
            self.tree.insert(oid, new_location)
            return UpdateOutcome.INSERTED_NEW
        leaf = self.tree.read_node(leaf_page)
        if not leaf.has_child(oid):
            return self._top_down_update(oid, old_location, new_location)

        # 1. In place: the new location lies within the (possibly enlarged) leaf MBR.
        if leaf.effective_mbr().contains_point(new_location):
            leaf.set_rect(oid, Rect.from_point(new_location))
            self.tree.write_node(leaf)
            return UpdateOutcome.IN_PLACE

        # Retrieve the parent of the leaf node (through the parent pointer).
        if leaf.parent_page_id is None or not self.tree.disk.contains(
            leaf.parent_page_id
        ):
            # The leaf is the root (or its parent pointer dangles after a
            # restructure): there is nothing to enlarge against and no
            # siblings to shift to; repair top-down.
            return self._top_down_update(oid, old_location, new_location)
        parent = self.tree.read_node(leaf.parent_page_id)
        if not parent.has_child(leaf.page_id):
            # Parent pointer is stale (should not happen when maintenance is
            # correct); fall back to the safe path.
            return self._top_down_update(oid, old_location, new_location)

        # 2. Enlarge the leaf MBR by ε in all directions, bounded by the parent MBR.
        parent_mbr = parent.mbr()
        enlarged = leaf.effective_mbr().expanded(self.params.epsilon)
        if parent_mbr.contains_rect(enlarged) and enlarged.contains_point(new_location):
            leaf.set_rect(oid, Rect.from_point(new_location))
            leaf.stored_mbr = enlarged
            self.tree.write_node(leaf)
            parent.set_rect(leaf.page_id, enlarged)
            self.tree.write_node(parent)
            return UpdateOutcome.EXTENDED

        # 3. Removing the object must not underflow the leaf; otherwise the
        #    reorganisation belongs to the top-down machinery.
        if len(leaf) - 1 < self.tree.min_leaf_entries:
            return self._top_down_update(oid, old_location, new_location)

        leaf.discard_entry(oid)
        self.tree.write_node(leaf)

        # 3b. Shift to a sibling whose MBR contains the new location and which
        #     is not full.  Without the summary structure every candidate has
        #     to be read from disk to check fullness.
        sibling = self._find_sibling(parent, exclude_page=leaf.page_id, location=new_location)
        if sibling is not None:
            sibling.add_entry(Entry(Rect.from_point(new_location), oid))
            self.tree.write_node(sibling)
            return UpdateOutcome.SIBLING_SHIFT

        # 4. Standard R-tree insert from the root (the object is already deleted).
        self.tree.insert(oid, new_location)
        self.tree.size -= 1  # insert() counts a new object; this one was only moved
        return UpdateOutcome.TOP_DOWN

    # ------------------------------------------------------------------
    # Batch execution (group-by-leaf)
    # ------------------------------------------------------------------
    def apply_group(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[BatchUpdate]:
        """Group pass: shared in-place sweep plus **one** ε-enlargement.

        The per-operation path reads the parent (through the leaf's parent
        pointer) and enlarges the leaf MBR once per escaping update; the
        group pass reads the parent once, enlarges once, and absorbs every
        group member the enlarged MBR covers — then issues a single leaf
        write and a single deferred parent-MBR adjustment.  Sibling shifts
        and top-down repairs stay per-operation (they are the rare classes)
        and are returned as residuals.
        """
        leaf = self.tree.read_node(leaf_page_id)
        residuals, dirty = self._apply_in_place(leaf, group)

        if (
            residuals
            and len(leaf)
            and leaf.parent_page_id is not None
            and self.tree.disk.contains(leaf.parent_page_id)
        ):
            parent = self.tree.read_node(leaf.parent_page_id)
            if parent.has_child(leaf.page_id):
                enlarged = leaf.effective_mbr().expanded(self.params.epsilon)
                if parent.mbr().contains_rect(enlarged):
                    still: List[BatchUpdate] = []
                    extended = False
                    for request in residuals:
                        location = request.new_location
                        if leaf.has_child(request.oid) and enlarged.contains_point(location):
                            leaf.set_rect(request.oid, Rect.from_point(location))
                            extended = True
                            self.record_outcome(UpdateOutcome.EXTENDED)
                        else:
                            still.append(request)
                    if extended:
                        leaf.stored_mbr = enlarged
                        dirty = True
                        self.tree.adjust_upward(parent, [leaf])
                    residuals = still

        if dirty:
            self.tree.write_node(leaf)
        self._charge_batch_probes(len(group) - len(residuals))
        return residuals

    # ------------------------------------------------------------------
    # Lock-scope prediction (concurrency engine)
    # ------------------------------------------------------------------
    def lock_scope(
        self, oid: int, old_location: Point, new_location: Point
    ) -> List[GranuleLockRequest]:
        """Leaf, sibling-candidate and adjusted-parent granules only.

        Follows Algorithm 1's ladder over uncharged peeks: an in-place
        update locks just the object's leaf; an ε-enlargement additionally
        intends on the parent granule (its entry rectangle is rewritten); a
        sibling shift adds exclusive locks on the candidate sibling leaves
        whose region covers the new position.  Only when every local class
        is infeasible (root leaf, stale pointer, underflow hazard) does the
        scope widen to the base top-down set — the paper's Section 3.2.2
        asymmetry, expressed as lock footprints.
        """
        leaf_page = self.hash_index.peek(oid)
        if leaf_page is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page)
        if not leaf.has_child(oid):
            return super().lock_scope(oid, old_location, new_location)

        requests = [GranuleLockRequest(leaf_page, LockMode.EXCLUSIVE)]
        tree_intention = GranuleLockRequest(
            TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE
        )
        if len(leaf) and leaf.effective_mbr().contains_point(new_location):
            requests.append(tree_intention)
            return merge_requests(requests)

        if leaf.parent_page_id is None or not self.tree.disk.contains(
            leaf.parent_page_id
        ):
            return super().lock_scope(oid, old_location, new_location)
        parent = self.tree.peek_node(leaf.parent_page_id)
        if not parent.has_child(leaf_page):
            return super().lock_scope(oid, old_location, new_location)
        requests.append(
            GranuleLockRequest(parent.page_id, LockMode.INTENTION_EXCLUSIVE)
        )

        enlarged = (
            leaf.effective_mbr().expanded(self.params.epsilon)
            if len(leaf)
            else None
        )
        if (
            enlarged is not None
            and parent.mbr().contains_rect(enlarged)
            and enlarged.contains_point(new_location)
        ):
            requests.append(tree_intention)
            return merge_requests(requests)

        if len(leaf) - 1 < self.tree.min_leaf_entries:
            return super().lock_scope(oid, old_location, new_location)

        candidates = [
            page
            for page in parent.contains_point_children(new_location)
            if page != leaf_page
        ]
        if candidates:
            requests.extend(
                GranuleLockRequest(page, LockMode.EXCLUSIVE) for page in candidates
            )
        else:
            # Bottom-up removal followed by a root insert of the survivor.
            requests.extend(self.insert_lock_scope(new_location))
        requests.append(tree_intention)
        return merge_requests(requests)

    def group_lock_scope(
        self, leaf_page_id: int, group: Sequence[BatchUpdate]
    ) -> List[GranuleLockRequest]:
        """Leaf exclusively, parent granule with intent (one shared ε-pass)."""
        requests = super().group_lock_scope(leaf_page_id, group)
        if not self.tree.disk.contains(leaf_page_id):
            # The planned leaf was dissolved by an earlier group's residual
            # replay; execution will re-route the members, so the base scope
            # (the stale granule id plus the tree intent) is all that's left
            # to lock.
            return requests
        leaf = self.tree.peek_node(leaf_page_id)
        if leaf.parent_page_id is not None:
            requests.append(
                GranuleLockRequest(leaf.parent_page_id, LockMode.INTENTION_EXCLUSIVE)
            )
        return merge_requests(requests)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _find_sibling(
        self, parent: Node, exclude_page: int, location: Point
    ) -> Optional[Node]:
        """Read candidate siblings until a non-full one containing *location* is found."""
        for candidate_page in parent.contains_point_children(location):
            if candidate_page == exclude_page:
                continue
            sibling = self.tree.read_node(candidate_page)
            if sibling.is_full(self.tree.leaf_capacity):
                continue
            return sibling
        return None
