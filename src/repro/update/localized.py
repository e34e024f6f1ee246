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

The ladder is written once, over a leaf bucket (one update is the bucket of
one): the bucket shares the leaf read and write, the parent read and the
siblings it reads; a member inside an MBR an earlier member enlarged moves in
place, and those no sibling takes are re-inserted from the root after the
leaf is released.

The strategy requires the tree to be built with ``store_parent_pointers=True``:
the leaf-level parent pointers reduce leaf fan-out and must be rewritten when
a level-1 node splits — the maintenance costs the paper identifies as LBU's
main weakness (Section 3.1 and the discussion of Figure 5).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.concurrency.dgl import TREE_GRANULE, GranuleLockRequest
from repro.concurrency.locks import LockMode
from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.update.base import (
    Escalation,
    LeafPass,
    Request,
    UpdateOutcome,
    UpdateStrategy,
)
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
    # Algorithm 1 over one leaf bucket
    # ------------------------------------------------------------------
    def apply_group(self, leaf_page_id: int, group: Sequence[Request]) -> LeafPass:
        """In place → ε-enlargement → sibling shift → root insert, member by member.

        The bucket reads the leaf, and its parent through the parent
        pointer, once; a member inside an MBR an earlier one enlarged moves
        in place.  Removing an object writes the leaf before the sibling
        search, as Algorithm 1 does.  A member that could leave the leaf
        only by underflowing it goes top-down; that repair may dissolve the
        leaf, so the members after it are left unsettled.
        """
        outcomes: List[UpdateOutcome] = []
        escalations: List[Escalation] = []
        unsettled: List[Request] = []
        self._charge_probes(len(group))
        leaf = self.tree.read_node(leaf_page_id)
        held: Dict[int, Node] = {}  # the siblings read, once per bucket
        changed: Dict[int, Node] = {}  # the parent and siblings to write
        parent: Optional[Node] = None
        dirty = escaped = False
        for position, request in enumerate(group):
            oid, _old_location, new_location = request
            if not leaf.has_child(oid):
                escalations.append(partial(self._top_down_update, *request))
                continue
            if leaf.effective_mbr().contains_point(new_location):
                leaf.set_point(oid, new_location)
                dirty = True
                outcomes.append(UpdateOutcome.IN_PLACE)
                continue

            if not escaped:
                escaped = True
                parent = self._parent(leaf, self.tree.read_node)
            if parent is None:
                escalations.append(partial(self._top_down_update, *request))
                continue
            enlarged = self._enlargement(leaf, parent, new_location)
            if enlarged is not None:
                leaf.set_point(oid, new_location)
                leaf.stored_mbr = enlarged
                dirty = True
                parent.set_rect(leaf_page_id, enlarged)
                changed[parent.page_id] = parent
                outcomes.append(UpdateOutcome.EXTENDED)
                continue
            # Removing the object must not underflow the leaf; otherwise the
            # reorganisation belongs to the top-down machinery.
            if len(leaf) - 1 < self.tree.min_leaf_entries:
                escalations.append(partial(self._top_down_update, *request))
                unsettled = list(group[position + 1 :])
                break
            leaf.discard_entry(oid)
            self.tree.write_node(leaf)
            dirty = False
            sibling = self._find_sibling(parent, leaf_page_id, new_location, held)
            if sibling is None:
                escalations.append(partial(self._insert_from_root, oid, new_location))
                continue
            sibling.add_entry(Entry(Rect.from_point(new_location), oid))
            changed[sibling.page_id] = sibling
            outcomes.append(UpdateOutcome.SIBLING_SHIFT)

        if dirty:
            self.tree.write_node(leaf)
        for node in changed.values():
            self.tree.write_node(node)
        return outcomes, escalations, unsettled

    def _parent(self, leaf: Node, read: Callable[[int], Node]) -> Optional[Node]:
        """The leaf's parent, through its parent pointer.

        ``None`` — repair top-down — when the leaf is the root or its
        pointer dangles after a restructure (nothing to enlarge against, no
        siblings to shift to), or is stale (which correct maintenance never
        leaves).
        """
        page = leaf.parent_page_id
        if page is None or not self.tree.disk.contains(page):
            return None
        parent = read(page)
        return parent if parent.has_child(leaf.page_id) else None

    def _enlargement(self, leaf: Node, parent: Node, location: Point) -> Optional[Rect]:
        """The leaf MBR enlarged by ε in all directions, if that stays inside
        the parent MBR and covers *location*."""
        enlarged = leaf.effective_mbr().expanded(self.params.epsilon)
        if parent.mbr().contains_rect(enlarged) and enlarged.contains_point(location):
            return enlarged
        return None

    def _find_sibling(
        self, parent: Node, exclude_page: int, location: Point, held: Dict[int, Node]
    ) -> Optional[Node]:
        """Read candidate siblings until a non-full one containing *location* is found.

        Without the summary structure every candidate has to be read from
        disk to check fullness (once per bucket: *held* keeps them).
        """
        for candidate_page in parent.contains_point_children(location):
            if candidate_page == exclude_page:
                continue
            sibling = held.get(candidate_page)
            if sibling is None:
                sibling = held[candidate_page] = self.tree.read_node(candidate_page)
            if sibling.is_full(self.tree.leaf_capacity):
                continue
            return sibling
        return None

    def _insert_from_root(self, oid: int, location: Point) -> UpdateOutcome:
        """Standard R-tree insert from the root; the leaf already let the object go."""
        self.tree.insert(oid, location)
        self.tree.size -= 1  # insert() counts a new object; this one was only moved
        return UpdateOutcome.TOP_DOWN

    # ------------------------------------------------------------------
    # Lock-scope prediction (concurrency engine)
    # ------------------------------------------------------------------
    def _scope(
        self, leaf_page_id: Optional[int], request: Request
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
        oid, _old_location, new_location = request
        if leaf_page_id is None:
            return self.insert_lock_scope(new_location)
        leaf = self.tree.peek_node(leaf_page_id)
        if not leaf.has_child(oid):
            return self._top_down_scope(request)

        requests = [GranuleLockRequest(leaf_page_id, LockMode.EXCLUSIVE)]
        tree_intention = GranuleLockRequest(TREE_GRANULE, LockMode.INTENTION_EXCLUSIVE)
        if leaf.effective_mbr().contains_point(new_location):
            requests.append(tree_intention)
            return requests
        parent = self._parent(leaf, self.tree.peek_node)
        if parent is None:
            return self._top_down_scope(request)
        requests.append(GranuleLockRequest(parent.page_id, LockMode.INTENTION_EXCLUSIVE))
        if self._enlargement(leaf, parent, new_location) is not None:
            requests.append(tree_intention)
            return requests
        if len(leaf) - 1 < self.tree.min_leaf_entries:
            return self._top_down_scope(request)
        candidates = [
            page
            for page in parent.contains_point_children(new_location)
            if page != leaf_page_id
        ]
        if candidates:
            requests.extend(
                GranuleLockRequest(page, LockMode.EXCLUSIVE) for page in candidates
            )
        else:
            # Bottom-up removal followed by a root insert of the survivor.
            requests.extend(self.insert_lock_scope(new_location))
        requests.append(tree_intention)
        return requests
