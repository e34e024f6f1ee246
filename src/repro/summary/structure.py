"""The summary structure: direct access table + leaf bit vector.

:class:`SummaryStructure` bundles the two components of Section 3.2, keeps
them consistent with the R-tree by listening to its observer events, and
exposes the operations GBU needs:

* :meth:`root_mbr` — the MBR of the whole index, checked first by
  Algorithm 2 ("if newLocation lies outside rootMBR then issue a top-down
  update").
* :meth:`find_parent` — Algorithm 3: the lowest ancestor of a node whose MBR
  contains the new location, limited by the level threshold.
* :meth:`parent_entry_of_leaf` / :meth:`sibling_leaves` — parent and sibling
  information without disk access.
* :meth:`is_leaf_full` — the bit-vector lookup used when choosing a sibling.
* :meth:`path_from_root` — the chain of internal-node page ids from the root
  down to a node, used by :meth:`RTree.insert_at_subtree` so that a rare
  split above the insertion anchor can still propagate correctly.

All methods are pure main-memory operations.

**Maintenance follows the paper's accounting** — Section 3.2 changes a table
entry only when an internal node's MBR moves or the node splits, and a bit
only when a leaf's fullness changes — through the write event's membership
delta (:mod:`repro.rtree.observers`):

* a leaf written with the entries it had (``node.arrived is None`` — every
  in-place and ε-extended update) costs nothing, its fullness bit is current;
  a leaf whose membership changed has its bit set from its entry count;
* an internal node written with the children it had only has its MBR compared
  and assigned (:meth:`DirectAccessTable.set_mbr`);
* an internal node whose child list changed — split, CondenseTree, a new
  root — is registered whole (:meth:`DirectAccessTable.upsert`), the only
  place ``_parent_of`` and ``_by_level`` are touched besides node deletion.

:meth:`SummaryStructure.rebuild_from_tree` is the bulk path: it registers
every node whole from one traversal, for a summary that has not followed the
tree's events (bootstrap, a GBU hot swap, checkpoint restore, worker
hydration).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.geometry import Point, Rect, kernels
from repro.rtree.node import Node
from repro.rtree.observers import TreeObserver
from repro.rtree.tree import RTree
from repro.summary.bitvector import LeafBitVector
from repro.summary.direct_access import DirectAccessEntry, DirectAccessTable


class SummaryStructure(TreeObserver):
    """Main-memory summary of an R-tree (direct access table + bit vector)."""

    def __init__(self, tree: RTree) -> None:
        self.tree = tree
        self.table = DirectAccessTable()
        self.leaf_bits = LeafBitVector()
        self.root_page_id = tree.root_page_id
        self.height = tree.height

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build_from_tree(cls, tree: RTree) -> "SummaryStructure":
        """Populate a summary from *tree* and register it as an observer.

        Bootstrapping walks the tree with :meth:`RTree.peek_node`, so it does
        not disturb the I/O counters (the summary is built once, before the
        measured phase, exactly like the secondary hash index).
        """
        summary = cls(tree)
        summary.rebuild_from_tree()
        tree.register_observer(summary)
        return summary

    def rebuild_from_tree(self) -> None:
        """Bulk refresh: re-derive the whole summary from the live tree.

        One uncharged traversal replaces the direct access table and the
        leaf bit vector wholesale, which also drops any entry for a node no
        longer in the tree.  This is how the summary is bootstrapped and how
        it can be re-synchronised after bulk operations that bypass the
        observer protocol (the incremental observer events keep it
        consistent during normal and batch execution, so calling this is
        never *required* there — it is the recovery and bulk-load path).
        Maintenance counters restart from zero, as after a fresh bootstrap.
        """
        self.table = DirectAccessTable()
        self.leaf_bits = LeafBitVector()
        self.root_page_id = self.tree.root_page_id
        self.height = self.tree.height
        for node, _parent in self.tree.iter_nodes():
            self._record_node(node)

    # ------------------------------------------------------------------
    # TreeObserver interface
    # ------------------------------------------------------------------
    def on_node_written(self, node: Node) -> None:
        if node.arrived is not None:
            self._record_node(node)
        elif node.level:
            # Same children as at the last write: only the MBR can have moved.
            self.table.set_mbr(node.page_id, node.mbr())

    def on_node_deleted(self, node: Node) -> None:
        if node.is_leaf:
            self.leaf_bits.forget(node.page_id)
        else:
            self.table.remove(node.page_id)

    def on_root_changed(self, root_page_id: int, height: int) -> None:
        self.root_page_id = root_page_id
        self.height = height

    def _record_node(self, node: Node) -> None:
        """Register *node* whole: fullness bit, or table entry with its children."""
        if node.is_leaf:
            self.leaf_bits.set_fullness(
                node.page_id, len(node) >= self.tree.leaf_capacity
            )
            return
        if not len(node):
            # An internal node is never legitimately empty; skip rather than
            # store an entry without an MBR (the node is about to be removed).
            return
        self.table.upsert(
            page_id=node.page_id,
            level=node.level,
            mbr=node.mbr(),
            child_page_ids=node.children,  # the table takes its own copy
        )

    # ------------------------------------------------------------------
    # Queries used by GBU
    # ------------------------------------------------------------------
    def root_entry(self) -> Optional[DirectAccessEntry]:
        """Direct-access entry of the root, or ``None`` when the root is a leaf."""
        return self.table.get(self.root_page_id)

    def root_mbr(self) -> Optional[Rect]:
        """MBR of the whole index from the summary (``None`` if root is a leaf)."""
        entry = self.root_entry()
        return entry.mbr if entry is not None else None

    def is_leaf_full(self, leaf_page_id: int) -> bool:
        return self.leaf_bits.is_full(leaf_page_id)

    def parent_entry_of_leaf(self, leaf_page_id: int) -> Optional[DirectAccessEntry]:
        """Entry of the level-1 node whose children include *leaf_page_id*."""
        return self.table.parent_of(leaf_page_id)

    def sibling_leaves(self, leaf_page_id: int) -> List[int]:
        """Page ids of the other leaves under the same parent."""
        parent = self.parent_entry_of_leaf(leaf_page_id)
        if parent is None:
            return []
        return [child for child in parent.child_page_ids if child != leaf_page_id]

    def path_from_root(self, page_id: int) -> List[int]:
        """Internal-node page ids from the root down to (excluding) *page_id*.

        Returns an empty list when *page_id* is the root itself.  The chain is
        derived entirely from the direct access table.
        """
        chain: List[int] = []
        current = page_id
        guard = 0
        while current != self.root_page_id:
            parent = self.table.parent_of(current)
            if parent is None:
                break
            chain.append(parent.page_id)
            current = parent.page_id
            guard += 1
            if guard > 1000:  # defensive: a cycle here would mean a corrupted table
                raise RuntimeError("cycle detected in direct access table parent chain")
        chain.reverse()
        return chain

    def find_parent(
        self,
        node_page_id: int,
        new_location: Point,
        level_threshold: Optional[int] = None,
    ) -> Tuple[Optional[int], List[int]]:
        """Algorithm 3 (*FindParent*): lowest ancestor whose MBR covers the target.

        Starting from the parent of *node_page_id* (level 1 when the node is a
        leaf) and ascending one level at a time, return the page id of the
        first ancestor whose MBR contains *new_location*.  The ascent is
        limited to *level_threshold* levels above the leaf (the paper's
        parameter ℓ); when no ancestor within the threshold qualifies, the
        root is returned if the threshold allows reaching it, otherwise
        ``None`` (the caller falls back to a top-down update).

        Returns ``(ancestor_page_id, ancestor_path)`` where *ancestor_path*
        lists the internal-node page ids strictly above the ancestor, root
        first — exactly the argument :meth:`RTree.insert_at_subtree` expects.
        """
        if level_threshold is None:
            level_threshold = self.height - 1

        ancestor: Optional[DirectAccessEntry] = self.table.parent_of(node_page_id)
        while ancestor is not None:
            if ancestor.level > level_threshold:
                return None, []
            if ancestor.mbr.contains_point(new_location):
                return ancestor.page_id, self.path_from_root(ancestor.page_id)
            if ancestor.page_id == self.root_page_id:
                # The root is the last resort; its MBR may not contain the
                # location (the object moved outside the indexed space), in
                # which case inserting at the root is still correct — it is
                # what a top-down insert would do.
                return ancestor.page_id, []
            ancestor = self.table.parent_of(ancestor.page_id)
        return None, []

    # ------------------------------------------------------------------
    # Sizing / reporting
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Approximate main-memory footprint of the summary structure."""
        entry_size = self.tree.layout.direct_access_entry_size
        return self.table.size_bytes(entry_size) + self.leaf_bits.size_bytes()

    def size_ratio_to_tree(self) -> float:
        """Summary size as a fraction of the R-tree's on-disk size."""
        counts = self.tree.node_count()
        tree_bytes = (counts["leaf"] + counts["internal"]) * self.tree.layout.page_size
        if tree_bytes == 0:
            return 0.0
        return self.size_bytes() / tree_bytes

    def maintenance_counters(self) -> Dict[str, int]:
        """Counters describing how much maintenance the table has seen."""
        return {
            "mbr_updates": self.table.mbr_updates,
            "entry_insertions": self.table.entry_insertions,
            "entry_removals": self.table.entry_removals,
        }

    # ------------------------------------------------------------------
    # Consistency checking (tests)
    # ------------------------------------------------------------------
    def consistency_errors(self) -> List[str]:
        """Compare the summary against the live tree; return any mismatches.

        Covers the entries (level, MBR, children), the leaf bits, the root,
        and the table's derived ``_parent_of`` / ``_by_level`` maps.
        """
        errors: List[str] = []
        internal_pages: Set[int] = set()
        leaf_pages: Set[int] = set()
        for node, _parent in self.tree.iter_nodes():
            if node.is_leaf:
                leaf_pages.add(node.page_id)
                expected_full = len(node) >= self.tree.leaf_capacity
                if not self.leaf_bits.is_tracked(node.page_id):
                    errors.append(f"leaf {node.page_id} missing from bit vector")
                elif self.leaf_bits.is_full(node.page_id) != expected_full:
                    errors.append(f"leaf {node.page_id} fullness bit is stale")
                continue
            internal_pages.add(node.page_id)
            entry = self.table.get(node.page_id)
            if entry is None:
                errors.append(f"internal node {node.page_id} missing from direct access table")
                continue
            if entry.level != node.level:
                errors.append(f"node {node.page_id}: table level {entry.level} != {node.level}")
            # Against the bound swept from the columns: the node's own memo
            # is what fed the table, so it cannot vouch for it.
            if entry.mbr != kernels.union_rect(node.coords):
                errors.append(f"node {node.page_id}: table MBR is stale")
            if sorted(entry.child_page_ids) != sorted(node.child_ids()):
                errors.append(f"node {node.page_id}: table children are stale")
        for page_id in list(self.table._entries):
            if page_id not in internal_pages:
                errors.append(f"table entry {page_id} refers to a node no longer in the tree")
        errors.extend(self.table.consistency_errors())
        for page_id in self.leaf_bits:
            if page_id not in leaf_pages:
                errors.append(f"bit vector tracks leaf {page_id} no longer in the tree")
        if self.root_page_id != self.tree.root_page_id:
            errors.append("summary root page id is stale")
        return errors
