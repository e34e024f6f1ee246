"""Hash table mapping object ids to the leaf page that stores them.

The paper's bottom-up strategies assume a secondary index on object IDs that
gives direct access to the R-tree leaf containing an object (Figure 2).  The
cost analysis in Section 4.2 charges **one disk read per probe** ("an
additional I/O to read the hash index giving direct access to the leaf
node"), so every :meth:`ObjectHashIndex.lookup` bumps the shared
``hash_index_reads`` counter, hit or miss.  :meth:`ObjectHashIndex.peek` is
the uncharged read for validators and tests.

Maintenance is free of I/O (only the R-tree pages count towards the paper's
I/O metric; the hash index is charged per probe, not per maintenance
operation) and proportional to what moved: a leaf-write event re-points only
the ids that **arrived** in that leaf since its previous write
(:attr:`Node.arrived <repro.rtree.node.Node.arrived>`, the event contract of
:mod:`repro.rtree.observers`).  An update that stays in its leaf — in place
or ε-extended — writes no key; a sibling shift writes one per object that
changed leaf.  Registering a leaf whole is the bulk path only:
:meth:`ObjectHashIndex.rebuild_from_tree` (bootstrap, checkpoint restore and
worker hydration), and the events of nodes whose entries were assigned
wholesale (bulk load, split), which list every id — one C-level
``dict.update`` per leaf either way.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, KeysView, List, Optional

from repro.rtree.node import Node
from repro.rtree.observers import TreeObserver
from repro.rtree.tree import RTree
from repro.storage.stats import IOStatistics


class ObjectHashIndex(TreeObserver):
    """Object id -> leaf page id map maintained from tree events.

    Parameters
    ----------
    stats:
        Shared I/O counters; each lookup adds one ``hash_index_reads``,
        matching the paper's cost model.
    """

    def __init__(self, stats: Optional[IOStatistics] = None) -> None:
        self.stats = stats if stats is not None else IOStatistics()
        self._leaf_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build_from_tree(
        cls,
        tree: RTree,
        stats: Optional[IOStatistics] = None,
    ) -> "ObjectHashIndex":
        """Create an index, populate it from *tree*, and register it as observer.

        Population uses :meth:`RTree.peek_node` traversal (no I/O charged):
        building the hash table is part of index construction, which happens
        before the measured phase of every experiment.
        """
        index = cls(stats=stats if stats is not None else tree.disk.stats)
        index.rebuild_from_tree(tree)
        tree.register_observer(index)
        return index

    def rebuild_from_tree(self, tree: RTree) -> None:
        """Bulk path: forget everything and register every leaf of *tree* whole.

        For an index that has not followed the tree's write events — a fresh
        one, or one whose tree was just restored from page images.
        """
        self._leaf_of.clear()
        for leaf in tree.leaf_nodes():
            self.add_leaf(leaf)

    def add_leaf(self, leaf: Node) -> None:
        """Point every object of *leaf* at it (the bulk paths' one step)."""
        self._leaf_of.update(zip(leaf.children, repeat(leaf.page_id)))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, oid: int) -> Optional[int]:
        """Return the leaf page id currently holding *oid* (or ``None``).

        Charged as one disk read.
        """
        self.stats.hash_index_reads += 1
        return self._leaf_of.get(oid)

    def peek(self, oid: int) -> Optional[int]:
        """Uncharged lookup for tests and validators."""
        return self._leaf_of.get(oid)

    def __contains__(self, oid: int) -> bool:
        return oid in self._leaf_of

    def __len__(self) -> int:
        return len(self._leaf_of)

    def object_ids(self) -> KeysView[int]:
        """The indexed object ids, as a live view (nothing is copied)."""
        return self._leaf_of.keys()

    # ------------------------------------------------------------------
    # TreeObserver interface
    # ------------------------------------------------------------------
    def on_node_written(self, node: Node) -> None:
        """Re-point the objects that arrived in a written leaf."""
        arrived = node.arrived
        if arrived and node.level == 0:
            # dict.update over a zip runs the per-object loop in C (a split or
            # bulk-loaded leaf lists all of its ids).
            self._leaf_of.update(zip(arrived, repeat(node.page_id)))

    def on_node_deleted(self, node: Node) -> None:
        """Forget objects whose recorded leaf was deleted.

        Objects that were re-homed before the deletion still point at their
        new leaf (the new leaf's write event already overwrote the mapping),
        so only mappings still naming the deleted page are dropped — those
        objects are about to be re-inserted by CondenseTree and will be
        re-recorded when their new leaf is written.
        """
        if not node.is_leaf:
            return
        for child in node.child_ids():
            if self._leaf_of.get(child) == node.page_id:
                del self._leaf_of[child]

    def on_object_removed(self, oid: int) -> None:
        self._leaf_of.pop(oid, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def consistency_errors(self, tree: RTree) -> List[str]:
        """Return a list of inconsistencies between the index and *tree*.

        Used by tests: an empty list means every object id maps to the leaf
        that actually stores it and no stale ids remain.
        """
        errors: List[str] = []
        actual: Dict[int, int] = {}
        for leaf in tree.leaf_nodes():
            for oid in leaf.child_ids():
                actual[oid] = leaf.page_id
        for oid, page in actual.items():
            recorded = self._leaf_of.get(oid)
            if recorded != page:
                errors.append(f"object {oid}: index says {recorded}, tree says {page}")
        for oid in self._leaf_of:
            if oid not in actual:
                errors.append(f"object {oid}: present in index but not in tree")
        return errors
