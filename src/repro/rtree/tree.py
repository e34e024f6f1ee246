"""The disk-based R-tree.

:class:`RTree` implements the index the paper's three update strategies
operate on.  Every node access goes through the buffer pool so that physical
I/O is counted exactly the way the paper measures it.

The public surface is intentionally close to the paper's description:

* :meth:`RTree.insert` / :meth:`RTree.delete` — the classic top-down
  operations (ChooseLeaf, AdjustTree, node splits, and Guttman's
  CondenseTree with re-insertion of orphaned entries).
* :meth:`RTree.range_query` — window queries, the paper's query workload.
* :meth:`RTree.knn` — a best-first nearest-neighbour extension (not used by
  the paper, provided for library completeness).
* :meth:`RTree.insert_at_subtree` — a standard insert that starts its descent
  at an arbitrary ancestor node instead of the root.  This is the primitive
  GBU's Algorithm 2 uses after ``FindParent`` located the lowest ancestor
  whose MBR covers the object's new position.
* low-level node accessors (:meth:`read_node`, :meth:`write_node`, ...) used
  by the bottom-up strategies, which by design manipulate leaves and their
  siblings directly.
* group primitives (:meth:`remove_entries`, :meth:`add_entries`,
  :meth:`adjust_upward`) that mutate a leaf and its siblings in bulk and
  fix every affected ancestor MBR in one deferred pass; the shard
  rebalancer moves whole leaf groups with them (:meth:`remove_group`,
  :meth:`insert_group`).

Levels are numbered from the leaves (leaf level = 0, root level =
``height - 1``), matching the way the paper's Algorithm 3 ascends the tree.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node, make_node
from repro.rtree.observers import ObserverList, TreeObserver
from repro.rtree.split import QuadraticSplit
from repro.storage.buffer import BufferPool
from repro.storage.sizing import PageLayout


class RTree:
    """A paged Guttman R-tree (quadratic split) with observer support.

    Parameters
    ----------
    buffer:
        Buffer pool through which every node read/write flows.  Its frames
        hold the live nodes; what the disk behind it holds is the pool's
        ``codec`` (applied at the disk boundary only), which the tree never
        sees.
    layout:
        Page layout used to derive leaf/internal capacities.
    store_parent_pointers:
        When ``True`` leaf nodes carry a parent pointer (the LBU
        configuration, Section 3.1).  This costs one entry slot of leaf
        capacity and forces extra leaf writes whenever leaves change parents.
    """

    def __init__(
        self,
        buffer: BufferPool,
        layout: Optional[PageLayout] = None,
        store_parent_pointers: bool = False,
    ) -> None:
        self.buffer = buffer
        self.disk = buffer.disk
        self.layout = layout if layout is not None else PageLayout()
        self.store_parent_pointers = store_parent_pointers

        self.leaf_capacity = self.layout.leaf_capacity(
            with_parent_pointer=store_parent_pointers
        )
        self.internal_capacity = self.layout.internal_capacity
        self.min_leaf_entries = self.layout.min_entries(self.leaf_capacity)
        self.min_internal_entries = self.layout.min_entries(self.internal_capacity)

        self.observers = ObserverList()
        self.size = 0  # number of indexed objects
        self.height = 1

        root = make_node(page_id=self.disk.allocate_page(), level=0)
        self.root_page_id = root.page_id
        self.observers.node_created(root)
        self.write_node(root)
        self.observers.root_changed(self.root_page_id, self.height)

    # ------------------------------------------------------------------
    # Observer management
    # ------------------------------------------------------------------
    def register_observer(self, observer: TreeObserver) -> None:
        """Attach *observer*; it will receive every subsequent tree event."""
        self.observers.register(observer)

    def unregister_observer(self, observer: TreeObserver) -> None:
        self.observers.unregister(observer)

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def read_node(self, page_id: int) -> Node:
        """Read the node stored on *page_id* through the buffer pool.

        A buffer hit returns the resident node itself; only a physical read
        materialises a new one (decoded from the page image when the pool
        has a codec).
        """
        node: Optional[Node] = self.buffer.read(page_id)
        if node is None:
            raise LookupError(f"page {page_id} does not hold an R-tree node")
        return node

    def write_node(self, node: Node) -> None:
        """Write *node* back to its page and notify observers.

        The event carries the node's membership delta
        (:attr:`Node.arrived <repro.rtree.node.Node.arrived>`); once every
        observer has seen it the delta restarts, so the next write reports
        only what changed after this one.
        """
        self.buffer.write(node.page_id, node)
        self.observers.node_written(node)
        node.arrived = None

    def peek_node(self, page_id: int) -> Node:
        """Read a node without charging I/O (planning, tests and validators).

        Reads through the buffer pool so write-back frames that have not
        reached the disk yet are seen — lock-scope prediction runs against
        the live tree, not the possibly stale on-disk image.
        """
        node: Node = self.buffer.peek(page_id)
        return node

    def _allocate_node(self, level: int) -> Node:
        node = make_node(page_id=self.disk.allocate_page(), level=level)
        self.observers.node_created(node)
        return node

    def _free_node(self, node: Node) -> None:
        self.buffer.discard(node.page_id)
        self.disk.deallocate_page(node.page_id)
        self.observers.node_deleted(node)

    # ------------------------------------------------------------------
    # Capacities
    # ------------------------------------------------------------------
    def capacity_for_level(self, level: int) -> int:
        return self.leaf_capacity if level == 0 else self.internal_capacity

    def min_entries_for_level(self, level: int) -> int:
        return self.min_leaf_entries if level == 0 else self.min_internal_entries

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, oid: int, location: Union[Point, Rect]) -> None:
        """Insert object *oid* at *location* using the standard top-down path."""
        rect = location if isinstance(location, Rect) else Rect.from_point(location)
        self._insert_entry(Entry(rect, oid), target_level=0)
        self.size += 1

    def insert_at_subtree(
        self,
        oid: int,
        location: Union[Point, Rect],
        anchor_page_id: int,
        ancestor_path: Sequence[int] = (),
    ) -> None:
        """Insert *oid* by descending from *anchor_page_id* instead of the root.

        *ancestor_path* lists the page ids strictly above the anchor, ordered
        root first; it is consulted (and the corresponding nodes are read,
        with I/O charged) only if a node split propagates above the anchor.
        GBU obtains both the anchor and the path from the in-memory summary
        structure, so the common case costs no extra I/O.
        """
        rect = location if isinstance(location, Rect) else Rect.from_point(location)
        self._insert_entry(
            Entry(rect, oid),
            target_level=0,
            anchor_page_id=anchor_page_id,
            ancestor_path=list(ancestor_path),
        )
        self.size += 1

    def _insert_entry(
        self,
        entry: Entry,
        target_level: int,
        anchor_page_id: Optional[int] = None,
        ancestor_path: Optional[List[int]] = None,
    ) -> None:
        """Insert *entry* at *target_level*, splitting and adjusting as needed."""
        start_page = anchor_page_id if anchor_page_id is not None else self.root_page_id
        upper_path = list(ancestor_path or [])

        path = self._choose_path(entry.rect, target_level, start_page)
        target = path[-1]
        target.add_entry(entry)

        # An entry inserted at level 1 re-parents the leaf it points to (this
        # happens when CondenseTree re-inserts the children of a dissolved
        # level-1 node); with the LBU configuration that leaf's parent pointer
        # must be rewritten — another instance of LBU's maintenance overhead.
        if self.store_parent_pointers and target.level == 1 and target_level == 1:
            child = self.read_node(entry.child)
            if child.parent_page_id != target.page_id:
                child.parent_page_id = target.page_id
                self.write_node(child)

        self._handle_overflow_and_adjust(path, upper_path, enlarged_rect=entry.rect)

    def _choose_path(
        self, rect: Rect, target_level: int, start_page_id: int
    ) -> List[Node]:
        """Descend from *start_page_id* to *target_level* choosing subtrees.

        Returns the nodes read along the way, topmost first.  Every node on
        the path is read through the buffer (and therefore charged).
        """
        node = self.read_node(start_page_id)
        if node.level < target_level:
            raise ValueError(
                f"cannot descend to level {target_level} from a node at level {node.level}"
            )
        path = [node]
        while node.level > target_level:
            node = self.read_node(node.choose_subtree_child(rect))
            path.append(node)
        return path

    def _handle_overflow_and_adjust(
        self,
        path: List[Node],
        upper_path: List[int],
        enlarged_rect: Optional[Rect] = None,
    ) -> None:
        """AdjustTree: propagate splits and MBR changes from ``path[-1]`` upwards.

        *path* holds the nodes read during the descent (topmost first);
        *upper_path* holds page ids above ``path[0]`` that are read lazily —
        and only when a split or MBR enlargement actually has to propagate
        that far.  Nodes are written back only when their content changed, so
        a purely local insert costs exactly the writes the paper's cost model
        charges.
        """
        modified = {path[-1].page_id}  # the target node always changed
        split_sibling: Optional[Node] = None
        index = len(path) - 1
        while index >= 0:
            node = path[index]
            capacity = self.capacity_for_level(node.level)

            if len(node) > capacity:
                split_sibling = self._split_node(node)
            else:
                if node.page_id in modified:
                    # The parent entry below is refreshed to the tight MBR,
                    # voiding any ε-slack; clear it *before* the write so the
                    # page image matches the node's final state.
                    # Semantically a no-op when the parent entry
                    # already equals the tight bound (the slack was inside it).
                    if len(node) and (
                        index > 0 or upper_path or node.page_id != self.root_page_id
                    ):
                        node.stored_mbr = None
                    self.write_node(node)
                split_sibling = None

            node_changed = node.page_id in modified or split_sibling is not None
            if not node_changed:
                break  # nothing left to propagate

            parent = path[index - 1] if index > 0 else None
            if parent is None and upper_path:
                parent_page = upper_path.pop()
                parent = self.read_node(parent_page)
                path.insert(0, parent)
                index += 1  # keep `index - 1` pointing at the freshly added parent

            if parent is None:
                # `node` is the root of the whole tree.
                if split_sibling is not None:
                    self._grow_root(node, split_sibling)
                break

            if parent.set_rect(node.page_id, node.mbr()):
                modified.add(parent.page_id)
            if split_sibling is not None:
                parent.add_entry(Entry(split_sibling.mbr(), split_sibling.page_id))
                modified.add(parent.page_id)
                self._maintain_parent_pointers(parent, [split_sibling])
            index -= 1

    def _split_node(self, node: Node) -> Node:
        """Split an overflowing *node*; return the newly created sibling."""
        min_entries = self.min_entries_for_level(node.level)
        group_a, group_b = QuadraticSplit().split(
            node.materialized_entries(), min_entries
        )
        sibling = self._allocate_node(node.level)
        node.entries = group_a
        sibling.entries = group_b
        sibling.parent_page_id = node.parent_page_id
        node.stored_mbr = None  # entries were redistributed: any ε-slack is void
        self.write_node(node)
        self.write_node(sibling)
        # When leaves carry parent pointers, the children that moved into the
        # sibling of a level-1 node must be rewritten to point at it.
        if self.store_parent_pointers and node.level == 1:
            self._rewrite_children_parent_pointers(sibling)
        return sibling

    def _grow_root(self, old_root: Node, sibling: Node) -> None:
        """Create a new root above *old_root* and *sibling*."""
        new_root = self._allocate_node(old_root.level + 1)
        new_root.entries = [
            Entry(old_root.mbr(), old_root.page_id),
            Entry(sibling.mbr(), sibling.page_id),
        ]
        self.write_node(new_root)
        self.root_page_id = new_root.page_id
        self.height = new_root.level + 1
        self._maintain_parent_pointers(new_root, [old_root, sibling])
        self.observers.root_changed(self.root_page_id, self.height)

    def _maintain_parent_pointers(self, parent: Node, children: Iterable[Node]) -> None:
        """Set the parent pointer of leaf *children* (LBU configuration only)."""
        if not self.store_parent_pointers or parent.level != 1:
            return
        for child in children:
            if child.parent_page_id != parent.page_id:
                child.parent_page_id = parent.page_id
                self.write_node(child)

    def _rewrite_children_parent_pointers(self, parent: Node) -> None:
        """Rewrite the parent pointer of every leaf child of *parent*.

        This models LBU's parent-pointer maintenance cost: after a level-1
        node splits, roughly half of its leaves now have a different parent
        and each of those leaves must be read and written back.
        """
        if not self.store_parent_pointers or parent.level != 1:
            return
        for child_page in parent.child_ids():
            child = self.read_node(child_page)
            if child.parent_page_id != parent.page_id:
                child.parent_page_id = parent.page_id
                self.write_node(child)

    # ------------------------------------------------------------------
    # Group primitives (batch update engine)
    # ------------------------------------------------------------------
    def remove_entries(self, node: Node, children: Iterable[int]) -> List[Entry]:
        """Remove several entries from an in-memory *node*; return them.

        This is a pure node mutation: no write is issued, no condensing
        happens, and :attr:`size` is untouched — the batch executor moves
        entries between leaves (size-neutral) and issues one deferred write
        per touched node.  The caller is responsible for keeping the node at
        or above its minimum fill.  Raises ``LookupError`` when any of
        *children* is absent or repeated, leaving the node unchanged in that
        case.
        """
        ids = list(children)
        if len(set(ids)) != len(ids):
            raise LookupError(f"duplicate entry ids in removal from node {node.page_id}")
        missing = [child for child in ids if not node.has_child(child)]
        if missing:
            raise LookupError(f"entries {missing} not found in node {node.page_id}")
        # Every id is present (checked above), so no ``None`` is dropped.
        return [entry for entry in map(node.remove_entry, ids) if entry is not None]

    def add_entries(self, node: Node, entries: Sequence[Entry]) -> None:
        """Add several entries to an in-memory *node* (no write issued).

        Raises ``ValueError`` when the node would exceed its capacity; the
        node is left unchanged in that case.
        """
        capacity = self.capacity_for_level(node.level)
        if len(node) + len(entries) > capacity:
            raise ValueError(
                f"adding {len(entries)} entries would overflow node "
                f"{node.page_id} (capacity {capacity}, has {len(node)})"
            )
        for entry in entries:
            node.add_entry(entry)

    def find_path_to_leaf(self, leaf_page_id: int, hint: Rect) -> Optional[List[Node]]:
        """Root-to-leaf node path ending at *leaf_page_id* (reads charged).

        The descent follows entries intersecting *hint* — any rectangle
        known to lie inside the leaf's MBR, e.g. one member entry — exactly
        like the delete-side FindLeaf; level-1 nodes are matched by child
        page id, so no sibling leaf is ever read.  Returns ``None`` when
        the leaf is not reachable (it was dissolved since planning).  The
        returned path is what :meth:`_condense_tree`-style maintenance
        needs: root first, the leaf itself last.
        """

        def descend(node: Node, path: List[Node]) -> Optional[List[Node]]:
            path = path + [node]
            if node.is_leaf:
                return path if node.page_id == leaf_page_id else None
            if node.level == 1:
                if node.has_child(leaf_page_id):
                    return path + [self.read_node(leaf_page_id)]
                return None
            for child in node.intersecting_children(hint):
                result = descend(self.read_node(child), path)
                if result is not None:
                    return result
            return None

        return descend(self.read_node(self.root_page_id), [])

    def remove_group(self, path: List[Node], children: Iterable[int]) -> List[Entry]:
        """Remove several objects from the leaf at ``path[-1]`` and condense once.

        The bulk counterpart of repeated :meth:`delete_from_leaf` calls: the
        entries are taken out of the leaf in one pass, :attr:`size` and the
        object-removal observers are maintained per object, and a **single**
        CondenseTree pass handles the write-back, any underflow (surviving
        entries are re-inserted, the emptied node is dissolved) and the
        ancestor-MBR tightening — instead of one full condense per object.
        Returns the removed entries.  Used by the shard rebalancer, whose
        migrations drain whole leaves at a time.
        """
        leaf = path[-1]
        entries = self.remove_entries(leaf, children)
        self.size -= len(entries)
        for entry in entries:
            self.observers.object_removed(entry.child)
        self._condense_tree(path)
        return entries

    def insert_group(self, entries: Sequence[Entry]) -> None:
        """Bulk-insert co-located object entries (one descent per leaf-full).

        The group counterpart of repeated :meth:`insert` calls, used by the
        shard rebalancer to move whole leaf buckets between shards: one
        ChooseLeaf descent places as many entries as the chosen leaf has
        room for, the leaf is written once, and one AdjustTree pass
        propagates the enlargement — R-tree containment only requires the
        ancestors to cover the entries, so sharing the placement is legal
        and, for entries that travelled together from one source leaf,
        spatially reasonable.  A full leaf takes one entry anyway and lets
        the AdjustTree pass split it — the descent already paid for is
        reused instead of repeating ChooseLeaf from the root.
        """
        pending = list(entries)
        while pending:
            path = self._choose_path(pending[0].rect, 0, self.root_page_id)
            leaf = path[-1]
            room = self.leaf_capacity - len(leaf)
            if room <= 0:
                leaf.add_entry(pending.pop(0))
                self.size += 1
                self._handle_overflow_and_adjust(path, [])
                continue
            batch = pending[:room]
            del pending[:room]
            self.add_entries(leaf, batch)
            self.size += len(batch)
            self._handle_overflow_and_adjust(path, [])

    def adjust_upward(
        self,
        parent: Node,
        children: Sequence[Node],
        ancestor_path: Sequence[int] = (),
    ) -> bool:
        """One deferred ancestor-MBR adjustment pass for a batch group.

        Refreshes *parent*'s entry for every node in *children* to that
        child's :meth:`~repro.rtree.node.Node.effective_mbr` and writes the
        parent once if anything changed — instead of one parent read/write
        per update, the way the per-operation paths pay for it.

        When the refresh *enlarged* the parent's own MBR, the enlargement is
        propagated lazily along *ancestor_path* (page ids strictly above the
        parent, root first), reading each ancestor only while containment is
        actually violated.  Bottom-up strategies bound their extensions by
        the parent MBR, so in the common case the pass stops at the parent
        without touching — or charging — any ancestor page.

        Returns ``True`` when the parent was written.
        """
        before = parent.mbr() if len(parent) else None
        changed = False
        for child in children:
            if parent.set_rect(child.page_id, child.effective_mbr()):
                changed = True
        if not changed:
            return False
        self.write_node(parent)

        needed = parent.mbr()
        if before is not None and before.contains_rect(needed):
            return True  # the parent MBR did not grow: ancestors still cover it
        current = parent
        for page_id in reversed(list(ancestor_path)):
            ancestor = self.read_node(page_id)
            if not ancestor.widen(current.page_id, needed):
                break  # the ancestor's entry already covers it
            self.write_node(ancestor)
            current = ancestor
            needed = current.mbr()
        return True

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, oid: int, location: Union[Point, Rect]) -> bool:
        """Delete object *oid* whose entry MBR contains *location*.

        Performs the top-down FindLeaf search (which may follow several
        partial paths because sibling MBRs overlap), removes the entry, and
        condenses the tree.  Returns ``True`` when the object was found.
        """
        rect = location if isinstance(location, Rect) else Rect.from_point(location)
        found = self._find_leaf(self.root_page_id, oid, rect, path=[])
        if found is None:
            return False
        path, leaf = found
        leaf.discard_entry(oid)
        self.size -= 1
        self.observers.object_removed(oid)
        self._condense_tree(path + [leaf])
        return True

    def delete_from_leaf(self, oid: int, leaf: Node, parent_path: Sequence[Node]) -> None:
        """Remove *oid* from an already-located *leaf* and condense the tree.

        The bottom-up strategies locate the leaf via the secondary hash index
        and must still keep the tree consistent when the removal causes an
        underflow; they call this method with whatever parent path they have
        already paid to read.
        """
        if not leaf.discard_entry(oid):
            raise LookupError(f"object {oid} not found in leaf {leaf.page_id}")
        self.size -= 1
        self.observers.object_removed(oid)
        self._condense_tree(list(parent_path) + [leaf])

    def _find_leaf(
        self, page_id: int, oid: int, rect: Rect, path: List[Node]
    ) -> Optional[Tuple[List[Node], Node]]:
        """Locate the leaf containing *oid*; returns the root-to-parent path and leaf."""
        node = self.read_node(page_id)
        if node.is_leaf:
            if node.has_child(oid):
                return list(path), node
            return None
        # One shared path list, append/pop around the recursion: FindLeaf
        # visits many partial paths, and copying the prefix per visited node
        # dominated the search cost.  The snapshot happens only on a hit.
        path.append(node)
        for child in node.intersecting_children(rect):
            result = self._find_leaf(child, oid, rect, path)
            if result is not None:
                return result
        path.pop()
        return None

    def _condense_tree(self, path: List[Node]) -> None:
        """Guttman's CondenseTree.

        Walk from the modified leaf towards the root.  Underflowing nodes are
        removed and their entries collected for re-insertion; surviving nodes
        have their parent entry's MBR tightened.  Finally orphaned entries are
        re-inserted at their original level and a root with a single child is
        collapsed.
        """
        orphans: List[Tuple[int, Entry]] = []  # (level, entry)
        modified = {path[-1].page_id}  # the leaf the entry was removed from
        index = len(path) - 1
        while index > 0:
            node = path[index]
            parent = path[index - 1]
            min_entries = self.min_entries_for_level(node.level)
            if node.underflows(min_entries):
                parent.discard_entry(node.page_id)
                modified.add(parent.page_id)
                orphans.extend((node.level, entry) for entry in node.entries)
                self._free_node(node)
            else:
                if not parent.has_child(node.page_id):
                    raise LookupError(
                        f"node {node.page_id} not found in parent {parent.page_id}"
                    )
                if node.page_id in modified:
                    # The parent entry is tightened below; clear the ε-slack
                    # before the write so the page image matches (no-op when
                    # the parent entry already equals the tight bound).
                    if len(node):
                        node.stored_mbr = None
                    self.write_node(node)
                if len(node) and parent.set_rect(node.page_id, node.mbr()):
                    modified.add(parent.page_id)
            index -= 1

        root = path[0]
        if root.page_id in modified:
            self.write_node(root)

        # Re-insert orphaned entries at the level they came from; entries of a
        # dissolved leaf are data objects, entries of a dissolved internal
        # node are whole subtrees.
        for level, entry in orphans:
            self._insert_entry(entry, target_level=level)

        self._shrink_root_if_needed()

    def _shrink_root_if_needed(self) -> None:
        """Collapse the root while it is an internal node with a single child."""
        changed = False
        root = self.read_node(self.root_page_id)
        while not root.is_leaf and len(root) == 1:
            child_page = root.entry_at(0).child
            child = self.read_node(child_page)
            self._free_node(root)
            self.root_page_id = child.page_id
            self.height = child.level + 1
            if child.parent_page_id is not None:
                # The promoted child is the root now; a bottom-up strategy
                # following a stale pointer would read a freed page.
                child.parent_page_id = None
                self.write_node(child)
            root = child
            changed = True
        if changed:
            self.observers.root_changed(self.root_page_id, self.height)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, window: Rect) -> List[int]:
        """Return the object ids whose MBRs intersect *window* (top-down search)."""
        return list(chain.from_iterable(self.iter_range_query(window)))

    def iter_range_query(self, window: Rect) -> Iterator[List[int]]:
        """Stream the hits of the window query *window*, one leaf's list at a time.

        Each ``next()`` reads nodes up to the next leaf that holds a hit and
        yields that leaf's hits as one list (never an empty one), so a
        consumer that stops early pays only the I/O of the leaves it
        reached.  Flattened with ``itertools.chain.from_iterable`` the ids
        come in exactly the order :meth:`range_query` materialises (same
        depth-first stack discipline), without a generator resumption per
        hit.
        """
        stack = [self.root_page_id]
        while stack:
            node = self.read_node(stack.pop())
            hits = node.intersecting_children(window)
            if node.is_leaf:
                if hits:
                    yield hits
            else:
                stack.extend(hits)

    def point_query(self, point: Point) -> List[int]:
        """Return the object ids whose MBRs contain *point*.

        No engine caller; the query and work-bound tests use it as the
        degenerate window query.
        """
        return self.range_query(Rect.from_point(point))

    def knn(self, point: Point, k: int) -> List[Tuple[float, int]]:
        """Best-first k-nearest-neighbour search.

        Returns up to *k* pairs ``(distance, oid)`` ordered by increasing
        distance.  This is an extension beyond the paper, included because a
        moving-object index without kNN support would be of limited practical
        use; it shares the same buffered node access as every other operation.
        """
        return list(self.iter_knn(point, k))

    def iter_knn(
        self, point: Point, k: Optional[int] = None
    ) -> Iterator[Tuple[float, int]]:
        """Stream ``(distance, oid)`` pairs in increasing-distance order.

        Incremental best-first search: the traversal expands only as far as
        needed to *prove* the next pair is globally next (no unexplored node
        can contain anything closer), so a consumer that stops after a few
        neighbours pays only those neighbours' I/O.  Ties are broken by oid,
        exactly like the materialised :meth:`knn` — consuming the stream to
        *k* pairs yields the identical answer.

        With a *k* the search is **k-bounded**: it tracks the k-th smallest
        object distance seen so far and never queues an entry (node or
        object) whose minimum distance lies strictly beyond it.  Such an
        entry cannot reach the first *k* pairs, and the unbounded search
        would never have expanded it before the k-th pair either, so the
        nodes read, their order, and the pairs yielded are the same as the
        first *k* of the unbounded stream — only the queues are shorter.
        Entries *at* the bound are kept: an equal-distance object with a
        smaller oid still displaces one already seen.

        With ``k=None`` the stream is unbounded: it ranks every object in
        the tree by distance (distance-browsing semantics).
        """
        if k is not None and k <= 0:
            return
        if self.size == 0:
            return
        push, pop = heapq.heappush, heapq.heappop
        counter = 0
        #: Unexpanded nodes ordered by (min-distance, arrival).
        frontier: List[Tuple[float, int, int]] = [(0.0, counter, self.root_page_id)]
        #: Objects of the expanded leaves ordered by (distance, oid), so
        #: equal-distance results surface in oid order.
        ready: List[Tuple[float, int]] = []
        #: Max-heap (negated) of the k smallest object distances seen; once
        #: it holds k of them its top is the pruning bound.
        nearest: List[float] = []
        bound = float("inf")
        yielded = 0
        while frontier or ready:
            # Expand nodes until the closest unexpanded one lies strictly
            # beyond the closest ready object: only then is that object
            # provably the global next (an equal-distance node could still
            # contain an equal-distance object with a smaller oid).
            while frontier and (not ready or frontier[0][0] <= ready[0][0]):
                node = self.read_node(pop(frontier)[2])
                if node.is_leaf:
                    for pair in node.entry_distances(point):
                        distance = pair[0]
                        if distance > bound:
                            continue
                        push(ready, pair)
                        if k is not None:
                            if len(nearest) < k:
                                push(nearest, -distance)
                            else:
                                heapq.heappushpop(nearest, -distance)
                            if len(nearest) == k:
                                bound = -nearest[0]
                else:
                    for distance, child in node.entry_distances(point):
                        if distance <= bound:
                            counter += 1
                            push(frontier, (distance, counter, child))
            if not ready:
                return
            yield pop(ready)
            yielded += 1
            if yielded == k:
                return

    # ------------------------------------------------------------------
    # Traversal helpers (used by summary construction, validation, stats)
    # ------------------------------------------------------------------
    def iter_nodes(self, charge_io: bool = False) -> Iterator[Tuple[Node, Optional[int]]]:
        """Yield ``(node, parent_page_id)`` for every node in the tree.

        With ``charge_io=False`` (default) nodes are read via
        :meth:`peek_node`, so tests and summary bootstrapping do not disturb
        the I/O counters.
        """
        reader: Callable[[int], Node] = self.read_node if charge_io else self.peek_node
        stack: List[Tuple[int, Optional[int]]] = [(self.root_page_id, None)]
        while stack:
            page_id, parent_id = stack.pop()
            node = reader(page_id)
            yield node, parent_id
            if not node.is_leaf:
                for child in node.child_ids():
                    stack.append((child, page_id))

    def leaf_nodes(self, charge_io: bool = False) -> Iterator[Node]:
        """Yield every leaf node."""
        for node, _ in self.iter_nodes(charge_io=charge_io):
            if node.is_leaf:
                yield node

    def node_count(self) -> Dict[str, int]:
        """Return ``{"leaf": ..., "internal": ...}`` node counts (no I/O charged)."""
        counts = {"leaf": 0, "internal": 0}
        for node, _ in self.iter_nodes():
            counts["leaf" if node.is_leaf else "internal"] += 1
        return counts

    def root_mbr(self) -> Optional[Rect]:
        """MBR of the whole tree, or ``None`` when the tree is empty (no I/O charged).

        From the root's frame when resident, else from its page header alone.
        """
        page_id = self.root_page_id
        root: Optional[Node] = self.buffer.resident(page_id)
        if root is None:
            codec = self.buffer.codec
            if codec is not None:
                return codec.decode_mbr(page_id, self.disk.peek(page_id))
            stored: Node = self.disk.peek(page_id)
            root = stored
        return root.mbr() if len(root) else None

    # ------------------------------------------------------------------
    # Lock-scope planning (used by the concurrent operation engine)
    # ------------------------------------------------------------------
    def predict_visited_leaves(self, rect: Rect) -> List[int]:
        """Leaf pages a top-down search for *rect* would visit (no I/O charged).

        Mirrors the descent criterion of both :meth:`range_query` and the
        delete-side FindLeaf: a child is entered when its entry rectangle
        intersects *rect*, so the returned pages are exactly the leaf
        granules such an operation must lock under DGL.  Planning uses
        uncharged peeks — granule prediction is main-memory work, like DGL's
        own granule table.
        """
        pages: List[int] = []
        stack = [self.root_page_id]
        while stack:
            node = self.peek_node(stack.pop())
            if node.is_leaf:
                pages.append(node.page_id)
            else:
                stack.extend(node.intersecting_children(rect))
        return sorted(pages)

    def predict_insert_leaf(
        self, rect: Rect, start_page_id: Optional[int] = None
    ) -> int:
        """Leaf page a top-down insert of *rect* would descend to (no I/O charged).

        Replays the ChooseLeaf criterion over uncharged peeks, starting at
        the root (or at *start_page_id*, for GBU's bounded ascent which
        re-inserts below an ancestor).  The prediction is exact at the moment
        it is made; a concurrent split can of course reroute the real insert,
        which is why engine lock scopes are recomputed on every dispatch
        attempt.
        """
        node = self.peek_node(
            self.root_page_id if start_page_id is None else start_page_id
        )
        while not node.is_leaf:
            node = self.peek_node(node.choose_subtree_child(rect))
        return node.page_id

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"RTree(size={self.size}, height={self.height}, "
            f"leaf_capacity={self.leaf_capacity}, internal_capacity={self.internal_capacity})"
        )
