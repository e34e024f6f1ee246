"""Observer protocol for R-tree structural events.

The bottom-up update strategies rely on auxiliary structures that must track
the R-tree as it changes:

* the **secondary object-ID index** (hash table: object id -> leaf page id)
  used by LBU and GBU to reach a leaf directly, and
* the **main-memory summary structure** (direct access table over internal
  nodes + leaf-fullness bit vector) used by GBU.

Rather than scattering maintenance calls throughout the tree and the update
strategies, the tree emits events whenever a node is created, written, or
deleted, and whenever the root changes.  Auxiliary structures implement
:class:`TreeObserver` and register themselves with the tree; they then stay
consistent regardless of which code path (top-down insert, bottom-up shift,
bulk load, condense, ...) modified the index.

**The write event says what changed.**  ``on_node_written(node)`` fires on
every :meth:`RTree.write_node <repro.rtree.tree.RTree.write_node>`, and
``node.arrived`` (:attr:`~repro.rtree.node.Node.arrived`) is the node's
membership delta since its previous write event:

* ``None`` — no entry came or went; at most entry MBRs (and so the node's own
  MBR) moved.  An in-place or ε-extended update writes its leaf like this.
* a list — the ids that entered the node and are still in it; empty when
  entries only left.  A node that was just created, split or bulk-loaded
  (its entries were assigned wholesale) lists every id.

Ids that left are not listed: whoever took an id out either put it into
another node, whose own event reports the arrival, or removed the object
(``on_object_removed``), or freed the node (``on_node_deleted``).  The tree
resets the delta after the fan-out and a node decoded from its page starts
with ``None``, so an observer that was consistent with a node at its last
write stays consistent by applying the delta — work proportional to the
entries that changed, which is what the paper's Section 3.2 assumes when it
calls the summary and the secondary index cheap to maintain.  An observer
that has *not* seen a node's earlier writes (it attaches to a populated tree,
or the tree was restored from page images) must first register every node
whole from a traversal: ``ObjectHashIndex.rebuild_from_tree`` and
``SummaryStructure.rebuild_from_tree`` are that bulk path.

Observer callbacks are main-memory work: they never touch the buffer pool or
the disk and therefore never affect the I/O metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtree.node import Node


class TreeObserver:
    """Base class with no-op handlers for every tree event.

    Subclasses override only what they need.
    """

    def on_node_created(self, node: "Node") -> None:
        """A node was allocated (it may still be empty)."""

    def on_node_written(self, node: "Node") -> None:
        """A node was written to its page; ``node.arrived`` is its membership
        delta since the previous write event (see the module docstring)."""

    def on_node_deleted(self, node: "Node") -> None:
        """A node was removed from the tree and its page freed."""

    def on_root_changed(self, root_page_id: int, height: int) -> None:
        """The root page id and/or tree height changed."""

    def on_object_removed(self, oid: int) -> None:
        """An object was removed from the index entirely (not re-inserted)."""


class ObserverList:
    """A tiny multiplexer that forwards events to all registered observers."""

    def __init__(self) -> None:
        self._observers: List[TreeObserver] = []

    def register(self, observer: TreeObserver) -> None:
        if observer not in self._observers:
            self._observers.append(observer)

    def unregister(self, observer: TreeObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def __iter__(self) -> Iterator[TreeObserver]:
        return iter(self._observers)

    def __len__(self) -> int:
        return len(self._observers)

    # -- event fan-out ------------------------------------------------------
    def node_created(self, node: "Node") -> None:
        for observer in self._observers:
            observer.on_node_created(node)

    def node_written(self, node: "Node") -> None:
        for observer in self._observers:
            observer.on_node_written(node)

    def node_deleted(self, node: "Node") -> None:
        for observer in self._observers:
            observer.on_node_deleted(node)

    def root_changed(self, root_page_id: int, height: int) -> None:
        for observer in self._observers:
            observer.on_root_changed(root_page_id, height)

    def object_removed(self, oid: int) -> None:
        for observer in self._observers:
            observer.on_object_removed(oid)
