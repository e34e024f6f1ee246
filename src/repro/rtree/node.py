"""R-tree nodes and entries.

The node format follows the paper's Section 2:

* **Leaf nodes** contain entries ``(oid, rect)`` where *oid* identifies the
  data object and *rect* is its MBR (a degenerate rectangle for the moving
  points used in the experiments).
* **Non-leaf nodes** contain entries ``(ptr, rect)`` where *ptr* is the page
  id of a child node and *rect* bounds all MBRs in that child.

A node occupies exactly one disk page.  Levels are counted from the leaves:
level 0 is the leaf level and the root has level ``height - 1``.

LBU (Section 3.1) additionally stores a parent pointer in every leaf node;
:attr:`Node.parent_page_id` holds it when the tree is configured with
``store_parent_pointers=True``.  GBU never uses parent pointers.

Physically a :class:`Node` is columnar: the entry MBRs live in one flat
``array('d')`` (stride 4: xmin, ymin, xmax, ymax) and the entry ids in one
``array('I')``.  The geometric hot paths sweep those buffers with the batch
kernels in :mod:`repro.geometry.kernels`, whose arithmetic mirrors the scalar
:class:`~repro.geometry.rect.Rect` predicates operation for operation, and
the page codec (:class:`~repro.storage.serialization.NodeCodec`) moves them
to and from page images with ``tobytes``/``frombytes``.

One rule governs access: **entries read out of a node are immutable values;
a node is written only through its own methods** (:meth:`Node.add_entry`,
:meth:`Node.set_rect` / ``set_point`` / ``widen``, the removal methods,
:attr:`Node.entries`, :meth:`Node.adopt_columns`) or built by the page codec.
Because of it a node can keep two pieces of state about its own columns
current at the cost of what a write changed, not the fan-out:

* its **membership delta** (:attr:`Node.arrived`): which ids entered since the
  node was last written.  The tree's write event hands that to the observers
  (:mod:`repro.rtree.observers`), which apply only the delta to the hash
  index and the summary.
* its **tight MBR** (:meth:`Node.mbr`): every write method adjusts the
  memoised bound by the rectangle that came or went — an arrival is unioned
  in, a departure from the interior leaves it alone, and only a rectangle
  that leaves the boundary drops the memo, which the next :meth:`Node.mbr`
  rebuilds with one sweep.  The page codec stores the bound in the page
  header and seeds a decoded node with it, so a node fresh from the disk
  answers "is this point inside my MBR" without touching its entries.
  Nothing outside the validators re-derives it, so
  :func:`repro.rtree.validation.validate_tree` checks it against the columns.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.geometry import Point, Rect, kernels


class Entry(NamedTuple):
    """A node entry as a value: an MBR plus either an object id or a child page id.

    Immutable — assigning to a field raises ``AttributeError``.  An entry
    read out of a node is a copy of that slot; change the node with
    :meth:`Node.set_rect`.
    """

    rect: Rect
    child: int


class Node:
    """An R-tree node stored on one disk page.

    Parameters
    ----------
    page_id:
        Identifier of the page holding this node.
    level:
        Distance from the leaf level; ``0`` for leaves.
    entries:
        Initial entries (see :class:`Entry`), packed into the columns.
    parent_page_id:
        Page id of the parent node; only maintained for leaves when the tree
        stores parent pointers (the LBU configuration).
    stored_mbr:
        The leaf MBR as recorded in the parent's entry, when an update
        strategy has deliberately enlarged it beyond the tight bound of the
        entries (the ε-enlargement of Section 3.1/3.2).  ``None`` means the
        tight bound applies.  :meth:`effective_mbr` folds it in.

    The columns are :attr:`coords` and :attr:`children`; entry ids must fit
    an unsigned 32-bit slot, matching the paper's 4-byte pointers
    (:class:`~repro.storage.sizing.PageLayout`).

    :attr:`arrived` is the membership delta since the last write: ``None``
    while no entry came or went (:meth:`set_rect` alone never touches it),
    otherwise the ids that entered and are still here — empty when entries
    only left.  A node fresh from the constructor or the :attr:`entries`
    setter reports every id ("everything is new");
    :meth:`RTree.write_node <repro.rtree.tree.RTree.write_node>` resets it to
    ``None`` once the observers have seen it, and the page codec hands back
    decoded nodes with ``None``.  It is never part of the page image.
    """

    __slots__ = (
        "page_id",
        "level",
        "parent_page_id",
        "stored_mbr",
        "coords",
        "children",
        "arrived",
        "_mbr",
    )

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: Optional[Iterable[Entry]] = None,
        parent_page_id: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.parent_page_id = parent_page_id
        self.stored_mbr: Optional[Rect] = None
        #: Memoised union of all entry MBRs; ``None`` = not known (or empty).
        #: Safe because the columns are written only by this class's methods,
        #: each of which adjusts it by the rectangle that came or went.
        self._mbr: Optional[Rect] = None
        self.entries = entries or ()  # creates the columns

    # -- classification -----------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    # -- entries as values ----------------------------------------------------
    @property
    def entries(self) -> List[Entry]:
        """The entries as a fresh list of values, in entry order.

        Assigning an iterable of entries replaces the node's content (node
        split); the bulk loader hands over packed columns instead.
        """
        return self.materialized_entries()

    @entries.setter
    def entries(self, value: Iterable[Entry]) -> None:
        coords = array("d")
        children = array("I")
        for entry in value:
            rect = entry.rect
            coords.extend((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
            children.append(entry.child)
        self.adopt_columns(coords, children)

    def adopt_columns(self, coords: array[float], children: array[int]) -> None:
        """Replace the content with packed columns (four bounds per id), taken as they are."""
        self.coords = coords
        self.children = children
        self.arrived: Optional[List[int]] = children.tolist()
        self._mbr = None

    def materialized_entries(self) -> List[Entry]:
        """The entries as a plain list (safe to hold across node mutations)."""
        it = iter(self.coords)
        raw = Rect._raw
        return [
            Entry(raw(xmin, ymin, xmax, ymax), child)
            for xmin, ymin, xmax, ymax, child in zip(it, it, it, it, self.children)
        ]

    def __len__(self) -> int:
        return len(self.children)

    def add_entry(self, entry: Entry) -> None:
        rect = entry.rect
        children = self.children
        mbr = self._mbr
        if mbr is not None:
            if (
                rect.xmin < mbr.xmin
                or rect.ymin < mbr.ymin
                or rect.xmax > mbr.xmax
                or rect.ymax > mbr.ymax
            ):
                self._mbr = mbr.union(rect)
        elif not children:
            self._mbr = rect  # the first entry is the bound
        self.coords.extend((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
        children.append(entry.child)
        if self.arrived is None:
            self.arrived = [entry.child]
        else:
            self.arrived.append(entry.child)

    def _index_of(self, child: int) -> int:
        """Position of the entry for *child*, or ``-1`` when absent."""
        try:
            return self.children.index(child)
        except ValueError:
            return -1

    def _delete_at(self, index: int) -> None:
        if self.arrived is None:
            self.arrived = []
        elif self.arrived:
            # An id that entered and left between two writes never arrived.
            try:
                self.arrived.remove(self.children[index])
            except ValueError:
                pass
        del self.children[index]
        coords = self.coords
        base = 4 * index
        mbr = self._mbr
        if mbr is not None and (
            coords[base] == mbr.xmin
            or coords[base + 1] == mbr.ymin
            or coords[base + 2] == mbr.xmax
            or coords[base + 3] == mbr.ymax
        ):
            # The rectangle held a side of the bound, which may now shrink.
            self._mbr = None
        del coords[base : base + 4]

    def find_entry(self, child: int) -> Optional[Entry]:
        """The entry whose object id / child pointer equals *child*, if any.

        Nothing in the engine calls it; it stays because the end-to-end
        tracer (``benchmarks/e2e/tracing.py``) wraps it by name.
        """
        index = self._index_of(child)
        return self.entry_at(index) if index >= 0 else None

    def set_rect(self, child: int, rect: Rect) -> bool:
        """Overwrite the MBR stored for *child*; ``True`` when it differed.

        Raises ``LookupError`` when the node holds no entry for *child*.
        """
        return self._write(self._base_of(child), rect.xmin, rect.ymin, rect.xmax, rect.ymax)

    def set_point(self, child: int, point: Point) -> bool:
        """:meth:`set_rect` to the degenerate rectangle at *point*."""
        x, y = point.x, point.y
        return self._write(self._base_of(child), x, y, x, y)

    def widen(self, child: int, rect: Rect) -> bool:
        """Grow the MBR stored for *child* to cover *rect*; ``True`` when it grew."""
        base = self._base_of(child)
        coords = self.coords
        return self._write(
            base,
            min(coords[base], rect.xmin),
            min(coords[base + 1], rect.ymin),
            max(coords[base + 2], rect.xmax),
            max(coords[base + 3], rect.ymax),
        )

    def _base_of(self, child: int) -> int:
        """Offset in :attr:`coords` of *child*'s entry; ``LookupError`` when absent."""
        try:
            return 4 * self.children.index(child)
        except ValueError:
            raise LookupError(f"entry {child} not found in node {self.page_id}") from None

    def _write(self, base: int, xmin: float, ymin: float, xmax: float, ymax: float) -> bool:
        """The one in-place write: the entry at *base* gets new bounds, memo kept current."""
        coords = self.coords
        old_xmin = coords[base]
        old_ymin = coords[base + 1]
        old_xmax = coords[base + 2]
        old_ymax = coords[base + 3]
        if old_xmin == xmin and old_ymin == ymin and old_xmax == xmax and old_ymax == ymax:
            return False
        coords[base] = xmin
        coords[base + 1] = ymin
        coords[base + 2] = xmax
        coords[base + 3] = ymax
        mbr = self._mbr
        if mbr is not None:
            mxmin, mymin, mxmax, mymax = mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax
            if (
                (old_xmin == mxmin and xmin > mxmin)
                or (old_ymin == mymin and ymin > mymin)
                or (old_xmax == mxmax and xmax < mxmax)
                or (old_ymax == mymax and ymax < mymax)
            ):
                # The old rectangle held a side the new one no longer
                # reaches: the bound may shrink, only a sweep can tell.
                self._mbr = None
            elif xmin < mxmin or ymin < mymin or xmax > mxmax or ymax > mymax:
                self._mbr = Rect._raw(
                    min(mxmin, xmin), min(mymin, ymin), max(mxmax, xmax), max(mymax, ymax)
                )
        return True

    def remove_entry(self, child: int) -> Optional[Entry]:
        """Remove and return the entry for *child*, or ``None`` if absent."""
        index = self._index_of(child)
        return self.pop_entry_at(index) if index >= 0 else None

    def discard_entry(self, child: int) -> bool:
        """Remove the entry for *child*; ``True`` when one was present.

        Like :meth:`remove_entry` without building the :class:`Entry` the
        caller would throw away.
        """
        index = self._index_of(child)
        if index >= 0:
            self._delete_at(index)
        return index >= 0

    def has_child(self, child: int) -> bool:
        """``True`` when an entry for *child* exists."""
        return child in self.children

    def entry_at(self, index: int) -> Entry:
        """The entry at position *index* (entry order)."""
        return Entry(Rect._raw(*self.entry_bounds_at(index)), self.children[index])

    def entry_bounds_at(self, index: int) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the entry at *index*."""
        base = 4 * index
        coords = self.coords
        return (coords[base], coords[base + 1], coords[base + 2], coords[base + 3])

    def pop_entry_at(self, index: int) -> Entry:
        """Remove and return the entry at position *index*."""
        entry = self.entry_at(index)
        self._delete_at(index)
        return entry

    def child_ids(self) -> List[int]:
        """Object ids (leaf) or child page ids (internal) of all entries."""
        return list(self.children)

    def is_full(self, capacity: int) -> bool:
        return len(self.children) >= capacity

    def underflows(self, min_entries: int) -> bool:
        return len(self.children) < min_entries

    # -- geometry ----------------------------------------------------------
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries.

        Memoised and kept current by the write methods (see the module
        docstring); sweeps the columns only when no bound is known — after
        :attr:`entries` was assigned or a rectangle left the boundary.
        Raises ``ValueError`` for an empty node; only a brand-new empty root
        has no MBR and callers never ask for it.
        """
        mbr = self._mbr
        if mbr is None:
            mbr = self._mbr = Rect._raw(*kernels.union_bounds(self.coords))
        return mbr

    def effective_mbr(self) -> Rect:
        """The node's MBR including any deliberate ε-enlargement.

        The bottom-up strategies may record an enlarged MBR in
        :attr:`stored_mbr` (mirroring the rectangle kept in the parent's
        entry); the effective MBR is the union of that slack and the tight
        bound of the current entries, so it is always a valid bound.  An
        ε-extension covers the tight bound by construction, and then the
        answer is :attr:`stored_mbr` itself, not a new equal rectangle.
        """
        tight = self.mbr()
        stored = self.stored_mbr
        if stored is None:
            return tight
        if stored.contains_rect(tight):
            return stored
        return stored.union(tight)

    # -- batch scans (kernel-backed hot paths) -------------------------------
    def intersecting_children(self, window: Rect) -> List[int]:
        """Entry ids whose MBR intersects *window*, in entry order.

        A node whose memoised MBR lies inside *window* answers every id
        without a scan.  That is exact: the memo is either ``None`` or the
        union of every entry, so each entry lies inside the window too.  The
        memo is read as it is, never rebuilt here (a rebuild is a sweep the
        scan would not have made), and the answer is a fresh list, so a
        half-read query cursor holding it is safe from later writes.
        """
        mbr = self._mbr
        if (
            mbr is not None
            and window.xmin <= mbr.xmin
            and window.ymin <= mbr.ymin
            and mbr.xmax <= window.xmax
            and mbr.ymax <= window.ymax
        ):
            return self.children.tolist()
        return kernels.intersects_ids(
            self.coords,
            self.children,
            window.xmin,
            window.ymin,
            window.xmax,
            window.ymax,
        )

    def contains_point_children(self, point: Point) -> List[int]:
        """Entry ids whose MBR contains *point*, in entry order."""
        return kernels.contains_point_ids(
            self.coords, self.children, point.x, point.y
        )

    def contained_entry_indices(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> List[int]:
        """Positions of entries whose MBR lies entirely inside the window.

        Same predicate as :meth:`Rect.contains_rect` with the window as the
        container; the piggyback scan uses this to find movable objects.
        """
        return kernels.contained_in_many(self.coords, xmin, ymin, xmax, ymax)

    def choose_subtree_child(self, rect: Rect) -> int:
        """Guttman's ChooseLeaf pick: least enlargement, ties by least area.

        First entry wins exact ties, like the sequential scan the R-tree has
        always used.  Raises ``LookupError`` on an empty node.
        """
        if not self.children:
            raise LookupError("cannot choose a subtree in an empty internal node")
        index = kernels.argmin_enlargement(
            self.coords, rect.xmin, rect.ymin, rect.xmax, rect.ymax
        )
        return self.children[index]

    def entry_distances(self, point: Point) -> List[Tuple[float, int]]:
        """``(min_distance, child)`` per entry, in entry order (kNN batch)."""
        distances = kernels.min_distance_many(self.coords, point.x, point.y)
        return list(zip(distances, self.children))

    # -- debugging ------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "Leaf" if self.is_leaf else "Internal"
        return (
            f"{kind}Node(page={self.page_id}, level={self.level}, "
            f"entries={len(self.children)})"
        )


# benchmarks/e2e/tracing.py (frozen) wraps the node layer by these two names:
# ``PackedNode.<method>`` looked up in the class's own ``vars()``, and
# ``make_node`` as a plain module-level function.
PackedNode = Node


def make_node(page_id: int, level: int) -> Node:
    """Construct an empty node (the tree's allocation point for new nodes)."""
    return Node(page_id=page_id, level=level)
