"""STR (Sort-Tile-Recursive) bulk loading.

The paper's experiments start from an index over 1-10 million uniformly /
Gaussian / skewed distributed points and then apply millions of updates.
Building that initial index by repeated top-down insertion is wasteful when
the interesting measurement only begins afterwards, so the benchmark harness
builds the initial tree with the classic STR packing algorithm
(Leutenegger et al.) and resets the I/O counters before the measured phase.

``bulk_load_str`` packs leaves to a configurable *fill factor* (the paper
quotes 66 % node utilisation in its sizing discussion), then packs the next
level on top of the leaf MBRs, and so on until a single root remains.  The
result is a structurally valid :class:`~repro.rtree.tree.RTree` that behaves
exactly like one built by insertion: all observers are notified, so the
secondary hash index and the summary structure can be bootstrapped from it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple, Union

from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node
from repro.rtree.tree import RTree


def _to_rect(location: Union[Point, Rect]) -> Rect:
    return location if isinstance(location, Rect) else Rect.from_point(location)


def bulk_load_str(
    tree: RTree,
    objects: Iterable[Tuple[int, Union[Point, Rect]]],
    fill_factor: float = 0.66,
) -> RTree:
    """Bulk load *objects* (pairs of ``(oid, location)``) into an empty *tree*.

    Parameters
    ----------
    tree:
        A freshly constructed, empty :class:`RTree`.  Loading into a
        non-empty tree is refused: mixing packed and inserted regions would
        violate the balance assumptions of the packing algorithm.
    objects:
        Iterable of ``(object id, Point or Rect)`` pairs.
    fill_factor:
        Target node utilisation in ``(0, 1]``.  The default 0.66 matches the
        utilisation the paper uses for its sizing arguments.
    """
    if tree.size != 0:
        raise ValueError("bulk_load_str requires an empty tree")
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError("fill_factor must be in (0, 1]")

    items = [(oid, _to_rect(location)) for oid, location in objects]
    if not items:
        return tree

    leaf_fanout = max(2, int(tree.leaf_capacity * fill_factor))
    internal_fanout = max(2, int(tree.internal_capacity * fill_factor))

    # -- pack the leaf level -------------------------------------------------
    leaf_entries = [Entry(rect, oid) for oid, rect in items]
    leaves = _pack_level(tree, leaf_entries, level=0, fanout=leaf_fanout)
    tree.size = len(items)

    # -- pack upper levels until a single node remains -------------------------
    level = 1
    nodes = leaves
    while len(nodes) > 1:
        upper_entries = [Entry(node.mbr(), node.page_id) for node in nodes]
        nodes = _pack_level(tree, upper_entries, level=level, fanout=internal_fanout)
        if tree.store_parent_pointers and level == 1:
            for parent in nodes:
                for child_page in parent.child_ids():
                    child = tree.peek_node(child_page)
                    child.parent_page_id = parent.page_id
                    tree.write_node(child)
        level += 1

    # -- install the root -------------------------------------------------------
    old_root_id = tree.root_page_id
    root = nodes[0]
    if root.page_id != old_root_id:
        old_root = tree.peek_node(old_root_id)
        tree._free_node(old_root)
    tree.root_page_id = root.page_id
    tree.height = root.level + 1
    tree.observers.root_changed(tree.root_page_id, tree.height)
    return tree


def _pack_level(
    tree: RTree, entries: Sequence[Entry], level: int, fanout: int
) -> List[Node]:
    """Pack *entries* into nodes of at most *fanout* entries using STR tiling."""
    count = len(entries)
    node_count = math.ceil(count / fanout)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    slice_size = slice_count * fanout

    # Each entry's centre, computed once per level as plain floats; both
    # sorts order entry indices by it (stable, so ties keep input order).
    # The keys are dropped before any node is built, so they never sit
    # under the pages this level allocates.
    centres = [
        ((rect.xmin + rect.xmax) / 2.0, (rect.ymin + rect.ymax) / 2.0)
        for rect, _child in entries
    ]
    by_x = sorted(range(count), key=centres.__getitem__)
    tiles: List[List[Entry]] = []
    for slice_start in range(0, count, slice_size):
        vertical_slice = by_x[slice_start : slice_start + slice_size]
        vertical_slice.sort(key=lambda i: (centres[i][1], centres[i][0]))
        tiles.append([entries[i] for i in vertical_slice])
    del centres, by_x

    nodes: List[Node] = []
    for by_y in tiles:
        for node_start in range(0, len(by_y), fanout):
            node = tree._allocate_node(level)
            node.entries = by_y[node_start : node_start + fanout]
            tree.write_node(node)
            nodes.append(node)
    return _rebalance_tail(tree, nodes, level)


def _rebalance_tail(tree: RTree, nodes: List[Node], level: int) -> List[Node]:
    """Ensure the last packed node satisfies the minimum fill requirement.

    STR tiling can leave a final node with very few entries; such a node
    would immediately violate the R-tree underflow invariant and distort the
    first few measured updates.  When that happens, entries are moved from
    the previous node so both satisfy the minimum.
    """
    if len(nodes) < 2:
        return nodes
    min_entries = tree.min_entries_for_level(level)
    last = nodes[-1]
    if len(last) >= min_entries:
        return nodes
    donor = nodes[-2]
    needed = min_entries - len(last)
    movable = max(0, len(donor) - min_entries)
    to_move = min(needed, movable)
    if to_move > 0:
        donor_entries = donor.entries
        donor.entries = donor_entries[:-to_move]
        last.entries = donor_entries[-to_move:] + last.entries
        tree.write_node(donor)
        tree.write_node(last)
    return nodes
