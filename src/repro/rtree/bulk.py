"""STR (Sort-Tile-Recursive) bulk loading.

The paper's experiments start from an index over 1-10 million uniformly /
Gaussian / skewed distributed points and then apply millions of updates.
Building that initial index by repeated top-down insertion is wasteful when
the interesting measurement only begins afterwards, so the benchmark harness
builds the initial tree with the classic STR packing algorithm
(Leutenegger et al.) and resets the I/O counters before the measured phase.

``bulk_load_str`` packs leaves to a configurable *fill factor* (the paper
quotes 66 % node utilisation in its sizing discussion), then packs the next
level on top of the leaf MBRs, and so on until a single root remains.  It
sorts float tuples and hands each node its run as packed columns, so no
``Rect`` or ``Entry`` is built per object.  The result is a structurally
valid :class:`~repro.rtree.tree.RTree` that behaves exactly like one built
by insertion: all observers are notified, so the secondary hash index and
the summary structure can be bootstrapped from it.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Iterable, List, Sequence, Tuple, Union

from repro.geometry import Point, Rect
from repro.rtree.node import Node
from repro.rtree.tree import RTree

Bounds = Tuple[float, float, float, float]


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

    items = list(objects)
    if not items:
        return tree
    ids = [oid for oid, _location in items]
    bounds = [
        loc.as_tuple() if isinstance(loc, Rect) else (loc.x, loc.y, loc.x, loc.y)
        for _oid, loc in items
    ]

    leaf_fanout = max(2, int(tree.leaf_capacity * fill_factor))
    internal_fanout = max(2, int(tree.internal_capacity * fill_factor))

    # -- pack the leaf level -------------------------------------------------
    nodes = _pack_level(tree, bounds, ids, level=0, fanout=leaf_fanout)
    tree.size = len(ids)

    # -- pack upper levels until a single node remains -------------------------
    level = 1
    while len(nodes) > 1:
        mbrs = [node.mbr().as_tuple() for node in nodes]
        page_ids = [node.page_id for node in nodes]
        nodes = _pack_level(tree, mbrs, page_ids, level=level, fanout=internal_fanout)
        if tree.store_parent_pointers and level == 1:
            for parent in nodes:
                for child_page in parent.children:
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
    tree: RTree, bounds: Sequence[Bounds], ids: Sequence[int], level: int, fanout: int
) -> List[Node]:
    """Pack *bounds* (with *ids*) into nodes of at most *fanout* entries using STR tiling."""
    count = len(ids)
    node_count = math.ceil(count / fanout)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    slice_size = slice_count * fanout

    # Each entry's centre, computed once per level; both sorts order entry
    # positions by it (stable, so ties keep input order).  A slice holds
    # whole nodes, so runs of *fanout* in the sorted order are the nodes.
    # The keys are dropped before any node is built, so they never sit
    # under the pages this level allocates.
    by_x = [((x0 + x1) / 2.0, (y0 + y1) / 2.0) for x0, y0, x1, y1 in bounds]
    by_y = [(y, x) for x, y in by_x]
    order = sorted(range(count), key=by_x.__getitem__)
    for slice_start in range(0, count, slice_size):
        vertical_slice = order[slice_start : slice_start + slice_size]
        vertical_slice.sort(key=by_y.__getitem__)
        order[slice_start : slice_start + slice_size] = vertical_slice
    del by_x, by_y

    coords = array("d", chain.from_iterable([bounds[i] for i in order]))
    children = array("I", [ids[i] for i in order])
    nodes: List[Node] = []
    for i in range(0, count, fanout):
        node = tree._allocate_node(level)
        node.adopt_columns(coords[4 * i : 4 * (i + fanout)], children[i : i + fanout])
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
        coords, children = donor.coords, donor.children
        donor.adopt_columns(coords[: -4 * to_move], children[:-to_move])
        last.adopt_columns(coords[-4 * to_move :] + last.coords, children[-to_move:] + last.children)
        tree.write_node(donor)
        tree.write_node(last)
    return nodes
