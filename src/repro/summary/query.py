"""Summary-assisted window queries.

Section 3.2 notes that the summary structure can also speed up querying:
"We first check for overlap with the root entry in the direct access table
and then proceed to the next level of internal node entries, looking for
overlaps until the level above the leaf is reached.  Equipped with knowledge
of which index nodes above the leaf level to read from disk, we carry on with
the query as usual."

:func:`summary_guided_range_query` implements that: the descent through the
internal levels happens entirely in memory on the direct access table, so the
only pages read from disk are the level-1 nodes (parents of leaves) that
overlap the window — needed for their children's MBRs — and the overlapping
leaves themselves.  The answer set is identical to
:meth:`repro.rtree.tree.RTree.range_query`; only the number of internal-node
reads differs.

:func:`iter_summary_guided_range_query` streams the disk phase at leaf
granularity, like :meth:`~repro.rtree.tree.RTree.iter_range_query`: each
step reads up to the next leaf that holds a hit and yields that leaf's hits
as one list, which a query cursor flattens with
``itertools.chain.from_iterable``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List

from repro.geometry import Rect
from repro.rtree.tree import RTree
from repro.summary.direct_access import DirectAccessEntry
from repro.summary.structure import SummaryStructure


def summary_guided_range_query(
    tree: RTree, summary: SummaryStructure, window: Rect
) -> List[int]:
    """Answer the window query *window* using the summary structure.

    Returns the object ids whose MBRs intersect *window*.
    """
    return list(chain.from_iterable(iter_summary_guided_range_query(tree, summary, window)))


def iter_summary_guided_range_query(
    tree: RTree, summary: SummaryStructure, window: Rect
) -> Iterator[List[int]]:
    """Stream the summary-guided window query's hits, one leaf's list at a time.

    The in-memory descent over the direct access table runs up front (it
    costs no I/O); the disk phase — reading qualifying level-1 nodes and
    leaves — advances only as the iterator is consumed, one leaf that holds
    a hit per step (empty leaves yield nothing).  Flattened, the lists give
    exactly :func:`summary_guided_range_query`'s materialised order.
    """
    root_entry = summary.root_entry()
    if root_entry is None:
        # The root is a leaf: there are no internal nodes to skip.
        yield from tree.iter_range_query(window)
        return

    if not root_entry.mbr.intersects(window):
        return

    # In-memory descent: find the level-1 nodes (parents of leaves) that can
    # contain qualifying leaves, without reading any internal node from disk.
    frontier = [root_entry]
    while frontier and frontier[0].level > 1:
        next_frontier: List[DirectAccessEntry] = []
        for entry in frontier:
            for child_page in entry.child_page_ids:
                child_entry = summary.table.get(child_page)
                if child_entry is not None and child_entry.mbr.intersects(window):
                    next_frontier.append(child_entry)
        frontier = next_frontier

    # Disk phase: read the qualifying level-1 nodes to obtain leaf MBRs, then
    # the qualifying leaves to obtain the objects.
    for entry in frontier:
        level1_node = tree.read_node(entry.page_id)
        for child_page in level1_node.intersecting_children(window):
            hits = tree.read_node(child_page).intersecting_children(window)
            if hits:
                yield hits
