"""Structural validation of an R-tree.

The invariants checked here are the ones every R-tree variant must preserve
and — crucially for this reproduction — the ones the paper's bottom-up
strategies promise not to break ("the techniques presented can be easily
integrated into R-trees as they preserve the index structure"):

1. every entry of an internal node points to an existing node one level
   below,
2. the MBR stored in a parent entry covers the MBR of the child it points
   to, and the MBR a node reports (:meth:`Node.mbr`, a memo the node
   maintains and the page header persists) is the bound of its entries —
   both judged against a bound recomputed from the entry columns, never
   against the memo itself,
3. every leaf is at level 0 and every root-to-leaf path has the same length,
4. no node exceeds its capacity,
5. non-root nodes satisfy the minimum fill (checked on request, with
   ``check_min_fill``),
6. object ids are unique across leaves,
7. when parent pointers are stored, every leaf's pointer names its actual
   parent.

Validation uses :meth:`RTree.peek_node`, so it never perturbs I/O counters —
tests call it between measured phases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.geometry import Rect, kernels
from repro.rtree.node import Node
from repro.rtree.tree import RTree


class ValidationError(AssertionError):
    """Raised when an R-tree structural invariant is violated."""


def validate_tree(
    tree: RTree,
    check_min_fill: bool = False,
    expected_size: Optional[int] = None,
) -> Dict[str, int]:
    """Check structural invariants; return summary statistics.

    Parameters
    ----------
    tree:
        The tree to validate.
    check_min_fill:
        Also enforce the minimum-fill invariant on non-root nodes.
    expected_size:
        When given, also verify the number of indexed objects.

    Returns
    -------
    dict
        ``{"objects": ..., "leaves": ..., "internals": ..., "height": ...}``.

    Raises
    ------
    ValidationError
        If any invariant does not hold.
    """
    root = tree.peek_node(tree.root_page_id)
    seen_oids: Set[int] = set()
    seen_pages: Set[int] = set()
    stats = {"objects": 0, "leaves": 0, "internals": 0, "height": tree.height}

    leaf_levels: List[int] = []
    _validate_node(
        tree,
        node=root,
        node_mbr=recomputed_mbr(root),
        expected_level=root.level,
        parent_page_id=None,
        is_root=True,
        check_min_fill=check_min_fill,
        seen_oids=seen_oids,
        seen_pages=seen_pages,
        stats=stats,
        depth=0,
        leaf_depths=leaf_levels,
    )

    if root.level != tree.height - 1:
        raise ValidationError(
            f"tree.height is {tree.height} but the root is at level {root.level}"
        )
    if leaf_levels and len(set(leaf_levels)) != 1:
        raise ValidationError(f"leaves found at different depths: {sorted(set(leaf_levels))}")
    if expected_size is not None and stats["objects"] != expected_size:
        raise ValidationError(
            f"tree contains {stats['objects']} objects, expected {expected_size}"
        )
    if tree.size != stats["objects"]:
        raise ValidationError(
            f"tree.size is {tree.size} but {stats['objects']} objects were found"
        )
    return stats


def recomputed_mbr(node: Node) -> Optional[Rect]:
    """The tight bound of *node* swept fresh from its columns (``None`` if empty).

    Raises :class:`ValidationError` when :meth:`Node.mbr` disagrees: a stale
    memo would otherwise vouch for itself in every containment check.
    """
    if not len(node):
        return None
    fresh = kernels.union_rect(node.coords)
    if node.mbr() != fresh:
        raise ValidationError(
            f"node {node.page_id} reports MBR {node.mbr()} but its entries span {fresh}"
        )
    return fresh


def _validate_node(
    tree: RTree,
    node: Node,
    node_mbr: Optional[Rect],
    expected_level: int,
    parent_page_id: Optional[int],
    is_root: bool,
    check_min_fill: bool,
    seen_oids: Set[int],
    seen_pages: Set[int],
    stats: Dict[str, int],
    depth: int,
    leaf_depths: List[int],
) -> None:
    if node.page_id in seen_pages:
        raise ValidationError(f"node {node.page_id} is reachable twice")
    seen_pages.add(node.page_id)

    if node.level != expected_level:
        raise ValidationError(
            f"node {node.page_id} has level {node.level}, expected {expected_level}"
        )

    capacity = tree.capacity_for_level(node.level)
    if len(node) > capacity:
        raise ValidationError(
            f"node {node.page_id} holds {len(node)} entries, capacity {capacity}"
        )
    if check_min_fill and not is_root:
        minimum = tree.min_entries_for_level(node.level)
        if len(node) < minimum:
            raise ValidationError(
                f"node {node.page_id} holds {len(node)} entries, minimum {minimum}"
            )

    if node.is_leaf:
        stats["leaves"] += 1
        leaf_depths.append(depth)
        if tree.store_parent_pointers and parent_page_id is not None:
            if node.parent_page_id != parent_page_id:
                raise ValidationError(
                    f"leaf {node.page_id} has parent pointer {node.parent_page_id}, "
                    f"actual parent {parent_page_id}"
                )
        for oid in node.child_ids():
            if oid in seen_oids:
                raise ValidationError(f"object id {oid} appears in two leaves")
            seen_oids.add(oid)
            stats["objects"] += 1
        return

    stats["internals"] += 1
    if not len(node) and not is_root:
        raise ValidationError(f"internal node {node.page_id} has no entries")
    for entry in node.entries:
        child = tree.peek_node(entry.child)
        child_mbr = recomputed_mbr(child)
        if child_mbr is not None and not entry.rect.contains_rect(child_mbr):
            raise ValidationError(
                f"parent entry MBR {entry.rect} in node {node.page_id} does not cover "
                f"child {child.page_id} MBR {child_mbr}"
            )
        if node_mbr is not None and not node_mbr.contains_rect(entry.rect):
            raise ValidationError(
                f"node {node.page_id} MBR does not cover its own entry for child {entry.child}"
            )
        _validate_node(
            tree,
            node=child,
            node_mbr=child_mbr,
            expected_level=node.level - 1,
            parent_page_id=node.page_id,
            is_root=False,
            check_min_fill=check_min_fill,
            seen_oids=seen_oids,
            seen_pages=seen_pages,
            stats=stats,
            depth=depth + 1,
            leaf_depths=leaf_depths,
        )
