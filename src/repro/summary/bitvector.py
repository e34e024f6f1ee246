"""Leaf-fullness bit vector.

Part 2 of the summary structure: one bit per R-tree leaf indicating whether
the leaf is full.  GBU consults it when it considers shifting an object to a
sibling leaf — "the bit vector for the R-tree leaf nodes in the summary
structure indicates whether sibling nodes are full.  This eliminates the need
for additional disk accesses to find a suitable sibling" (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, Iterator


class LeafBitVector:
    """Tracks which leaf pages are full.

    The structure is conceptually a bit vector indexed by leaf offset; since
    the simulated disk hands out arbitrary page ids, it is implemented as a
    mapping from leaf page id to a boolean, with the same O(1) update and
    lookup cost and the same (negligible) memory footprint per leaf.
    """

    def __init__(self) -> None:
        self._full: Dict[int, bool] = {}

    # -- maintenance ----------------------------------------------------------
    def set_fullness(self, leaf_page_id: int, is_full: bool) -> None:
        """Record whether *leaf_page_id* is full."""
        self._full[leaf_page_id] = is_full

    def forget(self, leaf_page_id: int) -> None:
        """Remove *leaf_page_id* (the leaf was deleted)."""
        self._full.pop(leaf_page_id, None)

    # -- queries -----------------------------------------------------------
    def is_full(self, leaf_page_id: int) -> bool:
        """``True`` if the leaf is known to be full.

        Unknown leaves are reported as full: the conservative answer makes
        GBU skip them rather than read them from disk, which can never
        violate correctness (it only forgoes an optimisation).
        """
        return self._full.get(leaf_page_id, True)

    def is_tracked(self, leaf_page_id: int) -> bool:
        return leaf_page_id in self._full

    def __len__(self) -> int:
        return len(self._full)

    def __iter__(self) -> Iterator[int]:
        return iter(self._full)

    def size_bytes(self) -> int:
        """Size of the conceptual bit vector in bytes (one bit per leaf)."""
        return (len(self._full) + 7) // 8
