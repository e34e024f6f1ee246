"""Page-size driven node sizing.

The paper derives node fan-out from the page size (1 KB pages in the
experiments; the summary-structure sizing discussion uses a 4 KB page with a
fan-out of 204 and 66 % utilisation).  :class:`PageLayout` performs that
derivation so that changing the page size automatically changes the fan-out,
tree height, and summary-structure size in a consistent way.

Entry sizes follow the paper's node format:

* leaf entries  ``(oid, rect)``        — an object id plus a 2-D MBR,
* internal entries ``(ptr, rect)``     — a child pointer plus a 2-D MBR,

with 4-byte identifiers/pointers and 4-byte coordinates (four per MBR).
LBU additionally stores a parent pointer in every leaf node, which consumes
space that would otherwise hold entries; :meth:`PageLayout.leaf_capacity`
models that loss so LBU's reduced fan-out (Section 3.1) is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PageLayout:
    """Translates a page size into leaf / internal node capacities.

    Parameters
    ----------
    page_size:
        Page size in bytes (default 1024, as in the paper's experiments).
    coordinate_size:
        Bytes per MBR coordinate (4 coordinates per 2-D MBR).
    pointer_size:
        Bytes per object id or child pointer.
    header_size:
        Bytes reserved per node for level, entry count, parent pointer, flags
        and the optional ε-enlarged MBR — everything a node stores besides
        its entries in the paper's node format.
    min_fill_factor:
        Minimum node utilisation (fraction of capacity); Guttman suggests
        values between 0.3 and 0.5.  Underflow below this triggers the
        R-tree's condense/reinsert machinery.
    """

    page_size: int = 1024
    coordinate_size: int = 4
    pointer_size: int = 4
    header_size: int = 32
    min_fill_factor: float = 0.4

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.min_fill_factor <= 0 or self.min_fill_factor > 0.5:
            raise ValueError("min_fill_factor must be in (0, 0.5]")
        if self.entry_size <= 0:
            raise ValueError("page layout produces non-positive entry size")
        if self.leaf_capacity(with_parent_pointer=False) < 2:
            raise ValueError("page too small: leaf capacity must be at least 2")
        if self.internal_capacity < 2:
            raise ValueError("page too small: internal capacity must be at least 2")

    # -- entry geometry ------------------------------------------------------
    @property
    def mbr_size(self) -> int:
        """Bytes used by one 2-D MBR (four coordinates)."""
        return 4 * self.coordinate_size

    @property
    def entry_size(self) -> int:
        """Bytes used by one entry: an MBR plus an id/pointer."""
        return self.mbr_size + self.pointer_size

    # -- capacities ------------------------------------------------------------
    def leaf_capacity(self, with_parent_pointer: bool = False) -> int:
        """Maximum number of entries in a leaf node.

        ``with_parent_pointer=True`` models LBU's leaves, which dedicate one
        pointer-sized slot of the page to the parent pointer.
        """
        usable = self.page_size - self.header_size
        if with_parent_pointer:
            usable -= self.pointer_size
        return usable // self.entry_size

    @property
    def internal_capacity(self) -> int:
        """Maximum number of entries in an internal node."""
        usable = self.page_size - self.header_size
        return usable // self.entry_size

    def min_entries(self, capacity: int) -> int:
        """Minimum number of entries before a node underflows."""
        return max(1, int(capacity * self.min_fill_factor))

    # -- summary structure sizing ----------------------------------------------
    @property
    def direct_access_entry_size(self) -> int:
        """Bytes per direct-access-table entry.

        An entry stores the node's MBR, its level, and its child-pointer
        list's location (modelled as two pointers: node offset and first
        child offset).  The paper reports the average entry-to-node size
        ratio at roughly 20 %, which this layout reproduces for 1 KB pages.
        """
        return self.mbr_size + 2 * self.pointer_size + 4  # +4 for the level/flags
