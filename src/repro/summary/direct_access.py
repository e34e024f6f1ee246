"""Direct access table over the R-tree's internal nodes.

Part 1 of the summary structure (Section 3.2): one compact entry per internal
node holding the node's MBR, its level, and the page ids of its children.
Entries are organised by level, mirroring the paper's contiguous per-level
layout, so the `FindParent` ascent can scan "the parent entries in level l".

The table deliberately excludes leaf nodes and the individual child MBRs —
that is what keeps it small (the paper reports a table entry at roughly 20 %
of a node's size and the whole table at roughly 0.16 % of the R-tree).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional

from repro.geometry import Point, Rect


class DirectAccessEntry:
    """Summary entry for one internal R-tree node."""

    __slots__ = ("page_id", "level", "mbr", "child_page_ids")

    def __init__(
        self, page_id: int, level: int, mbr: Rect, child_page_ids: Iterable[int]
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.mbr = mbr
        self.child_page_ids = list(child_page_ids)

    def contains_child(self, page_id: int) -> bool:
        return page_id in self.child_page_ids

    def __repr__(self) -> str:
        return (
            f"DirectAccessEntry(page={self.page_id}, level={self.level}, "
            f"children={len(self.child_page_ids)})"
        )


class DirectAccessTable:
    """Mapping from internal-node page id to its summary entry, organised by level."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectAccessEntry] = {}
        self._by_level: Dict[int, List[int]] = {}
        # Derived reverse mapping child page id -> parent page id.  The paper
        # finds parents by scanning the level's contiguous entries; the
        # reverse map returns the same answer in O(1) (see ``scan_parent_of``
        # for the literal scan, kept for tests and documentation).
        self._parent_of: Dict[int, int] = {}
        self.mbr_updates = 0
        self.entry_insertions = 0
        self.entry_removals = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def upsert(
        self, page_id: int, level: int, mbr: Rect, child_page_ids: Iterable[int]
    ) -> None:
        """Insert the entry for internal node *page_id*, or replace its child list.

        The whole-node registration: it re-derives the node's ``_parent_of``
        keys, so it is for a node whose child list changed (split, condense,
        new root) and for the bulk rebuild.  A write that only moved MBRs
        goes through :meth:`set_mbr`.  The entry keeps its own copy of
        *child_page_ids*.
        """
        existing = self._entries.get(page_id)
        if existing is None:
            entry = DirectAccessEntry(page_id, level, mbr, child_page_ids)
            self._entries[page_id] = entry
            self._by_level.setdefault(level, []).append(page_id)
            self.entry_insertions += 1
        else:
            if existing.level != level:
                self._by_level[existing.level].remove(page_id)
                self._by_level.setdefault(level, []).append(page_id)
                existing.level = level
            if existing.mbr != mbr:
                self.mbr_updates += 1
            for child in existing.child_page_ids:
                if self._parent_of.get(child) == page_id:
                    del self._parent_of[child]
            existing.mbr = mbr
            existing.child_page_ids = list(child_page_ids)
            entry = existing
        for child in entry.child_page_ids:
            self._parent_of[child] = page_id

    def set_mbr(self, page_id: int, mbr: Rect) -> None:
        """Record the MBR of internal node *page_id*, whose child list is unchanged.

        Compare (an unmoved bound is usually the very memo the entry holds)
        and assign: no ``_parent_of`` or ``_by_level`` traffic.
        """
        entry = self._entries[page_id]
        if entry.mbr is not mbr and entry.mbr != mbr:
            entry.mbr = mbr
            self.mbr_updates += 1

    def remove(self, page_id: int) -> None:
        """Remove the entry for *page_id* (the internal node was deleted)."""
        entry = self._entries.pop(page_id, None)
        if entry is None:
            return
        self._by_level[entry.level].remove(page_id)
        if not self._by_level[entry.level]:
            del self._by_level[entry.level]
        for child in entry.child_page_ids:
            if self._parent_of.get(child) == page_id:
                del self._parent_of[child]
        self.entry_removals += 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> Optional[DirectAccessEntry]:
        return self._entries.get(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def levels(self) -> List[int]:
        """Levels present in the table, ascending (2 is the lowest internal
        level with internal children; 1 is the leaf-parent level)."""
        return sorted(self._by_level)

    def entries_at_level(self, level: int) -> Iterator[DirectAccessEntry]:
        """Iterate over the entries of internal nodes at *level*."""
        for page_id in self._by_level.get(level, []):
            yield self._entries[page_id]

    def parent_of(self, page_id: int) -> Optional[DirectAccessEntry]:
        """Entry of the internal node whose child list contains *page_id*."""
        parent_page = self._parent_of.get(page_id)
        if parent_page is None:
            return None
        return self._entries.get(parent_page)

    def scan_parent_of(self, page_id: int, level: int) -> Optional[DirectAccessEntry]:
        """Find the parent of *page_id* by scanning the entries at *level*.

        This is the literal lookup of the paper's Algorithm 3 ("for each
        parent entry whose MBR contains node ... if some child offset matches
        node offset").  It returns the same entry as :meth:`parent_of`; tests
        assert the equivalence.
        """
        for entry in self.entries_at_level(level):
            if entry.contains_child(page_id):
                return entry
        return None

    def entries_containing(self, point: Point, level: int) -> List[DirectAccessEntry]:
        """Entries at *level* whose MBR contains *point* (used in tests/ablations)."""
        return [entry for entry in self.entries_at_level(level) if entry.mbr.contains_point(point)]

    # ------------------------------------------------------------------
    # Consistency checking (tests, ``index.validate()``)
    # ------------------------------------------------------------------
    def consistency_errors(self) -> List[str]:
        """Mismatches between the derived maps and the entries they index.

        ``_parent_of`` must hold exactly one key per child of every entry,
        naming that entry, and ``_by_level`` must list every entry's page
        once, under the entry's level — the state :meth:`parent_of` and
        :meth:`entries_at_level` answer from.
        """
        errors: List[str] = []
        parent_by_entries: Dict[int, int] = {}
        for page_id, entry in self._entries.items():
            for child in entry.child_page_ids:
                if child in parent_by_entries:
                    errors.append(
                        f"page {child} is a child of both entry "
                        f"{parent_by_entries[child]} and entry {page_id}"
                    )
                parent_by_entries[child] = page_id
        for child, parent in parent_by_entries.items():
            recorded = self._parent_of.get(child)
            if recorded != parent:
                errors.append(
                    f"page {child}: parent map says {recorded}, its entry is {parent}"
                )
        for child in self._parent_of:
            if child not in parent_by_entries:
                errors.append(f"parent map keeps page {child}, which is no entry's child")

        listed = Counter(page for pages in self._by_level.values() for page in pages)
        for level, pages in self._by_level.items():
            for page_id in pages:
                entry = self._entries.get(page_id)
                if entry is None:
                    errors.append(f"level {level} lists page {page_id}, which has no entry")
                elif entry.level != level:
                    errors.append(
                        f"page {page_id} of level {entry.level} is listed under level {level}"
                    )
        for page_id in self._entries:
            if listed[page_id] != 1:
                errors.append(
                    f"entry {page_id} is listed {listed[page_id]} times in the level lists"
                )
        return errors

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def size_bytes(self, entry_size: int) -> int:
        """Approximate memory footprint given the per-entry size in bytes."""
        return len(self._entries) * entry_size
