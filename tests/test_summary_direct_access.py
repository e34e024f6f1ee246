"""Tests for the direct access table."""

from repro.geometry import Rect
from repro.summary import DirectAccessTable


def rect(x0, y0, x1, y1):
    return Rect(x0, y0, x1, y1)


class TestUpsertAndLookup:
    def test_insert_and_get(self):
        table = DirectAccessTable()
        table.upsert(10, level=1, mbr=rect(0, 0, 0.5, 0.5), child_page_ids=[1, 2, 3])
        entry = table.get(10)
        assert entry is not None
        assert entry.level == 1
        assert entry.child_page_ids == [1, 2, 3]
        assert 10 in table
        assert len(table) == 1

    def test_get_missing_returns_none(self):
        assert DirectAccessTable().get(5) is None

    def test_upsert_updates_in_place(self):
        table = DirectAccessTable()
        table.upsert(10, 1, rect(0, 0, 0.5, 0.5), [1, 2])
        table.upsert(10, 1, rect(0, 0, 0.7, 0.7), [1, 2, 4])
        entry = table.get(10)
        assert entry.mbr == rect(0, 0, 0.7, 0.7)
        assert entry.child_page_ids == [1, 2, 4]
        assert len(table) == 1
        assert table.entry_insertions == 1
        assert table.mbr_updates == 1

    def test_unchanged_mbr_is_not_counted_as_update(self):
        table = DirectAccessTable()
        table.upsert(10, 1, rect(0, 0, 0.5, 0.5), [1])
        table.upsert(10, 1, rect(0, 0, 0.5, 0.5), [1, 2])
        assert table.mbr_updates == 0

    def test_remove(self):
        table = DirectAccessTable()
        table.upsert(10, 1, rect(0, 0, 0.5, 0.5), [1])
        table.remove(10)
        assert table.get(10) is None
        assert table.entry_removals == 1
        assert list(table.entries_at_level(1)) == []

    def test_remove_missing_is_silent(self):
        DirectAccessTable().remove(99)

    def test_level_change_moves_entry_between_levels(self):
        table = DirectAccessTable()
        table.upsert(10, 1, rect(0, 0, 1, 1), [1])
        table.upsert(10, 2, rect(0, 0, 1, 1), [1])
        assert [e.page_id for e in table.entries_at_level(2)] == [10]
        assert list(table.entries_at_level(1)) == []


class TestLevelOrganisation:

    def test_entries_at_level(self):
        table = DirectAccessTable()
        table.upsert(11, 1, rect(0, 0, 0.5, 1), [1])
        table.upsert(12, 1, rect(0.5, 0, 1, 1), [2])
        table.upsert(20, 2, rect(0, 0, 1, 1), [11, 12])
        assert sorted(e.page_id for e in table.entries_at_level(1)) == [11, 12]


class TestParentLookup:
    def build(self):
        table = DirectAccessTable()
        table.upsert(11, 1, rect(0, 0, 0.5, 1), [1, 2])
        table.upsert(12, 1, rect(0.5, 0, 1, 1), [3, 4])
        table.upsert(20, 2, rect(0, 0, 1, 1), [11, 12])
        return table

    def test_parent_of_leaf_page(self):
        table = self.build()
        assert table.parent_of(3).page_id == 12

    def test_parent_of_internal_page(self):
        table = self.build()
        assert table.parent_of(11).page_id == 20

    def test_parent_of_root_is_none(self):
        table = self.build()
        assert table.parent_of(20) is None

    def test_scan_parent_matches_reverse_map(self):
        table = self.build()
        for child, level in ((1, 1), (2, 1), (3, 1), (4, 1), (11, 2), (12, 2)):
            # The literal lookup of the paper's Algorithm 3: scan the level.
            scanned = next(
                entry
                for entry in table.entries_at_level(level)
                if child in entry.child_page_ids
            )
            direct = table.parent_of(child)
            assert scanned.page_id == direct.page_id

    def test_parent_map_updated_when_children_move(self):
        table = self.build()
        # Leaf 2 moves from node 11 to node 12 (as after a shift/split).
        table.upsert(11, 1, rect(0, 0, 0.5, 1), [1])
        table.upsert(12, 1, rect(0.5, 0, 1, 1), [2, 3, 4])
        assert table.parent_of(2).page_id == 12


class TestSizing:
    def test_size_bytes_scales_with_entries(self):
        table = DirectAccessTable()
        for page in range(10):
            table.upsert(page, 1, rect(0, 0, 1, 1), [100 + page])
        assert table.size_bytes(entry_size=28) == 280
