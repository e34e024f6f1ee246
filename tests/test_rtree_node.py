"""Unit tests for R-tree nodes and entries."""

import pytest

from repro.geometry import Point, Rect
from repro.rtree import Entry, Node


def leaf_entry(oid: int, x: float, y: float) -> Entry:
    return Entry(Rect.from_point(Point(x, y)), oid)


class TestEntry:
    def test_entry_holds_rect_and_child(self):
        entry = Entry(Rect(0, 0, 1, 1), 42)
        assert entry.child == 42
        assert entry.rect == Rect(0, 0, 1, 1)

    def test_entry_is_an_immutable_value(self):
        entry = Entry(Rect(0, 0, 1, 1), 42)
        with pytest.raises(AttributeError):
            entry.rect = Rect(0, 0, 0.5, 0.5)
        assert entry == Entry(Rect(0, 0, 1, 1), 42)

    def test_repr_mentions_child(self):
        assert "42" in repr(Entry(Rect(0, 0, 1, 1), 42))


class TestNodeBasics:
    def test_leaf_detection(self):
        assert Node(page_id=1, level=0).is_leaf
        assert not Node(page_id=1, level=2).is_leaf

    def test_len_counts_entries(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.1, 0.1)])
        assert len(node) == 1

    def test_add_and_find_entry(self):
        node = Node(page_id=1, level=0)
        node.add_entry(leaf_entry(7, 0.2, 0.3))
        assert node.find_entry(7) is not None
        assert node.find_entry(8) is None

    def test_remove_entry_returns_removed(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(7, 0.2, 0.3)])
        removed = node.remove_entry(7)
        assert removed is not None and removed.child == 7
        assert len(node) == 0

    def test_remove_missing_entry_returns_none(self):
        node = Node(page_id=1, level=0)
        assert node.remove_entry(3) is None

    def test_child_ids(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0, 0), leaf_entry(2, 1, 1)])
        assert node.child_ids() == [1, 2]

    def test_fullness_and_underflow(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(i, 0.1 * i, 0.1) for i in range(4)])
        assert node.is_full(4)
        assert not node.is_full(5)
        assert node.underflows(5)
        assert not node.underflows(4)

    def test_repr_names_leaf_or_internal(self):
        assert "Leaf" in repr(Node(page_id=1, level=0))
        assert "Internal" in repr(Node(page_id=1, level=1))


class TestNodeMBR:
    def test_mbr_covers_all_entries(self):
        node = Node(
            page_id=1,
            level=0,
            entries=[leaf_entry(1, 0.1, 0.9), leaf_entry(2, 0.8, 0.2), leaf_entry(3, 0.5, 0.5)],
        )
        assert node.mbr() == Rect(0.1, 0.2, 0.8, 0.9)

    def test_mbr_of_empty_node_raises(self):
        with pytest.raises(ValueError):
            Node(page_id=1, level=0).mbr()

    def test_effective_mbr_defaults_to_tight(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.3, 0.3)])
        assert node.effective_mbr() == node.mbr()

    def test_effective_mbr_includes_stored_slack(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.3, 0.3)])
        node.stored_mbr = Rect(0.2, 0.2, 0.5, 0.5)
        assert node.effective_mbr() == Rect(0.2, 0.2, 0.5, 0.5)
        # The slack covers the tight bound: the answer is that rectangle,
        # not a new equal one per call.
        assert node.effective_mbr() is node.stored_mbr

    def test_effective_mbr_never_smaller_than_tight(self):
        # The stored MBR can become smaller than the tight bound when entries
        # were added after the slack was recorded; the effective MBR must
        # still cover every entry.
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.9, 0.9)])
        node.stored_mbr = Rect(0.1, 0.1, 0.2, 0.2)
        assert node.effective_mbr().contains_rect(node.mbr())
