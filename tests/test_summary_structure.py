"""Tests for the summary structure (direct access table + bit vector) as a whole."""

import random

import pytest

from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.rtree import RTree, bulk_load_str
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.summary import SummaryStructure

from tests.conftest import SMALL_PAGE_SIZE, make_points


def tree_with_summary(count=400, bulk=False):
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
    points = dict(make_points(count))
    if bulk:
        bulk_load_str(tree, list(points.items()))
    else:
        for oid, point in points.items():
            tree.insert(oid, point)
    summary = SummaryStructure.build_from_tree(tree)
    return tree, summary, points, stats


class TestBootstrap:
    def test_build_covers_every_internal_node(self):
        tree, summary, _, _ = tree_with_summary()
        assert summary.consistency_errors() == []
        assert len(summary.table) == tree.node_count()["internal"]

    def test_build_covers_every_leaf_in_bit_vector(self):
        tree, summary, _, _ = tree_with_summary()
        assert len(summary.leaf_bits) == tree.node_count()["leaf"]

    def test_build_from_bulk_loaded_tree(self):
        _, summary, _, _ = tree_with_summary(bulk=True)
        assert summary.consistency_errors() == []

    def test_build_charges_no_io(self):
        stats = IOStatistics()
        disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
        tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
        for oid, point in make_points(300):
            tree.insert(oid, point)
        before = stats.total_physical_io
        SummaryStructure.build_from_tree(tree)
        assert stats.total_physical_io == before

    def test_root_entry_and_mbr(self):
        tree, summary, points, _ = tree_with_summary()
        mbr = summary.root_mbr()
        assert mbr is not None
        for point in points.values():
            assert mbr.contains_point(point)

    def test_root_mbr_none_when_root_is_leaf(self):
        tree, summary, _, _ = tree_with_summary(count=3)
        assert tree.height == 1
        assert summary.root_mbr() is None


class TestMaintenance:
    def test_consistent_after_inserts(self):
        tree, summary, _, _ = tree_with_summary(count=200)
        for oid, point in make_points(300, seed=5):
            tree.insert(oid + 10_000, point)
        assert summary.consistency_errors() == []

    def test_consistent_after_deletes(self):
        tree, summary, points, _ = tree_with_summary(count=400)
        for oid, point in list(points.items())[::2]:
            tree.delete(oid, point)
        assert summary.consistency_errors() == []

    def test_consistent_after_interleaved_workload(self):
        tree, summary, points, _ = tree_with_summary(count=250)
        rng = random.Random(21)
        next_oid = 50_000
        for _ in range(700):
            if points and rng.random() < 0.5:
                oid = rng.choice(list(points))
                tree.delete(oid, points.pop(oid))
            else:
                point = Point(rng.random(), rng.random())
                tree.insert(next_oid, point)
                points[next_oid] = point
                next_oid += 1
        assert summary.consistency_errors() == []

    def test_self_check_recomputes_the_mbr_it_compares_against(self):
        tree, summary, _, _ = tree_with_summary(count=200)
        node = next(iter(tree.internal_nodes()))
        assert summary.table.get(node.page_id).mbr == node.mbr()
        # The columns move behind the node's back: memo and table still
        # agree with each other, and neither bounds the entries any more.
        node.coords[0] = node.mbr().xmin - 5.0
        assert summary.table.get(node.page_id).mbr == node.mbr()
        assert f"node {node.page_id}: table MBR is stale" in summary.consistency_errors()

    def test_root_tracking_follows_tree_growth(self):
        stats = IOStatistics()
        disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
        tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
        summary = SummaryStructure.build_from_tree(tree)
        for oid, point in make_points(300):
            tree.insert(oid, point)
        assert summary.root_page_id == tree.root_page_id
        assert summary.height == tree.height

    def test_maintenance_counters_move(self):
        tree, summary, _, _ = tree_with_summary(count=200)
        counters_before = summary.maintenance_counters()
        for oid, point in make_points(200, seed=8):
            tree.insert(oid + 20_000, point)
        counters_after = summary.maintenance_counters()
        assert counters_after["mbr_updates"] >= counters_before["mbr_updates"]
        assert counters_after["entry_insertions"] >= counters_before["entry_insertions"]


class TestDerivedMapsAreValidated:
    """``consistency_errors`` sees the maps ``parent_of`` / ``find_parent`` answer from."""

    def a_level_one_entry(self, summary):
        return next(summary.table.entries_at_level(1))

    def test_missing_parent_key_is_reported(self):
        _tree, summary, _points, _ = tree_with_summary()
        child = self.a_level_one_entry(summary).child_page_ids[0]
        del summary.table._parent_of[child]
        assert any(f"page {child}:" in error for error in summary.consistency_errors())

    def test_parent_key_naming_another_entry_is_reported(self):
        _tree, summary, _points, _ = tree_with_summary()
        first, second = list(summary.table.entries_at_level(1))[:2]
        child = first.child_page_ids[0]
        summary.table._parent_of[child] = second.page_id
        errors = summary.consistency_errors()
        assert any(f"parent map says {second.page_id}" in error for error in errors)

    def test_parent_key_for_a_page_that_is_no_child_is_reported(self):
        _tree, summary, _points, _ = tree_with_summary()
        summary.table._parent_of[987_654] = self.a_level_one_entry(summary).page_id
        assert any("987654" in error for error in summary.consistency_errors())

    def test_level_list_errors_are_reported(self):
        for corrupt, expected in (
            (lambda by_level, page: by_level[1].append(page), "listed 2 times"),
            (lambda by_level, page: by_level[1].remove(page), "listed 0 times"),
            (
                lambda by_level, page: (
                    by_level[1].remove(page),
                    by_level.setdefault(7, []).append(page),
                ),
                "listed under level 7",
            ),
            (lambda by_level, page: by_level[1].append(987_654), "has no entry"),
        ):
            _tree, summary, _points, _ = tree_with_summary()
            corrupt(summary.table._by_level, self.a_level_one_entry(summary).page_id)
            errors = summary.consistency_errors()
            assert any(expected in error for error in errors), (expected, errors)

    def test_index_validate_raises_on_a_stale_parent_map(self):
        index = MovingObjectIndex(IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE))
        index.load(make_points(300))
        index.validate()
        child = next(index.summary.table.entries_at_level(1)).child_page_ids[0]
        del index.summary.table._parent_of[child]
        with pytest.raises(AssertionError, match=f"page {child}"):
            index.validate()


class TestParentAndSiblingLookups:
    def test_parent_entry_of_leaf_matches_tree(self):
        tree, summary, _, _ = tree_with_summary()
        for node, parent_page in tree.iter_nodes():
            if node.is_leaf and parent_page is not None:
                entry = summary.parent_entry_of_leaf(node.page_id)
                assert entry is not None and entry.page_id == parent_page

    def test_sibling_leaves_share_the_parent(self):
        tree, summary, _, _ = tree_with_summary()
        leaf = next(iter(tree.leaf_nodes()))
        siblings = summary.sibling_leaves(leaf.page_id)
        parent = summary.parent_entry_of_leaf(leaf.page_id)
        assert leaf.page_id not in siblings
        for sibling in siblings:
            assert sibling in parent.child_page_ids

    def test_is_leaf_full_matches_reality(self):
        tree, summary, _, _ = tree_with_summary()
        for leaf in tree.leaf_nodes():
            assert summary.is_leaf_full(leaf.page_id) == (
                len(leaf.entries) >= tree.leaf_capacity
            )

    def test_path_from_root(self):
        tree, summary, _, _ = tree_with_summary(count=600)
        assert tree.height >= 3
        leaf = next(iter(tree.leaf_nodes()))
        parent = summary.parent_entry_of_leaf(leaf.page_id)
        path = summary.path_from_root(parent.page_id)
        assert path[0] == tree.root_page_id if path else parent.page_id == tree.root_page_id
        # Walking the path from the root must reach the parent's parent chain.
        rebuilt = path + [parent.page_id]
        for upper, lower in zip(rebuilt, rebuilt[1:]):
            assert lower in summary.table.get(upper).child_page_ids

    def test_path_from_root_of_root_is_empty(self):
        tree, summary, _, _ = tree_with_summary()
        assert summary.path_from_root(tree.root_page_id) == []


class TestFindParent:
    def test_find_parent_returns_covering_ancestor(self):
        tree, summary, _, _ = tree_with_summary(count=600)
        leaf = next(iter(tree.leaf_nodes()))
        target = leaf.mbr().center()  # certainly covered by the direct parent
        ancestor_page, path = summary.find_parent(leaf.page_id, target)
        assert ancestor_page == summary.parent_entry_of_leaf(leaf.page_id).page_id
        assert path == summary.path_from_root(ancestor_page)

    def test_find_parent_ascends_for_distant_targets(self):
        tree, summary, _, _ = tree_with_summary(count=600)
        # Pick a leaf in one corner and a target in the opposite corner: the
        # direct parent usually cannot cover it, so the ascent must go higher.
        corner_leaf = min(
            tree.leaf_nodes(), key=lambda leaf: leaf.mbr().center().distance_to(Point(0, 0))
        )
        target = Point(0.99, 0.99)
        ancestor_page, _path = summary.find_parent(corner_leaf.page_id, target)
        assert ancestor_page is not None
        ancestor = summary.table.get(ancestor_page)
        assert ancestor.mbr.contains_point(target) or ancestor_page == tree.root_page_id

    def test_level_threshold_zero_forbids_ascent(self):
        tree, summary, _, _ = tree_with_summary(count=600)
        leaf = next(iter(tree.leaf_nodes()))
        ancestor, path = summary.find_parent(
            leaf.page_id, Point(0.5, 0.5), level_threshold=0
        )
        assert ancestor is None
        assert path == []

    def test_level_threshold_one_only_considers_direct_parent(self):
        tree, summary, _, _ = tree_with_summary(count=600)
        leaf = next(iter(tree.leaf_nodes()))
        parent = summary.parent_entry_of_leaf(leaf.page_id)
        inside = parent.mbr.center()
        ancestor, _ = summary.find_parent(leaf.page_id, inside, level_threshold=1)
        assert ancestor == parent.page_id
        # A point far outside the parent MBR cannot be resolved within one level
        # unless that parent happens to span the whole space.
        outside = Point(0.999, 0.999)
        if not parent.mbr.contains_point(outside):
            ancestor, _ = summary.find_parent(leaf.page_id, outside, level_threshold=1)
            assert ancestor is None

    def test_find_parent_of_root_leaf_returns_none(self):
        tree, summary, _, _ = tree_with_summary(count=3)
        ancestor, path = summary.find_parent(tree.root_page_id, Point(0.5, 0.5))
        assert ancestor is None and path == []


class TestSizing:
    def test_summary_is_a_small_fraction_of_the_tree(self):
        tree, summary, _, _ = tree_with_summary(count=800)
        ratio = summary.size_ratio_to_tree()
        assert 0.0 < ratio < 0.05

    def test_size_bytes_positive(self):
        _, summary, _, _ = tree_with_summary(count=200)
        assert summary.size_bytes() > 0
