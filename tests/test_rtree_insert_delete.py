"""Tests of top-down insertion, deletion, condensing and splits."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree import QuadraticSplit, RTree, validate_tree
from repro.rtree.validation import ValidationError
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout

from tests.conftest import SMALL_PAGE_SIZE, make_points


def make_tree(**kwargs) -> RTree:
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    pool = BufferPool(disk, capacity=0, stats=stats)
    return RTree(pool, layout=PageLayout(page_size=SMALL_PAGE_SIZE), **kwargs)


class TestInsertion:
    def test_insert_increases_size(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        assert len(tree) == 1

    def test_insert_is_findable_by_point_query(self):
        tree = make_tree()
        tree.insert(1, Point(0.25, 0.75))
        assert tree.point_query(Point(0.25, 0.75)) == [1]

    def test_inserting_beyond_capacity_splits_the_root(self):
        tree = make_tree()
        for oid, point in make_points(tree.leaf_capacity + 1):
            tree.insert(oid, point)
        assert tree.height == 2
        validate_tree(tree, expected_size=tree.leaf_capacity + 1)

    def test_many_inserts_keep_structure_valid(self):
        tree = make_tree()
        for oid, point in make_points(500):
            tree.insert(oid, point)
        stats = validate_tree(tree, expected_size=500)
        assert stats["height"] >= 3

    def test_rect_objects_can_be_indexed(self):
        tree = make_tree()
        tree.insert(1, Rect(0.1, 0.1, 0.2, 0.2))
        tree.insert(2, Rect(0.7, 0.7, 0.9, 0.9))
        assert sorted(tree.range_query(Rect(0.0, 0.0, 0.5, 0.5))) == [1]

    def test_clustered_inserts_remain_valid(self):
        tree = make_tree()
        rng = random.Random(5)
        for oid in range(300):
            tree.insert(oid, Point(0.5 + rng.uniform(-0.01, 0.01), 0.5 + rng.uniform(-0.01, 0.01)))
        validate_tree(tree, expected_size=300)

    def test_duplicate_positions_allowed(self):
        tree = make_tree()
        for oid in range(40):
            tree.insert(oid, Point(0.5, 0.5))
        assert sorted(tree.point_query(Point(0.5, 0.5))) == list(range(40))
        validate_tree(tree, expected_size=40)


class TestDeletion:
    def test_delete_removes_object(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        assert tree.delete(1, Point(0.5, 0.5))
        assert tree.point_query(Point(0.5, 0.5)) == []
        assert len(tree) == 0

    def test_delete_missing_object_returns_false(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        assert not tree.delete(2, Point(0.5, 0.5))
        assert len(tree) == 1

    def test_delete_all_objects_empties_tree(self):
        tree = make_tree()
        points = make_points(120)
        for oid, point in points:
            tree.insert(oid, point)
        for oid, point in points:
            assert tree.delete(oid, point)
        assert len(tree) == 0
        assert tree.range_query(Rect.unit()) == []

    def test_delete_shrinks_height_when_possible(self):
        tree = make_tree()
        points = make_points(400)
        for oid, point in points:
            tree.insert(oid, point)
        tall = tree.height
        for oid, point in points[:380]:
            tree.delete(oid, point)
        validate_tree(tree, expected_size=20)
        assert tree.height <= tall

    def test_interleaved_inserts_and_deletes_stay_valid(self):
        tree = make_tree()
        rng = random.Random(9)
        live = {}
        next_oid = 0
        for step in range(800):
            if live and rng.random() < 0.4:
                oid = rng.choice(list(live))
                assert tree.delete(oid, live.pop(oid))
            else:
                point = Point(rng.random(), rng.random())
                tree.insert(next_oid, point)
                live[next_oid] = point
                next_oid += 1
        validate_tree(tree, expected_size=len(live))
        window = Rect(0.2, 0.2, 0.8, 0.8)
        expected = sorted(oid for oid, p in live.items() if window.contains_point(p))
        assert sorted(tree.range_query(window)) == expected

    def test_delete_reinserts_orphans_and_keeps_minimum_fill(self):
        # CondenseTree dissolves underfull nodes and re-inserts their entries,
        # so heavy deletion leaves every node at the minimum fill.
        tree = make_tree()
        points = make_points(200)
        for oid, point in points:
            tree.insert(oid, point)
        for oid, point in points[:150]:
            tree.delete(oid, point)
        validate_tree(tree, check_min_fill=True, expected_size=50)
        for oid, point in points[150:]:
            assert oid in tree.point_query(point)

    def test_delete_from_leaf_requires_membership(self):
        tree = make_tree()
        tree.insert(1, Point(0.5, 0.5))
        leaf = tree.read_node(tree.root_page_id)
        with pytest.raises(LookupError):
            tree.delete_from_leaf(99, leaf, parent_path=[])


class TestParentPointers:
    def test_parent_pointers_maintained_through_inserts(self):
        tree = make_tree(store_parent_pointers=True)
        for oid, point in make_points(400):
            tree.insert(oid, point)
        validate_tree(tree, expected_size=400)  # includes the pointer check

    def test_parent_pointers_maintained_through_deletes(self):
        tree = make_tree(store_parent_pointers=True)
        points = make_points(400)
        for oid, point in points:
            tree.insert(oid, point)
        for oid, point in points[::2]:
            tree.delete(oid, point)
        validate_tree(tree, expected_size=200)

    def test_parent_pointer_mode_reduces_leaf_capacity(self):
        plain = make_tree(store_parent_pointers=False)
        with_pointers = make_tree(store_parent_pointers=True)
        assert with_pointers.leaf_capacity <= plain.leaf_capacity

    def test_parent_pointer_maintenance_costs_extra_io(self):
        """Splitting level-1 nodes must rewrite moved leaves (LBU's overhead)."""
        plain = make_tree(store_parent_pointers=False)
        with_pointers = make_tree(store_parent_pointers=True)
        for tree in (plain, with_pointers):
            for oid, point in make_points(500):
                tree.insert(oid, point)
        assert (
            with_pointers.disk.stats.physical_writes
            > plain.disk.stats.physical_writes
        )


class TestInsertAtSubtree:
    def test_insert_at_root_equivalent_to_insert(self):
        tree = make_tree()
        for oid, point in make_points(200):
            tree.insert(oid, point)
        tree.insert_at_subtree(9999, Point(0.5, 0.5), anchor_page_id=tree.root_page_id)
        assert 9999 in tree.range_query(Rect(0.45, 0.45, 0.55, 0.55))
        validate_tree(tree, expected_size=201)

    def test_insert_below_internal_anchor(self):
        tree = make_tree()
        for oid, point in make_points(300):
            tree.insert(oid, point)
        root = tree.peek_node(tree.root_page_id)
        anchor_entry = root.entries[0]
        target = anchor_entry.rect.center()
        tree.insert_at_subtree(
            7777, target, anchor_page_id=anchor_entry.child, ancestor_path=[tree.root_page_id]
        )
        assert 7777 in tree.point_query(target)
        validate_tree(tree, expected_size=301)

    def test_split_propagates_through_ancestor_path(self):
        """Filling a subtree through insert_at_subtree must propagate splits
        above the anchor using the supplied ancestor path."""
        tree = make_tree()
        for oid, point in make_points(300):
            tree.insert(oid, point)
        root = tree.peek_node(tree.root_page_id)
        anchor_entry = root.entries[0]
        target = anchor_entry.rect.center()
        for extra in range(200):
            tree.insert_at_subtree(
                10_000 + extra,
                target,
                anchor_page_id=anchor_entry.child,
                ancestor_path=[tree.root_page_id],
            )
        validate_tree(tree, expected_size=500)

    def test_descending_to_wrong_level_is_rejected(self):
        tree = make_tree()
        for oid, point in make_points(100):
            tree.insert(oid, point)
        leaf = next(iter(tree.leaf_nodes()))
        with pytest.raises(ValueError):
            tree._choose_path(Rect.from_point(Point(0.5, 0.5)), target_level=3, start_page_id=leaf.page_id)


class TestTraversalHelpers:
    def test_iter_nodes_visits_every_node_once(self):
        tree = make_tree()
        for oid, point in make_points(250):
            tree.insert(oid, point)
        pages = [node.page_id for node, _ in tree.iter_nodes()]
        assert len(pages) == len(set(pages))
        counts = tree.node_count()
        assert len(pages) == counts["leaf"] + counts["internal"]

    def test_node_count_and_leaf_iteration_agree(self):
        tree = make_tree()
        for oid, point in make_points(250):
            tree.insert(oid, point)
        assert sum(1 for _ in tree.leaf_nodes()) == tree.node_count()["leaf"]
        assert sum(1 for _ in tree.internal_nodes()) == tree.node_count()["internal"]

    def test_root_mbr_none_for_empty_tree(self):
        assert make_tree().root_mbr() is None

    def test_root_mbr_covers_all_points(self):
        tree = make_tree()
        points = make_points(100)
        for oid, point in points:
            tree.insert(oid, point)
        mbr = tree.root_mbr()
        for _oid, point in points:
            assert mbr.contains_point(point)

    def test_validation_detects_corruption(self):
        tree = make_tree()
        for oid, point in make_points(150):
            tree.insert(oid, point)
        validate_tree(tree)
        # Corrupt a parent entry MBR through the node's write method.
        root = tree.peek_node(tree.root_page_id)
        assert root.set_rect(root.child_ids()[0], Rect(0.0, 0.0, 1e-6, 1e-6))
        tree.buffer.write(root.page_id, root)
        with pytest.raises(ValidationError):
            validate_tree(tree)

    def test_validation_does_not_trust_the_mbr_memo(self):
        tree = make_tree()
        for oid, point in make_points(150):
            tree.insert(oid, point)
        leaf = next(iter(tree.leaf_nodes()))
        claimed = leaf.mbr()
        # Behind the node's back: the columns move, the memo (what a page
        # header would persist) keeps vouching for the old bound, and the
        # parent entry still covers that.
        leaf.coords[0] = claimed.xmin - 5.0
        assert leaf.mbr() == claimed
        with pytest.raises(ValidationError, match="reports MBR"):
            validate_tree(tree)

    def test_repr_mentions_size_and_height(self):
        tree = make_tree()
        for oid, point in make_points(50):
            tree.insert(oid, point)
        text = repr(tree)
        assert "size=50" in text
        assert "height=" in text
