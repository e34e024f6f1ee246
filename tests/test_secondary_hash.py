"""Tests for the secondary object-ID hash index."""

import random

from repro.geometry import Point
from repro.rtree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout

from tests.conftest import SMALL_PAGE_SIZE, make_points


def tree_with_index(count=300):
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
    points = dict(make_points(count))
    for oid, point in points.items():
        tree.insert(oid, point)
    index = ObjectHashIndex.build_from_tree(tree)
    return tree, index, points, stats


class TestConstruction:
    def test_build_from_tree_indexes_every_object(self):
        tree, index, points, _ = tree_with_index()
        assert len(index) == len(points)
        assert index.consistency_errors(tree) == []

    def test_lookup_returns_the_correct_leaf(self):
        tree, index, points, _ = tree_with_index(count=150)
        for oid, point in points.items():
            leaf_page = index.peek(oid)
            leaf = tree.peek_node(leaf_page)
            assert leaf.find_entry(oid) is not None

    def test_lookup_of_unknown_object_returns_none(self):
        _, index, _, _ = tree_with_index(count=10)
        assert index.lookup(10_000) is None

    def test_contains(self):
        _, index, points, _ = tree_with_index(count=20)
        oid = next(iter(points))
        assert oid in index
        assert 99_999 not in index


class TestIOCharging:
    def test_each_lookup_charges_one_io_by_default(self):
        _, index, points, stats = tree_with_index(count=50)
        before = stats.hash_index_reads
        for oid in list(points)[:10]:
            index.lookup(oid)
        assert stats.hash_index_reads == before + 10

    def test_repeated_lookup_charges_every_time(self):
        _, index, points, stats = tree_with_index(count=50)
        oid = next(iter(points))
        before = stats.hash_index_reads
        for _ in range(3):
            index.lookup(oid)
        assert stats.hash_index_reads == before + 3

    def test_peek_never_charges(self):
        _, index, points, stats = tree_with_index(count=50)
        before = stats.hash_index_reads
        index.peek(next(iter(points)))
        assert stats.hash_index_reads == before

    def test_construction_does_not_charge_io(self):
        stats = IOStatistics()
        disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
        tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
        for oid, point in make_points(200):
            tree.insert(oid, point)
        io_before = stats.total_physical_io
        ObjectHashIndex.build_from_tree(tree)
        assert stats.total_physical_io == io_before


class TestMaintenance:
    def test_stays_consistent_through_inserts(self):
        tree, index, points, _ = tree_with_index(count=100)
        for oid, point in make_points(200, seed=99):
            tree.insert(oid + 10_000, point)
        assert index.consistency_errors(tree) == []

    def test_stays_consistent_through_deletes(self):
        tree, index, points, _ = tree_with_index(count=250)
        for oid, point in list(points.items())[::2]:
            tree.delete(oid, point)
        assert index.consistency_errors(tree) == []

    def test_stays_consistent_through_interleaved_workload(self):
        tree, index, points, _ = tree_with_index(count=200)
        rng = random.Random(17)
        next_oid = 10_000
        for _ in range(600):
            if points and rng.random() < 0.5:
                oid = rng.choice(list(points))
                tree.delete(oid, points.pop(oid))
            else:
                point = Point(rng.random(), rng.random())
                tree.insert(next_oid, point)
                points[next_oid] = point
                next_oid += 1
        assert index.consistency_errors(tree) == []

    def test_deleted_objects_are_forgotten(self):
        tree, index, points, _ = tree_with_index(count=50)
        oid, point = next(iter(points.items()))
        tree.delete(oid, point)
        assert index.peek(oid) is None

    def test_consistency_errors_detect_stale_mapping(self):
        tree, index, points, _ = tree_with_index(count=50)
        oid = next(iter(points))
        index._leaf_of[oid] = 999_999  # corrupt deliberately
        errors = index.consistency_errors(tree)
        assert any(str(oid) in error for error in errors)

    def test_consistency_errors_detect_phantom_object(self):
        tree, index, _points, _ = tree_with_index(count=50)
        index._leaf_of[123_456] = next(iter(tree.leaf_nodes())).page_id
        errors = index.consistency_errors(tree)
        assert any("123456" in error for error in errors)
