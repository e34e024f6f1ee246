"""Tests of window queries, point queries and the kNN extension."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect
from repro.rtree import RTree
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout

from tests.conftest import SMALL_PAGE_SIZE, make_points


def tree_of(objects):
    """An unbuffered small-page tree holding *objects* (``(oid, Point)`` pairs)."""
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    tree = RTree(
        BufferPool(disk, capacity=0, stats=stats),
        layout=PageLayout(page_size=SMALL_PAGE_SIZE),
    )
    for oid, point in objects:
        tree.insert(oid, point)
    return tree


def loaded_tree(count=400, seed=7):
    points = dict(make_points(count, seed=seed))
    return tree_of(points.items()), points


class TestRangeQuery:
    def test_matches_brute_force_on_many_windows(self):
        tree, points = loaded_tree()
        rng = random.Random(3)
        for _ in range(50):
            cx, cy, side = rng.random(), rng.random(), rng.uniform(0, 0.3)
            window = Rect(
                max(0, cx - side), max(0, cy - side), min(1, cx + side), min(1, cy + side)
            )
            expected = sorted(oid for oid, p in points.items() if window.contains_point(p))
            assert sorted(tree.range_query(window)) == expected

    def test_whole_space_query_returns_everything(self):
        tree, points = loaded_tree(count=200)
        assert sorted(tree.range_query(Rect.unit())) == sorted(points)

    def test_empty_region_returns_nothing(self):
        tree, _points = loaded_tree(count=100)
        # A sliver outside the unit square cannot contain any object.
        assert tree.range_query(Rect(1.5, 1.5, 1.6, 1.6)) == []

    def test_query_on_empty_tree(self):
        stats = IOStatistics()
        disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
        tree = RTree(BufferPool(disk, 0, stats), layout=PageLayout(page_size=SMALL_PAGE_SIZE))
        assert tree.range_query(Rect.unit()) == []

    def test_boundary_points_are_included(self):
        tree, _ = loaded_tree(count=0)
        tree.insert(1, Point(0.5, 0.5))
        assert tree.range_query(Rect(0.5, 0.5, 0.6, 0.6)) == [1]

    def test_query_counts_io(self):
        tree, _points = loaded_tree(count=400)
        before = tree.disk.stats.physical_reads
        tree.range_query(Rect(0.1, 0.1, 0.4, 0.4))
        assert tree.disk.stats.physical_reads > before


class TestPointQuery:
    def test_point_query_finds_exact_object(self):
        tree, points = loaded_tree(count=150)
        oid, point = next(iter(points.items()))
        assert oid in tree.point_query(point)

    def test_point_query_misses_unoccupied_location(self):
        tree, points = loaded_tree(count=10, seed=1)
        probe = Point(0.987654, 0.123456)
        expected = [oid for oid, p in points.items() if p == probe]
        assert tree.point_query(probe) == expected


class TestKnn:
    def test_knn_matches_brute_force(self):
        tree, points = loaded_tree(count=300)
        rng = random.Random(4)
        for _ in range(10):
            probe = Point(rng.random(), rng.random())
            result = tree.knn(probe, 7)
            brute = sorted((p.distance_to(probe), oid) for oid, p in points.items())[:7]
            assert [oid for _, oid in result] == [oid for _, oid in brute]

    def test_knn_distances_are_sorted(self):
        tree, _points = loaded_tree(count=200)
        result = tree.knn(Point(0.5, 0.5), 15)
        distances = [distance for distance, _ in result]
        assert distances == sorted(distances)

    def test_knn_k_larger_than_population(self):
        tree, points = loaded_tree(count=5, seed=2)
        result = tree.knn(Point(0.5, 0.5), 50)
        assert len(result) == len(points)

    def test_knn_zero_or_negative_k(self):
        tree, _points = loaded_tree(count=20)
        assert tree.knn(Point(0.5, 0.5), 0) == []
        assert tree.knn(Point(0.5, 0.5), -3) == []

    def test_knn_on_empty_tree(self):
        assert tree_of([]).knn(Point(0.5, 0.5), 3) == []


# Few grid positions shared by many objects: equal distances are the norm and
# one position's duplicates spill over several leaves (and, in the larger
# trees, several level-1 nodes), so the oid tie-break and the "keep entries
# *at* the bound" rule — for objects and for nodes — are exercised on almost
# every example instead of almost never.
def _grid_points(side):
    axis = st.integers(min_value=0, max_value=side).map(lambda n: n / side)
    return st.tuples(axis, axis)


def _reads_of_first(tree, point, k, items):
    """Logical reads charged for consuming *items* pairs of ``iter_knn(point, k)``."""
    before = tree.buffer.stats.logical_reads
    pairs = list(itertools.islice(tree.iter_knn(point, k), items))
    return pairs, tree.buffer.stats.logical_reads - before


class TestKnnBounded:
    """``iter_knn(p, k)`` is the first *k* of ``iter_knn(p, None)``, I/O included."""

    @settings(max_examples=40, deadline=None)
    @given(
        # A handful of objects (k often exceeds them), several leaves' worth,
        # or a three-level tree of four positions.
        positions=st.one_of(
            st.lists(_grid_points(3), min_size=1, max_size=12),
            st.lists(_grid_points(3), min_size=40, max_size=160),
            st.lists(_grid_points(1), min_size=130, max_size=260),
        ),
        probe=st.one_of(
            _grid_points(3), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        ),
        k=st.integers(min_value=1, max_value=14),
    )
    def test_bounded_equals_unbounded_prefix(self, positions, probe, k):
        tree = tree_of((oid, Point(x, y)) for oid, (x, y) in enumerate(positions))
        point = Point(*probe)

        everything, all_reads = _reads_of_first(tree, point, None, None)
        assert [oid for _, oid in everything] == [
            oid
            for _, oid in sorted(
                (Rect.from_point(Point(x, y)).min_distance_to_point(point), oid)
                for oid, (x, y) in enumerate(positions)
            )
        ]

        # Full consumption: same pairs, and the I/O of exactly k pairs
        # of distance browsing (of the whole tree when k exceeds it).
        bounded, bounded_reads = _reads_of_first(tree, point, k, None)
        assert bounded == everything[:k]
        if k >= len(positions):
            assert bounded_reads == all_reads
        # Partial consumption: stopping after 1..k pairs costs the same
        # either way — the bound prunes queues, never node reads.
        for items in range(1, min(k, len(positions)) + 1):
            expected = _reads_of_first(tree, point, None, items)
            assert _reads_of_first(tree, point, k, items) == expected
            if items == k:
                assert bounded_reads == expected[1]
