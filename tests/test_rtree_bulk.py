"""Tests for STR bulk loading."""

import math
import random

import pytest

from repro.geometry import Point, Rect
from repro.rtree import Entry, RTree, bulk_load_str, validate_tree
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.storage.serialization import NodeCodec

from tests.conftest import SMALL_PAGE_SIZE, make_points


def fresh_tree(**kwargs):
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    pool = BufferPool(disk, capacity=0, stats=stats)
    return RTree(pool, layout=PageLayout(page_size=SMALL_PAGE_SIZE), **kwargs)


class TestBulkLoadStructure:
    def test_loaded_tree_is_valid_and_well_filled(self):
        tree = fresh_tree()
        objects = make_points(800)
        bulk_load_str(tree, objects)
        stats = validate_tree(tree, expected_size=800, check_min_fill=True)
        assert stats["objects"] == 800

    def test_loading_empty_iterable_is_a_noop(self):
        tree = fresh_tree()
        bulk_load_str(tree, [])
        assert len(tree) == 0
        assert tree.height == 1

    def test_single_object(self):
        tree = fresh_tree()
        bulk_load_str(tree, [(1, Point(0.5, 0.5))])
        assert tree.point_query(Point(0.5, 0.5)) == [1]
        validate_tree(tree, expected_size=1)

    def test_loading_into_non_empty_tree_is_rejected(self):
        tree = fresh_tree()
        tree.insert(1, Point(0.1, 0.1))
        with pytest.raises(ValueError):
            bulk_load_str(tree, make_points(10))

    def test_invalid_fill_factor_rejected(self):
        tree = fresh_tree()
        with pytest.raises(ValueError):
            bulk_load_str(tree, make_points(10), fill_factor=0.0)
        with pytest.raises(ValueError):
            bulk_load_str(fresh_tree(), make_points(10), fill_factor=1.5)

    def test_bulk_load_with_parent_pointers(self):
        tree = fresh_tree(store_parent_pointers=True)
        bulk_load_str(tree, make_points(600))
        validate_tree(tree, expected_size=600)  # includes parent-pointer checks

    def test_rect_objects_supported(self):
        tree = fresh_tree()
        rng = random.Random(2)
        objects = []
        for oid in range(100):
            x, y = rng.random() * 0.9, rng.random() * 0.9
            objects.append((oid, Rect(x, y, x + 0.05, y + 0.05)))
        bulk_load_str(tree, objects)
        validate_tree(tree, expected_size=100)


class TestBulkLoadBehaviour:
    def test_queries_match_inserted_tree(self):
        objects = make_points(700, seed=13)
        packed = fresh_tree()
        bulk_load_str(packed, objects)
        inserted = fresh_tree()
        for oid, point in objects:
            inserted.insert(oid, point)
        rng = random.Random(5)
        for _ in range(25):
            cx, cy, side = rng.random(), rng.random(), rng.uniform(0, 0.2)
            window = Rect(max(0, cx - side), max(0, cy - side), min(1, cx + side), min(1, cy + side))
            assert sorted(packed.range_query(window)) == sorted(inserted.range_query(window))

    def test_bulk_load_is_cheaper_than_repeated_insertion(self):
        objects = make_points(700, seed=13)
        packed = fresh_tree()
        bulk_load_str(packed, objects)
        inserted = fresh_tree()
        for oid, point in objects:
            inserted.insert(oid, point)
        assert (
            packed.disk.stats.total_physical_io < inserted.disk.stats.total_physical_io
        )

    def test_higher_fill_factor_gives_fewer_leaves(self):
        objects = make_points(600, seed=3)
        low = fresh_tree()
        bulk_load_str(low, objects, fill_factor=0.5)
        high = fresh_tree()
        bulk_load_str(high, objects, fill_factor=1.0)
        assert high.node_count()["leaf"] < low.node_count()["leaf"]

    def test_updates_after_bulk_load_keep_tree_valid(self):
        tree = fresh_tree()
        objects = make_points(500)
        bulk_load_str(tree, objects)
        rng = random.Random(8)
        live = dict(objects)
        for oid in list(live)[:200]:
            tree.delete(oid, live.pop(oid))
        for oid in range(10_000, 10_200):
            point = Point(rng.random(), rng.random())
            tree.insert(oid, point)
            live[oid] = point
        validate_tree(tree, expected_size=len(live))


def _reference_pack_level(tree, entries, level, fanout):
    """One STR level as an ``Entry`` list sorted on ``Rect.center()`` Points."""
    count = len(entries)
    node_count = math.ceil(count / fanout)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    slice_size = slice_count * fanout
    by_x = sorted(entries, key=lambda e: (e.rect.center().x, e.rect.center().y))
    nodes = []
    for slice_start in range(0, count, slice_size):
        vertical_slice = by_x[slice_start : slice_start + slice_size]
        by_y = sorted(vertical_slice, key=lambda e: (e.rect.center().y, e.rect.center().x))
        for node_start in range(0, len(by_y), fanout):
            node = tree._allocate_node(level)
            node.entries = by_y[node_start : node_start + fanout]
            tree.write_node(node)
            nodes.append(node)
    min_entries = tree.min_entries_for_level(level)
    if len(nodes) >= 2 and len(nodes[-1]) < min_entries:
        donor, last = nodes[-2], nodes[-1]
        to_move = min(min_entries - len(last), max(0, len(donor) - min_entries))
        if to_move > 0:
            donor_entries = donor.entries
            donor.entries = donor_entries[:-to_move]
            last.entries = donor_entries[-to_move:] + last.entries
            tree.write_node(donor)
            tree.write_node(last)
    return nodes


def _reference_str_load(tree, objects, fill_factor=0.66):
    """STR built from ``Rect``/``Entry`` values, independent of ``repro.rtree.bulk``.

    The object-per-entry loader the columnar one replaced: every location
    becomes a ``Rect`` and an ``Entry``, and upper levels pack ``Entry(mbr,
    page_id)`` values.  No parent pointers (the trees below store none).
    """
    leaf_fanout = max(2, int(tree.leaf_capacity * fill_factor))
    internal_fanout = max(2, int(tree.internal_capacity * fill_factor))
    entries = [
        Entry(location if isinstance(location, Rect) else Rect.from_point(location), oid)
        for oid, location in objects
    ]
    nodes = _reference_pack_level(tree, entries, level=0, fanout=leaf_fanout)
    tree.size = len(entries)
    level = 1
    while len(nodes) > 1:
        upper = [Entry(node.mbr(), node.page_id) for node in nodes]
        nodes = _reference_pack_level(tree, upper, level=level, fanout=internal_fanout)
        level += 1
    root = nodes[0]
    if root.page_id != tree.root_page_id:
        tree._free_node(tree.peek_node(tree.root_page_id))
    tree.root_page_id = root.page_id
    tree.height = root.level + 1
    tree.observers.root_changed(tree.root_page_id, tree.height)
    return tree


def paged_tree():
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    pool = BufferPool(disk, capacity=0, stats=stats, codec=NodeCodec())
    return RTree(pool, layout=PageLayout(page_size=SMALL_PAGE_SIZE))


class TestPackingOrderIsUnchanged:
    """Packing float columns writes the pages the ``Entry``/``Rect`` loader wrote."""

    @pytest.mark.parametrize("kind", ("points", "rects"))
    def test_every_page_image_matches_the_point_key_reference(self, kind):
        rng = random.Random(17)
        # A coarse grid: many objects share a centre, a column or a row, so
        # only a stable sort on the same floats reproduces the order.
        spots = [(rng.randrange(12) / 12.0, rng.randrange(12) / 12.0) for _ in range(900)]
        if kind == "points":
            objects = [(oid, Point(x, y)) for oid, (x, y) in enumerate(spots)]
        else:
            objects = [
                (oid, Rect(x, y, x + rng.choice((0.01, 0.03)), y + rng.choice((0.01, 0.03))))
                for oid, (x, y) in enumerate(spots)
            ]
        assert len({location for _oid, location in objects}) < len(objects)

        packed = paged_tree()
        bulk_load_str(packed, objects)
        reference = paged_tree()
        _reference_str_load(reference, objects)

        assert packed.root_page_id == reference.root_page_id
        assert packed.height == reference.height >= 3
        pages = sorted(reference.disk.page_ids())
        assert sorted(packed.disk.page_ids()) == pages
        for page_id in pages:
            assert packed.disk.peek(page_id) == reference.disk.peek(page_id)
            assert isinstance(packed.disk.peek(page_id), bytes)
        validate_tree(packed, expected_size=len(objects))


class TestBulkLoadWork:
    def test_no_rect_is_built_per_object(self, monkeypatch):
        """Packing builds at most a few rectangles per page, none per object."""
        objects = make_points(5000)
        tree = paged_tree()
        built = []
        raw, init = Rect._raw.__func__, Rect.__init__

        def counting_raw(cls, *bounds):
            built.append(bounds)
            return raw(cls, *bounds)

        def counting_init(self, *bounds):
            built.append(bounds)
            init(self, *bounds)

        monkeypatch.setattr(Rect, "_raw", classmethod(counting_raw))
        monkeypatch.setattr(Rect, "__init__", counting_init)
        bulk_load_str(tree, objects)
        monkeypatch.undo()

        pages = len(list(tree.disk.page_ids()))
        assert len(built) < 2 * pages
        validate_tree(tree, expected_size=len(objects))
