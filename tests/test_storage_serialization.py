"""Round trips of :class:`NodeCodec` through node shapes and real trees.

The codec's byte layout and its rejection of malformed images are pinned in
``tests/test_storage_pagestore.py``; here every part of a node the index
relies on comes back from its page image exactly as it was encoded.
"""

import random

import pytest

from repro.api import Update
from repro.geometry import Point, Rect
from repro.rtree import Entry, Node
from repro.storage import PageLayout
from repro.storage.serialization import NodeCodec

from tests.conftest import SMALL_PAGE_SIZE, build_facade, build_index, make_points

# <HHIB4d> then the tight MBR <4d>; each entry is <4d> coordinates and one <I> id.
HEADER_WITH_MBR = 41 + 32
ENTRY_BYTES = 36


def leaf_with(count, seed=3, page_id=7):
    rng = random.Random(seed)
    entries = [
        Entry(Rect.from_point(Point(rng.random(), rng.random())), oid) for oid in range(count)
    ]
    return Node(page_id=page_id, level=0, entries=entries)


def round_trip(node):
    codec = NodeCodec()
    return codec.decode(node.page_id, codec.encode(node))


def assert_same_node(restored, node):
    assert restored.page_id == node.page_id
    assert restored.level == node.level
    assert restored.parent_page_id == node.parent_page_id
    assert restored.stored_mbr == node.stored_mbr
    assert restored.children == node.children
    assert restored.coords == node.coords  # bit for bit: array('d') equality is exact


class TestRoundTrip:
    def test_leaf_round_trip_preserves_structure(self):
        node = leaf_with(8)
        restored = round_trip(node)
        assert_same_node(restored, node)
        assert [e.rect for e in restored.entries] == [e.rect for e in node.entries]

    def test_internal_node_round_trip(self):
        node = Node(
            page_id=3,
            level=2,
            entries=[Entry(Rect(0.1, 0.1, 0.4, 0.5), 11), Entry(Rect(0.5, 0.2, 0.9, 0.8), 12)],
        )
        restored = round_trip(node)
        assert restored.level == 2
        assert restored.child_ids() == [11, 12]
        assert restored.mbr() == Rect(0.1, 0.1, 0.9, 0.8)

    def test_parent_pointer_round_trip(self):
        node = leaf_with(3)
        node.parent_page_id = 42
        assert round_trip(node).parent_page_id == 42

    def test_missing_parent_pointer_round_trip(self):
        assert round_trip(leaf_with(3)).parent_page_id is None

    def test_stored_mbr_round_trip(self):
        node = leaf_with(3)
        node.stored_mbr = Rect(0.0, 0.0, 0.75, 0.75)
        restored = round_trip(node)
        assert restored.stored_mbr == Rect(0.0, 0.0, 0.75, 0.75)
        # The ε-slack bound is not the tight one the header also carries.
        assert restored.mbr() == node.mbr()

    def test_empty_node_round_trip(self):
        restored = round_trip(Node(page_id=1, level=0))
        assert restored.entries == []
        assert restored.stored_mbr is None


class TestImageSize:
    """A full node's image is its header plus 36 bytes per entry, at every fan-out."""

    @pytest.mark.parametrize("page_size", [256, 512, 1024, 4096])
    def test_full_leaf_image_is_header_plus_entries(self, page_size):
        layout = PageLayout(page_size=page_size)
        node = leaf_with(layout.leaf_capacity(), page_id=1)
        image = NodeCodec().encode(node)
        assert len(image) == HEADER_WITH_MBR + layout.leaf_capacity() * ENTRY_BYTES
        assert_same_node(NodeCodec().decode(1, image), node)

    @pytest.mark.parametrize("page_size", [256, 512, 1024, 4096])
    def test_full_internal_node_image_is_header_plus_entries(self, page_size):
        layout = PageLayout(page_size=page_size)
        entries = [
            Entry(Rect(0.0, 0.0, 0.1, 0.1), child) for child in range(layout.internal_capacity)
        ]
        node = Node(page_id=1, level=1, entries=entries)
        image = NodeCodec().encode(node)
        assert len(image) == HEADER_WITH_MBR + layout.internal_capacity * ENTRY_BYTES
        assert_same_node(NodeCodec().decode(1, image), node)


class TestWholeTreeSerialization:
    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_every_node_of_a_real_tree_round_trips(self, strategy):
        index = build_facade(strategy, num_objects=400)
        rng = random.Random(5)
        # Short moves, so that the bottom-up strategies leave ε-slack bounds on some leaves.
        moves = []
        for oid, point in rng.sample(make_points(400, seed=11), 150):
            x = min(1.0, max(0.0, point.x + rng.uniform(-0.02, 0.02)))
            y = min(1.0, max(0.0, point.y + rng.uniform(-0.02, 0.02)))
            moves.append(Update(oid, Point(x, y)))
        index.execute_many(moves)
        codec = NodeCodec()
        nodes = [node for node, _parent in index.shards[0].tree.iter_nodes()]
        assert len(nodes) > 1
        if strategy in ("LBU", "GBU"):
            assert any(node.stored_mbr is not None for node in nodes)
        if strategy == "LBU":
            assert any(node.parent_page_id is not None for node in nodes)
        for node in nodes:
            image = codec.encode(node)
            restored = codec.decode(node.page_id, image)
            assert_same_node(restored, node)
            assert restored.mbr() == node.mbr()
            assert codec.encode(restored) == image

    def test_small_pages_hold_what_the_layout_promises(self):
        layout = PageLayout(page_size=SMALL_PAGE_SIZE)
        index = build_index("GBU", num_objects=400)
        for node, _parent in index.tree.iter_nodes():
            capacity = layout.leaf_capacity() if node.level == 0 else layout.internal_capacity
            assert len(node) <= capacity
            assert len(NodeCodec().encode(node)) <= HEADER_WITH_MBR + capacity * ENTRY_BYTES
