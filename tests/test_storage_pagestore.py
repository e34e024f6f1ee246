"""The binary page-store codec.

:class:`NodeCodec` is always binary64 and must reproduce every node bit for
bit, because the index actually runs on what it decodes.
"""

import random
import struct

import pytest

from repro.api import Update
from repro.geometry import Point, Rect, kernels
from repro.rtree.node import Entry, Node
from repro.storage import PageLayout
from repro.storage import serialization
from repro.storage.serialization import NodeCodec, SerializationError

from tests import golden_object_layout as golden
from tests.conftest import build_facade

# Coordinates deliberately not representable in binary32: 0.1's float64
# expansion, a tiny offset, and a value needing more than 24 mantissa bits.
LOSSY_COORDS = (0.1, 0.1 + 1e-12, 1.0 / 3.0, 0.7000000123456789)


def sample_node():
    node = Node(page_id=5, level=0, parent_page_id=17)
    node.add_entry(Entry(Rect(LOSSY_COORDS[0], LOSSY_COORDS[1], 0.5, 0.5), 7))
    node.add_entry(Entry(Rect(LOSSY_COORDS[2], 0.2, LOSSY_COORDS[3], 0.9), 8))
    node.stored_mbr = Rect(0.05, 0.05, 0.95, 0.95)
    return node


class TestNodeCodecRoundTrip:
    def test_lossless_round_trip(self):
        codec = NodeCodec()
        node = sample_node()
        restored = codec.decode(5, codec.encode(node))
        assert restored.level == 0
        assert restored.parent_page_id == 17
        assert restored.stored_mbr.as_tuple() == node.stored_mbr.as_tuple()
        assert restored.child_ids() == [7, 8]
        # Bit-exact: these coordinates are not binary32-representable.
        assert [e.rect.as_tuple() for e in restored.entries] == [
            e.rect.as_tuple() for e in node.entries
        ]

    def test_struct_path_writes_and_reads_the_same_image(self, monkeypatch):
        # The path big-endian platforms (or a wider array('I')) take.
        codec = NodeCodec()
        image = codec.encode(sample_node())
        monkeypatch.setattr(serialization, "_COLUMNS_ARE_IMAGE", False)
        assert codec.encode(sample_node()) == image
        restored = codec.decode(5, image)
        assert restored.coords == sample_node().coords
        assert restored.children == sample_node().children

    def test_empty_node_round_trip(self):
        codec = NodeCodec()
        node = Node(page_id=2, level=3)
        restored = codec.decode(2, codec.encode(node))
        assert restored.level == 3
        assert len(restored) == 0
        assert restored.parent_page_id is None
        assert restored.stored_mbr is None

    def test_truncated_image_rejected(self):
        image = NodeCodec().encode(sample_node())
        unflagged = unflagged_image(sample_node())
        # Cut in the ids and the coordinate block of both image kinds, and in the header.
        for cut in (image[:-3], image[: MBR_HEADER + 40], unflagged[:-1],
                    unflagged[: PLAIN_HEADER + 8], b"\x00\x01"):  # fmt: skip
            assert_rejected(cut)

    def test_non_binary_payload_rejected(self):
        assert_rejected(sample_node())
        assert_rejected(memoryview(NodeCodec().encode(sample_node())))


# <HHIB4d>: flags byte at 8, the flagged tight MBR at 41..73.
FLAGS_AT = 8
PLAIN_HEADER = 41
MBR_HEADER = PLAIN_HEADER + 32
HAS_TIGHT_MBR = 0x02


def with_header_mbr(image, *bounds):
    return image[:PLAIN_HEADER] + struct.pack("<4d", *bounds) + image[MBR_HEADER:]


def unflagged_image(node):
    """What the codec wrote before the header carried the tight MBR (checkpoint version 2)."""
    image = bytearray(NodeCodec().encode(node))
    image[FLAGS_AT] &= ~HAS_TIGHT_MBR
    del image[PLAIN_HEADER:MBR_HEADER]
    return bytes(image)


def assert_rejected(image, match=None):
    """Both readers of a page image refuse it: the whole decode and the header MBR peek."""
    codec = NodeCodec()
    with pytest.raises(SerializationError, match=match):
        codec.decode(5, image)
    with pytest.raises(SerializationError, match=match):
        codec.decode_mbr(5, image)


class TestNodeCodecHeaderMbr:
    def test_non_empty_node_stores_its_mbr_and_decode_seeds_the_memo(self, monkeypatch):
        codec = NodeCodec()
        node = sample_node()
        image = codec.encode(node)
        assert image[FLAGS_AT] & HAS_TIGHT_MBR
        assert struct.unpack_from("<4d", image, PLAIN_HEADER) == node.mbr().as_tuple()
        assert len(image) == MBR_HEADER + 2 * 36

        restored = codec.decode(5, image)

        def no_sweep(_coords):
            raise AssertionError("a decoded node re-derived its MBR")

        monkeypatch.setattr(kernels, "union_bounds", no_sweep)
        assert restored.mbr() == node.mbr()
        assert restored.effective_mbr() == node.effective_mbr()

    def test_empty_node_encodes_with_the_flag_clear(self):
        image = NodeCodec().encode(Node(page_id=2, level=3))
        assert not image[FLAGS_AT] & HAS_TIGHT_MBR
        assert len(image) == PLAIN_HEADER

    def test_unflagged_image_decodes_to_the_same_node(self):
        codec = NodeCodec()
        node = sample_node()
        restored = codec.decode(5, unflagged_image(node))
        assert restored.coords == node.coords and restored.children == node.children
        assert restored.stored_mbr == node.stored_mbr
        assert restored.mbr() == node.mbr()  # derived on first use
        assert restored.arrived is None

    def test_decode_mbr_is_the_decoded_nodes_bound(self):
        codec = CountingCodec()
        node = sample_node()
        node.stored_mbr = None
        for image in (codec.encode(node), codec.encode(sample_node())):
            assert codec.decode_mbr(5, image) == node.mbr()
        assert codec.decodes == 0  # the header alone answered
        # Headers without the bound: an empty node's, and an image from before.
        assert codec.decode_mbr(2, codec.encode(Node(page_id=2, level=1))) is None
        assert codec.decode_mbr(5, unflagged_image(node)) == node.mbr()
        assert codec.decodes == 2

    def test_unknown_flag_bits_rejected(self):
        codec = NodeCodec()
        for image in (codec.encode(sample_node()), codec.encode(Node(page_id=2, level=0))):
            for bit in (0x04, 0x80):
                corrupt = bytearray(image)
                corrupt[FLAGS_AT] |= bit
                assert_rejected(bytes(corrupt), match="flag")

    @pytest.mark.parametrize(
        "bounds",
        [
            (0.9, 0.1, 0.2, 0.5),  # xmin > xmax
            (0.1, 0.9, 0.5, 0.2),  # ymin > ymax
            (float("nan"), 0.1, 0.5, 0.5),
            (0.1, 0.1, 0.5, float("nan")),
        ],
    )
    def test_ill_ordered_header_mbr_rejected(self, bounds):
        image = with_header_mbr(NodeCodec().encode(sample_node()), *bounds)
        assert_rejected(image, match="MBR")

    def test_image_shorter_than_the_flagged_header_rejected(self):
        image = NodeCodec().encode(sample_node())
        for cut in (PLAIN_HEADER, PLAIN_HEADER + 8, MBR_HEADER - 1):
            assert_rejected(image[:cut])

    def test_flagged_mbr_on_an_empty_node_rejected(self):
        # An empty node has no MBR; a memo there would answer mbr() instead
        # of raising.
        image = bytearray(NodeCodec().encode(Node(page_id=2, level=0)))
        image[FLAGS_AT] |= HAS_TIGHT_MBR
        image += struct.pack("<4d", 0.0, 0.0, 1.0, 1.0)
        assert_rejected(bytes(image))


def binary_store_tree(capacity=0, codec=None):
    """A tree whose pool encodes pages at the disk boundary, as the index's does."""
    from repro.storage import BufferPool, DiskManager, IOStatistics
    from repro.rtree import RTree

    stats = IOStatistics()
    disk = DiskManager(page_size=256, stats=stats)
    codec = codec if codec is not None else NodeCodec()
    tree = RTree(
        BufferPool(disk, capacity, stats, codec=codec),
        layout=PageLayout(page_size=256),
    )
    return tree, stats


class TestBinaryPageStoreBehaviour:
    """The disk holds bytes; every *physical* read decodes a fresh node."""

    def test_disk_frames_hold_bytes(self):
        tree, _stats = binary_store_tree()
        for oid in range(50):
            tree.insert(oid, Point(oid / 50.0, (oid * 7 % 50) / 50.0))
        assert isinstance(tree.disk.read_page(tree.root_page_id), bytes)
        assert isinstance(tree.read_node(tree.root_page_id), Node)

    def test_reads_decode_fresh_nodes(self):
        # Unbuffered: every read is physical, so nothing aliases.
        tree, _stats = binary_store_tree()
        tree.insert(1, Point(0.1, 0.1))
        first = tree.read_node(tree.root_page_id)
        second = tree.read_node(tree.root_page_id)
        assert first is not second  # no aliasing through the page store
        first.set_rect(1, Rect(0.9, 0.9, 0.9, 0.9))  # mutation not written back...
        assert tree.read_node(tree.root_page_id).find_entry(1).rect == Rect(
            0.1, 0.1, 0.1, 0.1
        )  # ...is invisible to later reads

    def test_queries_after_mixed_updates(self):
        tree, _stats = binary_store_tree()
        for oid in range(120):
            tree.insert(oid, Point((oid % 12) / 12.0, (oid // 12) / 10.0))
        for oid in range(0, 120, 3):
            tree.delete(oid, Rect.from_point(Point((oid % 12) / 12.0, (oid // 12) / 10.0)))
        survivors = sorted(tree.range_query(Rect(0.0, 0.0, 1.0, 1.0)))
        assert survivors == [oid for oid in range(120) if oid % 3 != 0]


class CountingCodec(NodeCodec):
    """A :class:`NodeCodec` that counts its calls (no ``__slots__``: has a dict)."""

    def __init__(self):
        self.encodes = 0
        self.decodes = 0

    def encode(self, node):
        self.encodes += 1
        return super().encode(node)

    def decode(self, page_id, data):
        self.decodes += 1
        return super().decode(page_id, data)


def _mixed_stream(index, seed, steps=260):
    """Drive one seeded mix of every operation kind; return all the answers."""
    rng = random.Random(seed)
    live = set(range(len(index)))
    next_oid = len(index)
    answers = []

    def somewhere():
        return Point(rng.random(), rng.random())

    for step in range(steps):
        roll = rng.random()
        if roll < 0.55 and live:
            oid = rng.choice(sorted(live))
            old = index.position_of(oid)
            # Mostly short moves (bottom-up paths), sometimes a jump.
            if rng.random() < 0.8:
                new = Point(
                    min(1.0, max(0.0, old.x + rng.uniform(-0.04, 0.04))),
                    min(1.0, max(0.0, old.y + rng.uniform(-0.04, 0.04))),
                )
            else:
                new = somewhere()
            answers.append(index.update(oid, new).value)
        elif roll < 0.65:
            index.insert(next_oid, somewhere())
            live.add(next_oid)
            next_oid += 1
        elif roll < 0.72 and live:
            oid = rng.choice(sorted(live))
            answers.append(index.delete(oid))
            live.discard(oid)
        elif roll < 0.80 and live:
            batch = [Update(oid, somewhere()) for oid in rng.sample(sorted(live), min(12, len(live)))]
            result = index.execute_many(batch)
            answers.append((result.updates, result.groups, result.residuals))
        elif roll < 0.90:
            x, y = rng.random() * 0.8, rng.random() * 0.8
            answers.append(sorted(index.range_query(Rect(x, y, x + 0.2, y + 0.2))))
        else:
            answers.append(index.knn(somewhere(), 6))
    return answers


class TestNodeResidentFrames:
    """Frames hold nodes; the codec runs only where a page crosses the disk."""

    @pytest.mark.parametrize("buffer_percent", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("strategy", ["GBU", "LBU"])
    def test_binary_store_reproduces_object_store_answers_and_io(self, strategy, buffer_percent):
        # The fixtures were recorded on a disk of node objects (no codec).
        index = build_facade(strategy, num_objects=400, buffer_percent=buffer_percent)
        answers = _mixed_stream(index, seed=1303)
        index.validate()
        stats = index.shards[0].stats
        assert answers == golden.FRAMES_ANSWERS[strategy]
        assert stats.as_dict() == golden.FRAMES_STATS[(strategy, buffer_percent)]
        assert stats.physical_reads > 0

    @pytest.mark.parametrize("capacity", [0, 3, 10_000])
    def test_codec_runs_once_per_physical_transfer(self, capacity):
        codec = CountingCodec()
        tree, stats = binary_store_tree(capacity, codec)
        pool = tree.buffer
        rng = random.Random(5)
        positions = {oid: Point(rng.random(), rng.random()) for oid in range(150)}
        for oid, point in positions.items():
            tree.insert(oid, point)
        for oid in range(0, 150, 4):
            assert tree.delete(oid, positions.pop(oid))
        tree.knn(Point(0.5, 0.5), 9)
        tree.range_query(Rect(0.2, 0.2, 0.6, 0.6))

        # Uncharged peeks decode only what is not resident.
        cold_peeks = 0
        for page_id in tree.disk.page_ids():
            cold_peeks += page_id not in pool.resident_pages()
            assert tree.peek_node(page_id).page_id == page_id
        pool.flush()

        assert codec.encodes == stats.physical_writes
        assert codec.decodes == stats.physical_reads + cold_peeks
        if capacity == 10_000:
            # Everything fits: nothing was ever read back, hits decode nothing.
            assert codec.decodes == cold_peeks == 0
            assert stats.buffer_hits == stats.logical_reads

    @pytest.mark.parametrize("capacity", [0, 3, 10_000])
    def test_root_mbr_neither_decodes_nor_charges(self, capacity):
        # A resident root answers from its frame, any other from its header.
        codec = CountingCodec()
        tree, stats = binary_store_tree(capacity, codec)
        rng = random.Random(23)
        positions = {}

        def check():
            counters, decodes = stats.as_dict(), codec.decodes
            bound = tree.root_mbr()
            assert stats.as_dict() == counters
            # Only an empty root's header carries no bound to read.
            assert codec.decodes == decodes or bound is None
            root = tree.peek_node(tree.root_page_id)
            assert bound == (kernels.union_rect(root.coords) if len(root) else None)

        check()
        for oid in range(300):
            roll = rng.random()
            if roll < 0.5 or len(positions) < 20:
                positions[oid] = Point(rng.random(), rng.random())
                tree.insert(oid, positions[oid])
            elif roll < 0.8:  # an update: delete, insert at the new position
                moved = rng.choice(sorted(positions))
                assert tree.delete(moved, positions[moved])
                positions[moved] = Point(rng.random(), rng.random())
                tree.insert(moved, positions[moved])
            else:
                gone = rng.choice(sorted(positions))
                assert tree.delete(gone, positions.pop(gone))
            check()
        for gone in sorted(positions):
            assert tree.delete(gone, positions[gone])
            check()
        assert tree.root_mbr() is None

    def test_stale_copy_held_across_eviction_can_still_be_written(self):
        # The hybrid neither old store exercised: a node is read (resident),
        # evicted, re-read as a *fresh* decode while the first copy is still
        # held, and then the first copy is what gets written.
        tree, stats = binary_store_tree(capacity=1)
        for oid in range(30):
            tree.insert(oid, Point(oid / 30.0, (oid * 7 % 30) / 30.0))
        leaves = [leaf.page_id for leaf in tree.leaf_nodes()]
        target, other = leaves[0], leaves[1]

        held = tree.read_node(target)
        assert tree.read_node(target) is held  # a hit hands back the frame
        tree.read_node(other)  # capacity 1: evicts `target`
        assert target not in tree.buffer.resident_pages()
        fresh = tree.read_node(target)
        assert fresh is not held
        assert fresh.child_ids() == held.child_ids()

        held.add_entry(Entry(Rect.from_point(Point(0.5, 0.5)), 999))
        assert not tree.read_node(target).has_child(999)  # unwritten: invisible
        tree.write_node(held)
        assert tree.read_node(target) is held  # the written copy is the frame
        tree.read_node(other)  # evict it dirty: encoded on the way out
        assert isinstance(tree.disk.peek(target), bytes)
        reread = tree.read_node(target)
        assert reread is not held and reread.has_child(999)
        assert stats.dirty_evictions >= 1

    def test_checkpoint_restore_with_unflushed_dirty_frames(self, tmp_path):
        from repro.core.persistence import load_index, save_index

        index = build_facade("GBU", num_objects=300, buffer_percent=100.0)
        _mixed_stream(index, seed=77, steps=120)
        assert index.shards[0].buffer.dirty_count > 0  # the newest state is in frames only
        window = Rect(0.1, 0.1, 0.9, 0.9)
        expected = sorted(index.range_query(window))
        neighbours = index.knn(Point(0.4, 0.6), 8)
        save_index(index, tmp_path / "checkpoint.json")
        restored = load_index(tmp_path / "checkpoint.json")
        restored.validate()
        assert sorted(restored.range_query(window)) == expected
        assert restored.knn(Point(0.4, 0.6), 8) == neighbours
        disk = restored.shards[0].disk
        assert all(isinstance(disk.peek(page_id), bytes) for page_id in disk.page_ids())

    def test_process_workers_hydrate_from_unflushed_dirty_frames(self):
        from repro.core import IndexConfig
        from repro.shard import GridPartitioner, ShardedIndex

        config = IndexConfig(strategy="GBU", page_size=256, buffer_percent=100.0)
        index = ShardedIndex(config, partitioner=GridPartitioner.for_shards(2))
        rng = random.Random(9)
        index.load([(oid, Point(rng.random(), rng.random())) for oid in range(200)])
        for oid in range(0, 200, 3):
            index.update(oid, Point(rng.random(), rng.random()))
        assert any(shard.buffer.dirty_count for shard in index.shards)
        window = Rect(0.0, 0.0, 1.0, 0.5)
        expected = sorted(index.range_query(window))
        neighbours = index.knn(Point(0.5, 0.5), 7)
        index.set_parallel("process", workers=2)
        try:
            assert sorted(index.range_query(window)) == expected
            assert index.knn(Point(0.5, 0.5), 7) == neighbours
        finally:
            index.detach_parallel()
        index.validate()
