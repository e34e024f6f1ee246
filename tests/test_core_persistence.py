"""Tests for index checkpointing (save/load), single and sharded."""

import base64
import json
import random
from pathlib import Path

import pytest

from repro.core import IndexConfig, MovingObjectIndex, load_index, save_index
from repro.core.persistence import FORMAT_VERSION
from repro.geometry import Point, Rect
from repro.shard import GridPartitioner, ShardedIndex
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE, make_points

DATA = Path(__file__).parent / "data"


def churn(index, num_objects, updates, seed):
    """Move random objects by small steps (single or sharded index)."""
    rng = random.Random(seed)
    for _ in range(updates):
        oid = rng.randrange(num_objects)
        p = index.position_of(oid)
        index.update(oid, Point(
            min(1, max(0, p.x + rng.uniform(-0.05, 0.05))),
            min(1, max(0, p.y + rng.uniform(-0.05, 0.05))),
        ))


def build_and_churn(strategy="GBU", num_objects=300, updates=400, seed=5):
    index = MovingObjectIndex(IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE))
    index.load(make_points(num_objects, seed=seed))
    churn(index, num_objects, updates, seed)
    return index


def build_and_churn_sharded(backend, strategy="GBU", num_objects=400, updates=400):
    index = ShardedIndex(
        IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
        partitioner=GridPartitioner.for_shards(4),
    )
    index.load(make_points(num_objects, seed=5))
    if backend != "serial":
        index.set_parallel(backend, workers=2)
    churn(index, num_objects, updates, seed=5)
    return index


def disk_images(shard):
    """The shard's flushed disk, page id -> image bytes (uncharged)."""
    shard.buffer.flush()
    return {page_id: shard.disk.peek(page_id) for page_id in shard.disk.page_ids()}


def walked_images(shard):
    """Every node the tree walk reaches, page id -> its encoded image."""
    codec = shard.buffer.codec
    return {node.page_id: codec.encode(node) for node, _ in shard.tree.iter_nodes()}


def saved_images(body):
    """A checkpoint document body's pages, page id -> image bytes."""
    return {
        int(page_id): base64.b64decode(text) for page_id, text in body["pages"].items()
    }


class TestRoundTrip:
    def test_restored_index_passes_validation(self, tmp_path):
        original = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        restored.validate()

    def test_restored_index_answers_queries_identically(self, tmp_path):
        original = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        rng = random.Random(9)
        for _ in range(30):
            cx, cy, s = rng.random(), rng.random(), rng.uniform(0, 0.3)
            window = Rect(max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s))
            assert sorted(restored.range_query(window)) == sorted(original.range_query(window))

    def test_restored_index_preserves_configuration(self, tmp_path):
        original = build_and_churn(strategy="LBU")
        checkpoint = tmp_path / "lbu.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        assert restored.config.strategy == "LBU"
        assert restored.config.page_size == SMALL_PAGE_SIZE
        assert restored.config.params == original.config.params

    def test_restored_index_accepts_further_updates(self, tmp_path):
        original = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        rng = random.Random(11)
        for _ in range(300):
            oid = rng.randrange(len(restored))
            restored.update(oid, Point(rng.random(), rng.random()))
        restored.insert(999_999, Point(0.5, 0.5))
        assert restored.delete(999_999)
        restored.validate()

    def test_positions_survive_the_round_trip(self, tmp_path):
        original = build_and_churn(num_objects=150, updates=200)
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        for oid in range(150):
            restored_position = restored.position_of(oid)
            original_position = original.position_of(oid)
            assert restored_position is not None
            # Coordinates travel through the 32-bit on-page format, so the
            # restored position matches to single precision.
            assert restored_position.x == pytest.approx(original_position.x, abs=1e-6)
            assert restored_position.y == pytest.approx(original_position.y, abs=1e-6)

    def test_every_strategy_round_trips(self, tmp_path):
        for strategy in ("TD", "NAIVE", "LBU", "GBU"):
            original = build_and_churn(strategy=strategy, num_objects=200, updates=200)
            checkpoint = tmp_path / f"{strategy}.json"
            save_index(original, checkpoint)
            restored = load_index(checkpoint)
            restored.validate()
            assert sorted(restored.range_query(Rect.unit())) == sorted(
                original.range_query(Rect.unit())
            )

    def test_unsupported_format_version_rejected(self, tmp_path):
        original = build_and_churn(num_objects=100, updates=50)
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        document = json.loads(checkpoint.read_text())
        document["format_version"] = 999
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_index(checkpoint)

    def test_version_2_checkpoint_loads_under_the_current_reader(self, tmp_path):
        # tests/data/checkpoint_v2.json was written by commit bbde488
        # (FORMAT_VERSION 2: page headers without the tight MBR) and the
        # answers file records what that commit's index returned.  Recorded
        # artefacts: do not regenerate them from the current code.
        document = json.loads((DATA / "checkpoint_v2.json").read_text())
        recorded = json.loads((DATA / "checkpoint_v2_answers.json").read_text())
        assert document["format_version"] == 2

        restored = load_index(DATA / "checkpoint_v2.json")
        restored.validate()
        assert len(restored) == recorded["objects"]
        for probe in recorded["windows"]:
            assert sorted(restored.range_query(Rect(*probe["window"]))) == probe["oids"]
        for probe in recorded["knn"]:
            answer = restored.knn(Point(*probe["point"]), probe["k"])
            assert [[distance, oid] for distance, oid in answer] == probe["neighbours"]

        # Saved again it is a version-4 document: no page was written since
        # the load, so its pages are the version-2 images copied as they are
        # (the decoder reads headers with and without the bound), and the
        # round trip changes no answer.
        again = tmp_path / "again.json"
        save_index(restored, again)
        resaved = json.loads(again.read_text())
        assert resaved["format_version"] == FORMAT_VERSION == 4
        assert resaved["pages"] == document["pages"]
        reloaded = load_index(again)
        reloaded.validate()
        for probe in recorded["windows"]:
            assert sorted(reloaded.range_query(Rect(*probe["window"]))) == probe["oids"]

    def test_io_counters_start_fresh_after_load(self, tmp_path):
        original = build_and_churn(num_objects=100, updates=100)
        checkpoint = tmp_path / "index.json"
        save_index(original, checkpoint)
        restored = load_index(checkpoint)
        assert restored.stats.total_physical_io == 0


class TestShardedRoundTrip:
    def build_sharded(self, num_shards=4, strategy="GBU", seed=5):
        index = ShardedIndex(
            IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
            partitioner=GridPartitioner.for_shards(num_shards),
        )
        index.load(make_points(400, seed=seed))
        return index

    def test_checkpoint_after_concurrent_run_restores_identically(self, tmp_path):
        """Satellite acceptance: checkpoint -> restore after a concurrent
        engine run rebuilds derived structures and answers queries
        identically (including objects that migrated across shards)."""
        index = self.build_sharded()
        spec = WorkloadSpec(num_objects=400, num_updates=0, num_queries=0, seed=5)
        generator = WorkloadGenerator(spec)
        session = index.engine(num_clients=8)
        session.run_mixed(generator, num_operations=300, update_fraction=0.8)
        assert index.migrations > 0  # the run crossed shard boundaries

        checkpoint = tmp_path / "sharded.json"
        save_index(index, checkpoint)
        restored = load_index(checkpoint)

        assert isinstance(restored, ShardedIndex)
        restored.validate()  # derived structures: hash, summary, directory
        assert len(restored) == len(index)
        assert restored.num_shards == index.num_shards
        assert restored.shard_populations() == index.shard_populations()
        rng = random.Random(3)
        for _ in range(30):
            cx, cy, s = rng.random(), rng.random(), rng.uniform(0, 0.3)
            window = Rect(max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s))
            assert sorted(restored.range_query(window)) == sorted(
                index.range_query(window)
            )
        probe = Point(0.4, 0.6)
        # positions travel through the 32-bit on-page format, so kNN answers
        # match by object and to single-precision distance
        restored_knn = restored.knn(probe, 5)
        original_knn = index.knn(probe, 5)
        assert [oid for _d, oid in restored_knn] == [oid for _d, oid in original_knn]
        for (restored_distance, _), (original_distance, _) in zip(
            restored_knn, original_knn
        ):
            assert restored_distance == pytest.approx(original_distance, abs=1e-6)

    def test_partitioner_spec_round_trips(self, tmp_path):
        index = self.build_sharded(num_shards=6)
        checkpoint = tmp_path / "sharded.json"
        save_index(index, checkpoint)
        restored = load_index(checkpoint)
        assert restored.partitioner.to_spec() == index.partitioner.to_spec()
        assert restored.config.strategy == index.config.strategy

    def test_restored_sharded_index_accepts_further_updates(self, tmp_path):
        index = self.build_sharded()
        checkpoint = tmp_path / "sharded.json"
        save_index(index, checkpoint)
        restored = load_index(checkpoint)
        rng = random.Random(11)
        for _ in range(200):
            oid = rng.randrange(len(restored))
            restored.update(oid, Point(rng.random(), rng.random()))
        assert restored.migrations > 0
        restored.insert(999_999, Point(0.5, 0.5))
        assert restored.delete(999_999)
        restored.validate()

    def test_sharded_io_counters_start_fresh_after_load(self, tmp_path):
        index = self.build_sharded()
        checkpoint = tmp_path / "sharded.json"
        save_index(index, checkpoint)
        restored = load_index(checkpoint)
        assert restored.io_snapshot().total() == 0


class TestPageImages:
    """Format version 4: a checkpoint is the flushed disk's page images."""

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_flushed_disk_holds_the_tree_walk_images(self, strategy):
        # The premise of copying images: after a flush the disk holds
        # exactly the tree's pages, each the encoding of its live node.
        index = build_and_churn(strategy=strategy)
        assert disk_images(index) == walked_images(index)

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_saved_images_are_the_flushed_disk_images(self, tmp_path, strategy):
        index = build_and_churn(strategy=strategy)
        checkpoint = tmp_path / "index.json"
        save_index(index, checkpoint)
        saved = saved_images(json.loads(checkpoint.read_text()))
        assert saved == disk_images(index)
        assert saved.keys() == walked_images(index).keys()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded_saved_images_are_each_shards_disk(self, tmp_path, backend):
        index = build_and_churn_sharded(backend)
        checkpoint = tmp_path / "sharded.json"
        save_index(index, checkpoint)
        documents = json.loads(checkpoint.read_text())["shards"]
        if backend != "serial":
            # Worker-held disks come back through detach; the serial twin
            # ran the same stream and holds the same images.
            index.detach_parallel()
            twin = build_and_churn_sharded("serial")
            for shard, twin_shard in zip(index.shards, twin.shards):
                assert disk_images(shard) == disk_images(twin_shard)
        assert len(documents) == index.num_shards == 4
        for shard, body in zip(index.shards, documents):
            saved = saved_images(body)
            assert saved == disk_images(shard)
            assert saved.keys() == walked_images(shard).keys()

    def test_save_load_save_writes_an_identical_document(self, tmp_path):
        for name, index in (
            ("single", build_and_churn(strategy="LBU")),
            ("sharded", build_and_churn_sharded("serial")),
        ):
            first, second = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
            save_index(index, first)
            save_index(load_index(first), second)
            assert second.read_text() == first.read_text()

    def test_restored_disk_holds_the_saved_images(self, tmp_path):
        index = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(index, checkpoint)
        restored = load_index(checkpoint)
        saved = saved_images(json.loads(checkpoint.read_text()))
        assert {
            page_id: restored.disk.peek(page_id)
            for page_id in restored.disk.page_ids()
        } == saved
        assert restored.tree.root_page_id == index.tree.root_page_id

    def test_positions_are_rederived_from_the_leaves(self, tmp_path):
        index = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(index, checkpoint)
        document = json.loads(checkpoint.read_text())
        assert "positions" not in document
        restored = load_index(checkpoint)
        assert len(restored) == len(index) == 300
        for oid in range(300):
            assert restored.position_of(oid) == index.position_of(oid)

    def test_version_3_document_loads_and_its_position_table_is_ignored(
        self, tmp_path
    ):
        index = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(index, checkpoint)
        document = json.loads(checkpoint.read_text())
        # A version-3 document is version 4 plus the object-position table.
        positions = {
            str(oid): [p.x, p.y] for oid, p in index._positions.items()
        }
        positions["0"] = [0.5, 0.5]  # disagrees with the leaves
        positions["424242"] = [0.5, 0.5]  # in no leaf
        document["format_version"] = 3
        document["positions"] = positions
        v3 = tmp_path / "v3.json"
        v3.write_text(json.dumps(document))

        restored = load_index(v3)
        restored.validate()
        assert restored.position_of(0) == index.position_of(0)
        assert restored.position_of(424242) is None
        assert sorted(restored.range_query(Rect.unit())) == sorted(
            index.range_query(Rect.unit())
        )

    def test_garbled_page_image_fails_the_load(self, tmp_path):
        index = build_and_churn()
        checkpoint = tmp_path / "index.json"
        save_index(index, checkpoint)
        document = json.loads(checkpoint.read_text())
        root = str(document["tree"]["root_page_id"])
        document["pages"][root] = base64.b64encode(b"\x00" * 5).decode("ascii")
        checkpoint.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_index(checkpoint)
