"""Tests for index checkpointing (save/load), single and sharded."""

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


def build_and_churn(strategy="GBU", num_objects=300, updates=400, seed=5):
    index = MovingObjectIndex(IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE))
    index.load(make_points(num_objects, seed=seed))
    rng = random.Random(seed)
    for _ in range(updates):
        oid = rng.randrange(num_objects)
        p = index.position_of(oid)
        index.update(oid, Point(
            min(1, max(0, p.x + rng.uniform(-0.05, 0.05))),
            min(1, max(0, p.y + rng.uniform(-0.05, 0.05))),
        ))
    return index


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

        # Saved again it is a version-3 document whose pages carry the bound,
        # and the round trip changes no answer.
        again = tmp_path / "again.json"
        save_index(restored, again)
        assert json.loads(again.read_text())["format_version"] == FORMAT_VERSION == 3
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
