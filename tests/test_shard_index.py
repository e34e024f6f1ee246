"""Unit tests for the sharded index facade: routing, migration, fan-out."""

import random

import pytest

from repro.api import Delete, Insert, RangeQuery, UnknownObjectError, Update
from repro.core import IndexConfig, MovingObjectIndex, SpatialIndexFacade
from repro.geometry import Point, Rect
from repro.shard import GridPartitioner, ShardedIndex
from repro.update import UpdateOutcome

from tests.conftest import SMALL_PAGE_SIZE, make_points


def build_sharded(num_shards=4, strategy="GBU", num_objects=400, seed=11):
    index = ShardedIndex(
        IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
        partitioner=GridPartitioner.for_shards(num_shards),
    )
    index.load(make_points(num_objects, seed=seed))
    return index


class TestFacade:
    def test_sharded_index_is_a_spatial_index_facade(self):
        assert issubclass(ShardedIndex, SpatialIndexFacade)

    def test_partitioner_shard_count_conflict_rejected(self):
        with pytest.raises(ValueError):
            ShardedIndex(partitioner=GridPartitioner(2, 2), num_shards=3)

    def test_load_routes_objects_by_position(self):
        index = build_sharded(num_shards=4)
        assert len(index) == 400
        assert sum(index.shard_populations()) == 400
        for oid in (0, 17, 399):
            shard_id = index.shard_for(oid)
            boundary = index.partitioner.boundary(shard_id)
            assert boundary.contains_point(index.position_of(oid))
        index.validate()

    def test_describe_mentions_shards_and_populations(self):
        index = build_sharded(num_shards=2)
        text = index.describe()
        assert "sharded[2x]" in text
        assert "populations=" in text


class TestRoutingAndMigration:
    def test_update_within_shard_does_not_migrate(self):
        index = ShardedIndex(
            IndexConfig(page_size=SMALL_PAGE_SIZE), partitioner=GridPartitioner(2, 1)
        )
        index.load([(0, Point(0.2, 0.5)), (1, Point(0.8, 0.5))])
        outcome = index.update(0, Point(0.3, 0.6))
        assert outcome is not UpdateOutcome.MIGRATED
        assert index.migrations == 0
        assert index.shard_for(0) == 0

    def test_boundary_crossing_update_migrates(self):
        index = ShardedIndex(
            IndexConfig(page_size=SMALL_PAGE_SIZE), partitioner=GridPartitioner(2, 1)
        )
        index.load([(0, Point(0.2, 0.5)), (1, Point(0.8, 0.5))])
        outcome = index.update(0, Point(0.9, 0.5))
        assert outcome is UpdateOutcome.MIGRATED
        assert index.migrations == 1
        assert index.shard_for(0) == 1
        assert 0 not in index.shards[0]
        assert 0 in index.shards[1]
        assert index.position_of(0) == Point(0.9, 0.5)
        index.validate()

    def test_update_unknown_object_raises(self):
        index = build_sharded()
        with pytest.raises(KeyError):
            index.update(10_000, Point(0.5, 0.5))

    def test_insert_routes_and_duplicate_rejected(self):
        index = build_sharded()
        index.insert(10_000, Point(0.1, 0.9))
        assert index.shard_for(10_000) == index.partitioner.shard_of(Point(0.1, 0.9))
        with pytest.raises(ValueError):
            index.insert(10_000, Point(0.2, 0.2))

    def test_delete_removes_from_directory_and_shard(self):
        index = build_sharded()
        shard_id = index.shard_for(5)
        assert index.delete(5)
        assert index.shard_for(5) is None
        assert 5 not in index.shards[shard_id]
        with pytest.raises(UnknownObjectError):
            index.delete(5)
        assert not index.delete(5, strict=False)

    def test_validate_detects_an_object_held_by_two_shards(self):
        index = build_sharded(num_shards=4)
        oid = index.object_directory()[0]
        owner = index.shard_for(oid)
        other = (owner + 1) % index.num_shards
        index.shards[other]._positions[oid] = index.position_of(oid)
        first, second = sorted((owner, other))
        with pytest.raises(
            AssertionError, match=rf"object {oid}: held by shards {first} and {second}"
        ):
            index.validate()

    def test_validate_detects_a_position_table_naming_other_objects(self):
        # The count stays right: one object swapped for one the tree lacks.
        index = build_sharded(num_shards=2)
        positions = index.shards[0]._positions
        oid = next(iter(positions))
        positions[10_000] = positions.pop(oid)
        assert 10_000 in index
        with pytest.raises(AssertionError, match=rf"\[{oid}, 10000\]"):
            index.validate()


class TestQueries:
    def test_range_query_matches_brute_force(self):
        index = build_sharded(num_shards=8, num_objects=500)
        rng = random.Random(3)
        for _ in range(25):
            cx, cy, s = rng.random(), rng.random(), rng.uniform(0.05, 0.4)
            window = Rect(
                max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s)
            )
            expected = sorted(
                oid
                for oid in range(500)
                if window.contains_point(index.position_of(oid))
            )
            assert sorted(index.range_query(window)) == expected

    def test_knn_matches_brute_force(self):
        index = build_sharded(num_shards=8, num_objects=500)
        rng = random.Random(5)
        for _ in range(20):
            probe = Point(rng.random(), rng.random())
            expected = sorted(
                (probe.distance_to(index.position_of(oid)), oid)
                for oid in range(500)
            )[:7]
            actual = index.knn(probe, 7)
            assert [oid for _d, oid in actual] == [oid for _d, oid in expected]
            for (actual_distance, _), (expected_distance, _) in zip(actual, expected):
                assert actual_distance == pytest.approx(expected_distance)

    def test_knn_edge_cases(self):
        index = build_sharded(num_objects=50)
        assert index.knn(Point(0.5, 0.5), 0) == []
        assert len(index.knn(Point(0.5, 0.5), 500)) == 50

    def test_positions_outside_the_unit_square_stay_equivalent(self):
        """Routing clamps into the unit square, but stored positions beyond
        it must still be found: fan-out and kNN pruning use each shard's
        content MBR, not just its boundary rectangle."""
        from repro.core import MovingObjectIndex

        objects = make_points(120, seed=9) + [
            (500, Point(0.75, 1.8)),
            (501, Point(-0.6, 0.25)),
            (502, Point(1.4, -0.2)),
        ]
        single = MovingObjectIndex(IndexConfig(page_size=SMALL_PAGE_SIZE))
        single.load(objects)
        sharded = ShardedIndex(
            IndexConfig(page_size=SMALL_PAGE_SIZE),
            partitioner=GridPartitioner.for_shards(4),
        )
        sharded.load(objects)
        sharded.validate()
        for window in (
            Rect(0.7, 1.7, 0.8, 1.9),     # only reachable via the content MBR
            Rect(-1.0, -1.0, 2.0, 2.0),   # everything
            Rect(0.2, 0.2, 0.6, 0.6),     # interior
        ):
            assert sorted(sharded.range_query(window)) == sorted(
                single.range_query(window)
            )
        for probe in (Point(0.25, 2.0), Point(0.5, 0.5), Point(-1.0, 0.0)):
            assert sharded.knn(probe, 3) == single.knn(probe, 3)
        # a move further outside the square keeps routing consistent
        sharded.update(500, Point(0.2, 1.9))
        sharded.validate()
        assert sharded.shard_for(500) == sharded.partitioner.shard_of(Point(0.2, 1.9))


class TestBatchOperations:
    def test_execute_many_routes_and_migrates(self):
        index = ShardedIndex(
            IndexConfig(page_size=SMALL_PAGE_SIZE), partitioner=GridPartitioner(2, 1)
        )
        objects = make_points(200, seed=7)
        index.load(objects)
        rng = random.Random(13)
        updates = []
        for oid in range(0, 200, 2):
            updates.append(Update(oid, Point(rng.random(), rng.random())))
        result = index.execute_many(updates)
        assert result.updates == 100
        assert result.migrations > 0
        assert result.migrations == index.migrations
        for update in updates:
            assert index.position_of(update.oid) == update.new_location
        index.validate()

    def test_execute_many_coalesces_repeated_objects(self):
        index = build_sharded(num_objects=100)
        final = Point(0.42, 0.24)
        result = index.execute_many([Update(3, Point(0.9, 0.9)), Update(3, final)])
        assert result.updates == 2
        assert result.coalesced == 1
        assert index.position_of(3) == final

    def test_execute_many_unknown_object_leaves_index_untouched(self):
        index = build_sharded(num_objects=100)
        positions = {oid: index.position_of(oid) for oid in range(100)}
        with pytest.raises(KeyError):
            index.execute_many([Update(0, Point(0.5, 0.5)), Update(10_000, Point(0.1, 0.1))])
        assert {oid: index.position_of(oid) for oid in range(100)} == positions

    def test_execute_many_mixed_stream_with_barriers(self):
        index = build_sharded(num_objects=200)
        target = Point(0.31, 0.62)
        result = index.execute_many([
            Update(0, target),
            Insert(900, Point(0.5, 0.5)),
            RangeQuery(Rect(0.3, 0.6, 0.32, 0.64)),
            Delete(900),
            Update(1, Point(0.9, 0.1)),
        ])
        assert result.inserts == 1
        assert result.deletes == 1
        assert len(result.queries) == 1
        assert 0 in result.queries[0]  # the barrier saw the earlier update
        assert 900 not in index
        assert index.position_of(1) == Point(0.9, 0.1)
        index.validate()

    def test_execute_many_parse_error_executes_nothing(self):
        index = build_sharded(num_objects=100)
        before = {oid: index.position_of(oid) for oid in range(100)}
        with pytest.raises(ValueError):
            index.execute_many([
                Update(0, Point(0.5, 0.5)),
                Insert(1, Point(0.2, 0.2)),  # oid 1 already exists
            ])
        assert {oid: index.position_of(oid) for oid in range(100)} == before


class TestStatistics:
    def test_io_snapshot_merges_shard_counters(self):
        index = build_sharded(num_shards=4, num_objects=300)
        rng = random.Random(17)
        for _ in range(100):
            index.update(rng.randrange(300), Point(rng.random(), rng.random()))
        merged = index.io_snapshot()
        assert merged.total() == sum(
            shard.io_snapshot().total() for shard in index.shards
        )
        assert merged.total() > 0

    def test_reset_statistics_clears_everything(self):
        index = build_sharded(num_shards=2, num_objects=200)
        rng = random.Random(19)
        for _ in range(100):
            index.update(rng.randrange(200), Point(rng.random(), rng.random()))
        assert index.migrations > 0
        index.reset_statistics()
        assert index.migrations == 0
        assert index.io_snapshot().total() == 0


class TestKNNPruningRadius:
    """The running k-th distance is threaded into each per-shard search."""

    @staticmethod
    def build_two_shards():
        index = ShardedIndex(
            IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE, buffer_percent=0.0),
            partitioner=GridPartitioner(2, 1),
        )
        # Left shard: a tight cluster of 9 objects around the query point.
        objects = [(i, Point(0.24 + 0.002 * i, 0.5)) for i in range(9)]
        # Right shard: one near object (the eventual 10th neighbour) plus a
        # large spread-out population the pruned search must never visit.
        objects.append((9, Point(0.6, 0.5)))
        oid = 10
        for i in range(15):
            for j in range(15):
                objects.append((oid, Point(0.62 + 0.024 * i, 0.03 + 0.064 * j)))
                oid += 1
        index.load(objects)
        return index, list(objects)

    def test_answer_matches_the_single_index_facade(self):
        index, objects = self.build_two_shards()
        single = MovingObjectIndex(
            IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE, buffer_percent=0.0)
        )
        single.load(objects)
        for k in (1, 5, 10, 20):
            assert index.knn(Point(0.25, 0.5), k) == single.knn(Point(0.25, 0.5), k)

    def test_visited_shard_pays_less_io_than_a_full_k_search(self):
        index, _objects = self.build_two_shards()
        point = Point(0.25, 0.5)
        right = index.shards[1]

        index.reset_statistics()
        result = index.knn(point, 10)
        pruned_reads = right.stats.logical_reads
        # The right shard had to be visited (it supplies the 10th neighbour)...
        assert any(oid == 9 for _distance, oid in result)
        assert pruned_reads > 0

        # ...but consuming its stream only until the candidate distance
        # exceeds the running k-th distance costs strictly less I/O than the
        # full k-search the old fan-out paid.
        right.reset_statistics()
        right.tree.knn(point, 10)
        full_reads = right.stats.logical_reads
        assert pruned_reads < full_reads

    def test_shards_beyond_the_radius_pay_nothing(self):
        index, _objects = self.build_two_shards()
        index.reset_statistics()
        index.knn(Point(0.25, 0.5), 5)  # the left cluster alone satisfies k
        assert index.shards[1].stats.logical_reads == 0


class TestBufferSplitMinimumFrame:
    """A nonzero aggregate buffer never leaves a non-empty shard at 0 frames."""

    def test_scarce_capacity_gives_every_nonempty_shard_one_frame(self):
        index = build_sharded(num_shards=4)
        sizes = [len(shard.disk) for shard in index.shards]
        index._split_buffer_capacity(2, sizes)
        caps = [shard.buffer.capacity for shard in index.shards]
        assert all(cap >= 1 for cap in caps)
        # Documented tie-break: the minimum takes precedence, the aggregate
        # runs over by the deficit.
        assert sum(caps) == 4

    def test_skewed_sizes_steal_from_the_largest_share(self):
        index = build_sharded(num_shards=4)
        index._split_buffer_capacity(5, [96, 2, 1, 1])
        caps = [shard.buffer.capacity for shard in index.shards]
        assert caps == [2, 1, 1, 1]  # aggregate stays exact: donors had spare

    def test_zero_capacity_stays_zero(self):
        index = build_sharded(num_shards=4)
        index._split_buffer_capacity(0, [10, 10, 10, 10])
        assert [shard.buffer.capacity for shard in index.shards] == [0, 0, 0, 0]

    def test_empty_shard_gets_no_frame(self):
        index = build_sharded(num_shards=4)
        index._split_buffer_capacity(3, [10, 0, 10, 10])
        caps = [shard.buffer.capacity for shard in index.shards]
        assert caps[1] == 0
        assert all(cap >= 1 for i, cap in enumerate(caps) if i != 1)
        assert sum(caps) == 3

    def test_configured_percentage_respects_the_minimum(self):
        index = build_sharded(num_shards=4, num_objects=60)
        index.configure_buffer(1.0)  # tiny database: capacity < shard count
        for shard in index.shards:
            if len(shard.disk) > 0:
                assert shard.buffer.capacity >= 1
