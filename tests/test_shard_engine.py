"""Concurrent execution over a sharded index: per-shard DGL lock scopes."""

import pytest

from repro.api import Delete, Insert, InvalidOperationError, RangeQuery, Update
from repro.core import IndexConfig
from repro.geometry import Point, Rect
from repro.shard import GridPartitioner, ShardedIndex
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE


def build_sharded(num_shards=2, strategy="GBU", num_objects=400, seed=3):
    spec = WorkloadSpec(
        num_objects=num_objects, num_updates=0, num_queries=0, seed=seed
    )
    generator = WorkloadGenerator(spec)
    index = ShardedIndex(
        IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
        partitioner=GridPartitioner.for_shards(num_shards),
    )
    index.load(generator.initial_objects())
    return index, generator


def shard_namespaces(pairs):
    """The shard ids named by a namespaced lock-request list."""
    return {granule[0] for granule, _mode in pairs}


class TestShardedLockScopes:
    def test_in_shard_update_locks_only_its_shard(self):
        index, _ = build_sharded(num_shards=2)
        oid = next(
            oid for oid in range(400) if index.shard_for(oid) == 0
        )
        position = index.position_of(oid)
        pairs = index.lock_requests_for(Update(oid, position))
        assert shard_namespaces(pairs) == {0}

    def test_migration_locks_both_shards(self):
        index, _ = build_sharded(num_shards=2)
        oid = next(oid for oid in range(400) if index.shard_for(oid) == 0)
        across = Point(0.95, index.position_of(oid).y)
        assert index.partitioner.shard_of(across) == 1
        pairs = index.lock_requests_for(Update(oid, across))
        assert shard_namespaces(pairs) == {0, 1}

    def test_batch_migration_locks_its_update_scope(self):
        index, _ = build_sharded(num_shards=2)
        oid = next(oid for oid in range(400) if index.shard_for(oid) == 0)
        across = Point(0.95, index.position_of(oid).y)
        (migration,) = index.prepare_concurrent_batch([Update(oid, across)]).operations
        # Reported under its own label, scheduled under the update's scope.
        assert migration.kind == "migration"
        assert migration.lock_scope() == index.lock_requests_for(Update(oid, across))
        assert shard_namespaces(migration.lock_scope()) == {0, 1}

    def test_query_locks_exactly_the_intersecting_shards(self):
        index, _ = build_sharded(num_shards=2)
        left_only = Rect(0.05, 0.05, 0.2, 0.2)
        straddling = Rect(0.4, 0.4, 0.6, 0.6)
        assert shard_namespaces(index.lock_requests_for(RangeQuery(left_only))) == {0}
        assert shard_namespaces(index.lock_requests_for(RangeQuery(straddling))) == {0, 1}

    def test_delete_of_absent_object_locks_nothing(self):
        index, _ = build_sharded()
        assert index.lock_requests_for(Delete(999_999)) == []

    def test_non_operation_rejected(self):
        index, _ = build_sharded()
        with pytest.raises(InvalidOperationError):
            index.lock_requests_for(("compact",))


class TestShardedSessions:
    def test_operations_on_different_shards_never_conflict(self):
        """Two clients hammering two different shards must schedule with
        zero lock waits: every granule, including each shard's tree and
        external granules, is namespaced per shard."""
        index, _ = build_sharded(num_shards=2)
        left = [oid for oid in range(400) if index.shard_for(oid) == 0][:20]
        right = [oid for oid in range(400) if index.shard_for(oid) == 1][:20]
        session = index.engine(num_clients=2)
        for oid in left:
            session.submit(0, Update(oid, index.position_of(oid)))
        for oid in right:
            session.submit(1, Update(oid, index.position_of(oid)))
        result = session.run()
        assert result.operations == 40
        assert result.lock_waits == 0
        index.validate()

    def test_same_leaf_operations_still_conflict(self):
        index, _ = build_sharded(num_shards=2)
        oid = next(o for o in range(400) if index.shard_for(o) == 0)
        position = index.position_of(oid)
        session = index.engine(num_clients=2)
        # both clients write the same object's leaf granule in shard 0
        session.submit(0, Update(oid, position))
        session.submit(1, Update(oid, position))
        result = session.run()
        assert result.lock_waits > 0

    def test_mixed_run_is_deterministic(self):
        def once():
            index, generator = build_sharded(num_shards=4)
            session = index.engine(num_clients=8)
            result = session.run_mixed(generator, 200, update_fraction=0.7)
            return result.makespan, result.lock_waits, result.kinds

        assert once() == once()

    def test_insert_delete_and_query_operations(self):
        index, _ = build_sharded(num_shards=4)
        session = index.engine(num_clients=3)
        session.submit(0, Insert(5_000, Point(0.1, 0.1)))
        session.submit(1, Delete(7))
        session.submit(2, RangeQuery(Rect(0.0, 0.0, 1.0, 1.0)))
        result = session.run()
        assert result.operations == 3
        assert 5_000 in index
        assert 7 not in index
        index.validate()

    def test_client_ledger_sums_across_shards(self):
        index, generator = build_sharded(num_shards=4, strategy="LBU")
        session = index.engine(num_clients=6)
        before = index.io_snapshot()
        result = session.run_mixed(generator, 150, update_fraction=0.8)
        delta = index.io_snapshot().delta_since(before)
        assert delta.total_physical_io > 0
        assert (
            sum(report.physical_io for report in result.clients.values())
            == delta.total_physical_io
        )


class TestShardedBatchScheduling:
    def test_run_batch_migrates_and_applies_everything(self):
        index, generator = build_sharded(num_shards=4)
        session = index.engine(num_clients=8)
        updates = [Update(oid, new) for oid, _old, new in generator.updates(500)]
        result = session.engine.run_batch(updates)
        assert result.batch.updates == 500
        assert result.batch.migrations > 0
        assert result.schedule.kinds.get("migration", 0) == result.batch.migrations
        assert result.schedule.kinds.get("group", 0) > 0
        final = {update.oid: update.new_location for update in updates}
        for oid, expected in final.items():
            assert index.position_of(oid) == expected
        index.validate()

    def test_batch_scheduling_is_deterministic(self):
        def once():
            index, generator = build_sharded(num_shards=4)
            updates = [Update(oid, new) for oid, _old, new in generator.updates(400)]
            result = index.engine(num_clients=8).engine.run_batch(updates)
            return result.makespan, result.schedule.lock_waits

        assert once() == once()


class TestMultiShardMakespan:
    def test_four_shards_beat_one_shard_on_uniform_updates(self):
        """The tentpole claim, scaled down: the same pure-update stream at
        the same client count finishes strictly earlier on 4 shards than on
        1 (shorter per-shard trees; conflict-free cross-shard scheduling).
        TD is the strategy whose update cost scales with tree height."""
        makespans = {}
        for num_shards in (1, 4):
            spec = WorkloadSpec(
                num_objects=1_000, num_updates=0, num_queries=0, seed=1
            )
            generator = WorkloadGenerator(spec)
            index = ShardedIndex(
                IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE, buffer_percent=0.0),
                partitioner=GridPartitioner.for_shards(num_shards),
            )
            index.load(generator.initial_objects())
            session = index.engine(num_clients=16)
            result = session.run_mixed(generator, 300, update_fraction=1.0)
            makespans[num_shards] = result.makespan
            index.validate()
        assert makespans[4] < makespans[1]
