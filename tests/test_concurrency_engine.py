"""Tests for the online operation engine, lock scopes and the session facade."""

import random

import pytest

from repro.api import KNN, Delete, Insert, InvalidOperationError, RangeQuery, Update
from repro.concurrency import EXTERNAL_GRANULE, TREE_GRANULE, LockManager, LockMode
from repro.concurrency.dgl import namespace_pairs
from repro.concurrency.locks import strongest_mode
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect
from repro.shard import ShardedIndex
from repro.update.base import BatchUpdate
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE


def _generator(num_objects, seed, **spec_overrides):
    return WorkloadGenerator(
        WorkloadSpec(
            num_objects=num_objects,
            num_updates=0,
            num_queries=0,
            seed=seed,
            query_max_side=0.15,
            **spec_overrides,
        )
    )


def loaded(strategy, num_objects=800, seed=3, **spec_overrides):
    """A loaded shard engine and the generator it was loaded from."""
    generator = _generator(num_objects, seed, **spec_overrides)
    index = MovingObjectIndex(IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE))
    index.load(generator.initial_objects())
    return index, generator


def opened(strategy, num_objects=800, seed=3, **spec_overrides):
    """:func:`loaded`'s index behind the facade: one shard, what
    ``open_index({"kind": "single"})`` builds."""
    generator = _generator(num_objects, seed, **spec_overrides)
    index = ShardedIndex(
        IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE), num_shards=1
    )
    index.load(generator.initial_objects())
    return index, generator


def granules(requests):
    return {request.granule for request in requests}


class TestLockScopes:
    def test_every_update_scope_includes_the_tree_intention(self):
        for strategy in ("TD", "NAIVE", "LBU", "GBU"):
            index, generator = loaded(strategy, num_objects=400)
            oid, old, new = next(generator.updates(1))
            scope = index.strategy.lock_scope(oid, old, new)
            assert TREE_GRANULE in granules(scope)

    def test_bottom_up_scope_takes_fewer_exclusive_granules_than_top_down(self):
        """Section 3.2.2's asymmetry as lock footprints: over a workload the
        bottom-up strategy takes fewer *exclusive* granule locks — the kind
        that blocks other clients — than the top-down strategy, whose two
        descents lock every leaf they may visit exclusively.  (GBU's scopes
        can contain more granules in total, but the surplus is intention
        locks on ancestors, which are mutually compatible.)"""

        def exclusive_total(index, requests):
            return sum(
                sum(
                    1
                    for request in index.strategy.lock_scope(oid, old, new)
                    if request.mode == LockMode.EXCLUSIVE
                )
                for oid, old, new in requests
            )

        index_td, generator = loaded("TD", num_objects=800, seed=5)
        index_gbu, _ = loaded("GBU", num_objects=800, seed=5)
        requests = list(generator.updates(50))
        assert exclusive_total(index_gbu, requests) < exclusive_total(index_td, requests)

    def test_zero_distance_move_locks_exactly_one_leaf_exclusively(self):
        index, _ = loaded("GBU", num_objects=800, seed=5)
        oid = 0
        old = index.position_of(oid)
        scope = index.strategy.lock_scope(oid, old, Point(old.x, old.y))
        exclusive = [
            request for request in scope if request.mode == LockMode.EXCLUSIVE
        ]
        assert len(exclusive) == 1  # exactly the object's leaf granule

    def test_in_place_scope_is_the_objects_leaf(self):
        index, _ = loaded("GBU", num_objects=400)
        oid = 7
        position = index.position_of(oid)
        scope = index.strategy.lock_scope(oid, position, position)
        leaf_page = index.hash_index.peek(oid)
        assert granules(scope) == {leaf_page, TREE_GRANULE}

    def test_insert_outside_root_mbr_locks_external_granule(self):
        index, _ = loaded("GBU", num_objects=300)
        scope = index.strategy.insert_lock_scope(Point(5.0, 5.0))
        assert EXTERNAL_GRANULE in granules(scope)

    def test_query_scope_is_shared_on_visited_leaves(self):
        index, _ = loaded("TD", num_objects=400)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        scope = index.strategy.query_lock_scope(window)
        visited = set(index.tree.predict_visited_leaves(window))
        assert visited
        for request in scope:
            if request.granule == TREE_GRANULE:
                assert request.mode == LockMode.INTENTION_SHARED
            else:
                assert request.granule in visited
                assert request.mode == LockMode.SHARED

    def test_group_scope_locks_the_leaf_exclusively(self):
        for strategy in ("TD", "NAIVE", "LBU", "GBU"):
            index, generator = loaded(strategy, num_objects=400)
            oid, old, new = next(generator.updates(1))
            leaf_page = index.hash_index.peek(oid)
            scope = index.strategy.group_lock_scope(
                leaf_page, [BatchUpdate(oid, old, new)]
            )
            by_granule = {request.granule: request.mode for request in scope}
            assert by_granule[leaf_page] == LockMode.EXCLUSIVE
            assert TREE_GRANULE in by_granule

    @pytest.mark.parametrize("strategy", ["NAIVE", "LBU", "GBU"])
    def test_scope_of_a_bucket_of_one_is_lock_scope(self, strategy):
        """One scope ladder per strategy: a one-member bucket predicts what
        the per-operation update predicts, escaping members included."""
        index, _ = loaded(strategy, num_objects=500, seed=9)
        escaping = 0
        for request in scoped_moves(index):
            leaf_page = index.hash_index.peek(request.oid)
            expected = index.strategy.lock_scope(*request)
            assert index.strategy.group_lock_scope(leaf_page, [request]) == expected
            escaping += len(granules(expected)) > 2
        assert escaping >= 20

    @pytest.mark.parametrize("strategy", ["NAIVE", "LBU", "GBU"])
    def test_scope_of_a_bucket_covers_every_member(self, strategy):
        index, _ = loaded(strategy, num_objects=500, seed=9)
        buckets = {}
        for request in scoped_moves(index):
            buckets.setdefault(index.hash_index.peek(request.oid), []).append(request)
        shared = 0
        for leaf_page, bucket in buckets.items():
            held = {
                request.granule: request.mode
                for request in index.strategy.group_lock_scope(leaf_page, bucket)
            }
            for member in bucket:
                for request in index.strategy.lock_scope(*member):
                    mode = held[request.granule]
                    assert strongest_mode(mode, request.mode) == mode
            shared += len(bucket) > 1
        assert shared >= 10


def scoped_moves(index, count=160, seed=12):
    """One request per object: in place, just outside the leaf, or far away."""
    rng = random.Random(seed)
    requests = []
    for oid in rng.sample(range(len(index)), count):
        old = index.position_of(oid)
        reach = rng.choice((0.0, 0.01, 0.05, 0.3))
        new = Point(
            min(1.0, max(0.0, old.x + rng.uniform(-reach, reach))),
            min(1.0, max(0.0, old.y + rng.uniform(-reach, reach))),
        )
        requests.append(BatchUpdate(oid, old, new))
    return requests


class TestScopesCoverWhatOperationsTouch:
    """Predicted scopes against the live index, for every strategy: the
    granules an operation needs are the granules its scope names."""

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_query_scope_covers_the_leaf_of_every_result(self, strategy):
        index, generator = loaded(strategy, num_objects=400)
        found = 0
        for window in generator.queries(20):
            shared = {
                request.granule
                for request in index.strategy.query_lock_scope(window)
                if request.mode == LockMode.SHARED
            }
            for oid in index.range_query(window):
                assert index.hash_index.peek(oid) in shared
                found += 1
        assert found >= 20

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_update_scope_locks_the_objects_leaf_exclusively(self, strategy):
        index, _ = loaded(strategy, num_objects=400)
        for request in scoped_moves(index, count=60):
            held = {
                granule.granule: granule.mode
                for granule in index.strategy.lock_scope(*request)
            }
            assert held[index.hash_index.peek(request.oid)] == LockMode.EXCLUSIVE

    @pytest.mark.parametrize("strategy", ["TD", "NAIVE", "LBU", "GBU"])
    def test_update_conflicts_with_a_query_over_its_old_position(self, strategy):
        """Section 3.2.2's consistency argument on predicted scopes: a query
        that could return the object cannot run beside its update."""
        index, _ = loaded(strategy, num_objects=400)
        for request in scoped_moves(index, count=60):
            manager = LockManager()
            assert manager.try_acquire_all(index.strategy.lock_scope(*request), "updater")
            query = index.strategy.query_lock_scope(Rect.from_point(request.old_location))
            assert not manager.try_acquire_all(query, "reader")

    def test_delete_scope_locks_the_objects_leaf_exclusively(self):
        index, _ = loaded("GBU", num_objects=400)
        for oid in range(0, 400, 7):
            held = {
                request.granule: request.mode
                for request in index.strategy.delete_lock_scope(oid, index.position_of(oid))
            }
            assert held[index.hash_index.peek(oid)] == LockMode.EXCLUSIVE
            assert held[TREE_GRANULE] == LockMode.INTENTION_EXCLUSIVE

    def test_insert_lands_in_the_predicted_leaf(self):
        """Without a split, a new object goes to the leaf its scope locks."""
        index, _ = loaded("GBU", num_objects=400)
        rng = random.Random(4)
        checked = 0
        for oid in range(10_000, 10_040):
            location = Point(rng.random(), rng.random())
            predicted = {
                request.granule
                for request in index.strategy.insert_lock_scope(location)
                if request.mode == LockMode.EXCLUSIVE
            }
            pages = len(index.tree.disk)
            index.insert(oid, location)
            if len(index.tree.disk) == pages:
                assert index.hash_index.peek(oid) in predicted
                checked += 1
        assert checked >= 20


class TestSingleIndexLockScopes:
    """``lock_requests_for`` dispatches each typed op to its strategy hook;
    a single index names its granules in shard 0's namespace."""

    @pytest.fixture
    def index(self):
        return opened("GBU", num_objects=300)[0]

    @staticmethod
    def pairs(requests):
        return namespace_pairs(requests, 0)

    def test_update_of_a_known_object_is_the_strategy_lock_scope(self, index):
        old, new = index.position_of(3), Point(0.52, 0.48)
        strategy = index.shards[0].strategy
        assert index.lock_requests_for(Update(3, new)) == self.pairs(
            strategy.lock_scope(3, old, new)
        )

    def test_update_of_an_unknown_object_is_the_insert_scope(self, index):
        new = Point(0.52, 0.48)
        strategy = index.shards[0].strategy
        assert index.lock_requests_for(Update(99_999, new)) == self.pairs(
            strategy.insert_lock_scope(new)
        )

    def test_insert_is_the_insert_scope(self, index):
        location = Point(0.1, 0.9)
        strategy = index.shards[0].strategy
        assert index.lock_requests_for(Insert(99_999, location)) == self.pairs(
            strategy.insert_lock_scope(location)
        )

    def test_delete_of_an_absent_object_locks_nothing(self, index):
        assert index.lock_requests_for(Delete(99_999)) == []

    def test_range_query_is_the_query_scope(self, index):
        window = Rect(0.2, 0.2, 0.4, 0.5)
        strategy = index.shards[0].strategy
        assert index.lock_requests_for(RangeQuery(window)) == self.pairs(
            strategy.query_lock_scope(window)
        )

    def test_knn_is_the_query_scope_of_the_root_mbr(self, index):
        shard = index.shards[0]
        assert index.lock_requests_for(KNN(Point(0.5, 0.5), 4)) == self.pairs(
            shard.strategy.query_lock_scope(shard.tree.root_mbr())
        )

    def test_a_tuple_is_rejected(self, index):
        with pytest.raises(InvalidOperationError):
            index.lock_requests_for(("update", 3, Point(0.5, 0.5)))


class TestConcurrentSession:
    def test_submit_and_run_per_client_queues(self):
        index, _ = opened("GBU", num_objects=300)
        session = index.engine(num_clients=4)
        target_a = Point(0.5, 0.5)
        target_b = Point(0.25, 0.75)
        session.submit(0, Update(1, target_a))
        session.submit(1, Update(2, target_b))
        session.submit(2, RangeQuery(Rect(0.0, 0.0, 1.0, 1.0)))
        assert session.pending() == 3
        result = session.run()
        assert session.pending() == 0
        assert result.operations == 3
        assert index.position_of(1) == target_a
        assert index.position_of(2) == target_b
        index.validate()

    def test_submit_rejects_unknown_client(self):
        index, _ = opened("GBU", num_objects=300)
        session = index.engine(num_clients=2)
        with pytest.raises(ValueError):
            session.submit(2, RangeQuery(Rect(0.0, 0.0, 1.0, 1.0)))

    def test_insert_and_delete_operations(self):
        index, _ = opened("GBU", num_objects=300)
        session = index.engine(num_clients=2)
        new_oid = 10_000
        session.submit(0, Insert(new_oid, Point(0.4, 0.4)))
        session.submit(1, Delete(5))
        result = session.run()
        assert result.operations == 2
        assert new_oid in index
        assert 5 not in index
        index.validate()

    def test_run_mixed_deals_the_generator_stream(self):
        index, generator = opened("GBU", num_objects=500)
        session = index.engine(num_clients=8)
        result = session.run_mixed(generator, num_operations=120, update_fraction=0.5)
        assert result.operations == 120
        assert result.num_clients == 8
        index.validate()

    def test_client_ledger_sums_to_index_physical_io(self):
        index, generator = opened("LBU", num_objects=500)
        session = index.engine(num_clients=6)
        before = index.io_snapshot()
        result = session.run_mixed(generator, num_operations=150, update_fraction=0.7)
        delta = index.io_snapshot().delta_since(before)
        # Page transfers and charged hash-index probes, every one on a client.
        assert delta.total_physical_io > 0
        assert (
            sum(report.physical_io for report in result.clients.values())
            == delta.total_physical_io
        )

    def test_client_streams_preserve_the_workload(self):
        spec = WorkloadSpec(num_objects=300, num_updates=0, num_queries=0, seed=13)
        shared = list(WorkloadGenerator(spec).operations(60, 0.5))
        streams = WorkloadGenerator(spec).client_streams(4, 60, 0.5)
        assert sum(len(stream) for stream in streams) == 60
        # Round-robin dealing: re-interleaving the streams restores the order.
        restored = []
        for position in range(60):
            restored.append(streams[position % 4][position // 4])
        assert restored == shared


class TestConflictAwareBatchScheduling:
    @pytest.mark.parametrize("strategy", ["LBU", "GBU"])
    def test_concurrent_groups_beat_serial_execution(self, strategy):
        """Partitioning leaf groups into disjoint granule lock sets must yield
        a strictly lower makespan than draining the same groups serially
        (acceptance criterion, scaled down from the 10k benchmark)."""
        spec = WorkloadSpec(
            num_objects=1200,
            num_updates=2500,
            num_queries=0,
            distribution="gaussian",
            seed=7,
        )
        makespans = {}
        for label, clients in (("serial", 1), ("concurrent", 16)):
            generator = WorkloadGenerator(spec)
            index = ShardedIndex(IndexConfig(strategy=strategy), num_shards=1)
            index.load(generator.initial_objects())
            ops = [Update(oid, new) for oid, _old, new in generator.updates()]
            result = index.engine(num_clients=clients).engine.run_batch(ops)
            index.validate()
            makespans[label] = result.makespan
            assert result.batch.updates == 2500
        assert makespans["concurrent"] < makespans["serial"]

    def test_run_batch_applies_all_updates(self):
        index, generator = opened("GBU", num_objects=600)
        session = index.engine(num_clients=8)
        updates = [Update(oid, new) for oid, _old, new in generator.updates(300)]
        result = session.engine.run_batch(updates)
        assert result.batch.updates == 300
        index.validate()
        final = {update.oid: update.new_location for update in updates}
        for oid, expected in final.items():
            assert index.position_of(oid) == expected

    @pytest.mark.parametrize("bad", [RangeQuery(Rect(0.0, 0.0, 0.5, 0.5)), (3, Point(0.5, 0.5))])
    def test_run_batch_rejects_a_non_update_before_committing(self, bad):
        index, _ = opened("GBU", num_objects=200)
        positions = {oid: index.position_of(oid) for oid in range(200)}
        batch = [Update(1, Point(0.77, 0.77)), bad, Update(2, Point(0.1, 0.1))]
        with pytest.raises(InvalidOperationError):
            index.engine(num_clients=4).engine.run_batch(batch)
        assert {oid: index.position_of(oid) for oid in range(200)} == positions
        index.validate()

    def test_run_batch_keeps_facade_positions_in_sync(self):
        """Direct engine.run_batch must update the facade's position map, or
        a later per-op update would hand the strategy a stale old position."""
        index, generator = opened("GBU", num_objects=400)
        updates = list(generator.updates(200))
        ops = [Update(oid, new) for oid, _old, new in updates]
        index.engine(num_clients=8).engine.run_batch(ops)
        final = {oid: new for oid, _old, new in updates}
        for oid, expected in final.items():
            assert index.position_of(oid) == expected
        moved_oid = next(iter(final))
        index.update(moved_oid, Point(0.42, 0.24))
        index.validate()

    def test_batch_scheduling_is_deterministic(self):
        def run_once():
            spec = WorkloadSpec(
                num_objects=800,
                num_updates=1200,
                num_queries=0,
                distribution="gaussian",
                seed=21,
            )
            generator = WorkloadGenerator(spec)
            index = ShardedIndex(IndexConfig(strategy="GBU"), num_shards=1)
            index.load(generator.initial_objects())
            ops = [Update(oid, new) for oid, _old, new in generator.updates()]
            return index.engine(num_clients=12).engine.run_batch(ops)

        first, second = run_once(), run_once()
        assert first.makespan == second.makespan
        assert first.schedule.lock_waits == second.schedule.lock_waits
