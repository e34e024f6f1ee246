"""The online shard rebalancer: monitor, policy, planner, and the full loop.

A :class:`ShardRebalancer` attached to a :class:`ShardedIndex` watches
per-shard load, re-cuts the partition boundaries when the max/mean load
exceeds its threshold, and migrates the displaced objects — as bulk leaf
groups scheduled through the concurrent engine, interleaved with live client
traffic.  These tests cover every
layer: the load monitor's counters and I/O sampling, the trigger policy,
the weighted boundary planner, the plan/migrate cycle (serial and
scheduled), answer equivalence with a single index before, during ("mid
rebalance": boundaries installed, objects not yet moved) and after a
rebalance, and the spec/checkpoint round-trips.
"""

import random

import pytest

from repro.api import Update, index_spec, open_index
from repro.core import IndexConfig, MovingObjectIndex
from repro.core.persistence import load_index, save_index
from repro.geometry import Point, Rect
from repro.shard import (
    BoundaryPartitioner,
    GridPartitioner,
    RebalancePolicy,
    ShardedIndex,
    ShardLoadMonitor,
    ShardRebalancer,
    plan_boundaries,
)
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE


HOTSPOT_SPEC = WorkloadSpec(
    num_objects=600,
    num_updates=0,
    num_queries=0,
    seed=7,
    distribution="hotspot",
    hotspot_cells=2,
    hotspot_exponent=3.0,
)


def build_hotspot_sharded(rebalance=None, num_shards=4, strategy="TD"):
    spec = {
        "kind": "sharded",
        "shards": num_shards,
        "config": {
            "strategy": strategy,
            "page_size": SMALL_PAGE_SIZE,
            "buffer_percent": 0.0,
        },
        "engine": {"num_clients": 8},
    }
    if rebalance is not None:
        spec["rebalance"] = rebalance
    index = open_index(spec)
    index.load(WorkloadGenerator(HOTSPOT_SPEC).initial_objects())
    return index


def local_update_stream(index, count, seed=11, hot_only=True):
    """Seeded small-step updates, drawn mostly from the hot population."""
    rng = random.Random(seed)
    oids = sorted(index.object_directory())
    stream = []
    for _ in range(count):
        oid = rng.choice(oids)
        position = index.position_of(oid)
        stream.append(
            Update(
                oid,
                Point(
                    min(max(position.x + (rng.random() - 0.5) * 0.02, 0.0), 1.0),
                    min(max(position.y + (rng.random() - 0.5) * 0.02, 0.0), 1.0),
                ),
            )
        )
    return stream


class TestShardLoadMonitor:
    def test_counters_accumulate_per_shard(self):
        monitor = ShardLoadMonitor(3)
        monitor.record_update(0, 5)
        monitor.record_query(2, 2)
        assert monitor.loads() == [5.0, 0.0, 2.0]
        assert monitor.total_operations() == 7

    def test_imbalance_is_max_over_mean(self):
        monitor = ShardLoadMonitor(4)
        for _ in range(30):
            monitor.record_update(0)
        for shard in (1, 2, 3):
            monitor.record_update(shard, 10)
        assert monitor.imbalance() == pytest.approx(30 * 4 / 60)

    def test_idle_monitor_reads_as_balanced(self):
        assert ShardLoadMonitor(4).imbalance() == 1.0

    def test_io_sampling_reads_shard_statistics(self):
        index = build_hotspot_sharded()
        monitor = ShardLoadMonitor(index.num_shards)
        monitor.sample_io(index.shards)  # baseline marks
        mark = monitor.snapshot()
        index.range_query(Rect(0.0, 0.0, 0.3, 0.3))
        monitor.sample_io(index.shards)
        assert sum(monitor.since(mark).physical_io) > 0
        # A second sample with no traffic adds nothing.
        snapshot = list(monitor.physical_io)
        monitor.sample_io(index.shards)
        assert monitor.physical_io == snapshot


# One malformed ``rebalance`` section per entry, with the key its error names.
MALFORMED_REBALANCE = [
    ({"threshold": 1.0}, "threshold"),
    ({"nope": 1}, r"unknown spec keys \['nope'\] in 'rebalance'"),
    (5, "spec section 'rebalance' must be a mapping"),
    ({"cooldown": 1.7}, "cooldown"),
    ({"cooldown": True}, "cooldown"),
    ({"min_ops": "12"}, "min_ops"),
    ({"min_ops": -0.5}, "min_ops"),
    ({"threshold": float("nan")}, "threshold"),
    ({"threshold": float("inf")}, "threshold"),
    ({"rebalances": -1}, "rebalances"),
]


class TestRebalancePolicy:
    def test_requires_evidence_before_triggering(self):
        policy = RebalancePolicy(threshold=1.5, min_ops=10, cooldown=20)
        monitor = ShardLoadMonitor(2)
        monitor.record_update(0, 9)  # heavy skew, not enough evidence
        assert not policy.should_trigger(monitor, rebalances=0)
        monitor.record_update(0, 1)
        assert policy.should_trigger(monitor, rebalances=0)

    def test_cooldown_applies_after_the_first_rebalance(self):
        policy = RebalancePolicy(threshold=1.5, min_ops=5, cooldown=50)
        monitor = ShardLoadMonitor(2)
        monitor.record_update(0, 10)
        assert policy.should_trigger(monitor, rebalances=0)
        assert not policy.should_trigger(monitor, rebalances=1)

    def test_balanced_load_never_triggers(self):
        policy = RebalancePolicy(threshold=1.5, min_ops=1)
        monitor = ShardLoadMonitor(2)
        monitor.record_update(0, 50)
        monitor.record_update(1, 50)
        assert not policy.should_trigger(monitor, rebalances=0)

    def test_spec_round_trip(self):
        policy = RebalancePolicy(threshold=2.5, cooldown=123, min_ops=7)
        assert ShardRebalancer.from_spec(policy.to_spec(), 2).policy == policy

    @pytest.mark.parametrize(
        "section, match",
        MALFORMED_REBALANCE,
        ids=[repr(section) for section, _match in MALFORMED_REBALANCE],
    )
    def test_invalid_specs_rejected(self, section, match):
        with pytest.raises(ValueError, match=match):
            open_index({"shards": 2, "rebalance": section})


class TestBoundaryPlanner:
    def test_equal_weights_equalise_population(self):
        rng = random.Random(3)
        items = [
            (Point(rng.random() * 0.4, rng.random() * 0.4), 1.0)
            for _ in range(200)
        ]
        partitioner = plan_boundaries(items, 4)
        assert isinstance(partitioner, BoundaryPartitioner)
        counts = [0] * 4
        for point, _w in items:
            counts[partitioner.shard_of(point)] += 1
        assert max(counts) * 4 / sum(counts) < 1.5

    def test_partition_remains_total_over_the_unit_square(self):
        rng = random.Random(5)
        items = [(Point(rng.random(), rng.random()), rng.random()) for _ in range(50)]
        partitioner = plan_boundaries(items, 6)
        for x in (0.0, 0.25, 0.5, 0.999, 1.0):
            for y in (0.0, 0.5, 1.0):
                assert 0 <= partitioner.shard_of(Point(x, y)) < 6

    def test_degenerate_inputs_still_cover_the_square(self):
        # All-equal coordinates, and no items at all.
        same = [(Point(0.5, 0.5), 1.0)] * 10
        for items in (same, []):
            partitioner = plan_boundaries(items, 4)
            assert partitioner.num_shards == 4
            assert 0 <= partitioner.shard_of(Point(0.123, 0.987)) < 4

    def test_weighted_cut_shifts_boundaries_towards_the_load(self):
        # Heavy weight in the left quarter pulls the x-cut left of 0.5.
        items = [(Point(0.05 + 0.002 * i, 0.5), 10.0) for i in range(100)]
        items += [(Point(0.3 + 0.007 * i, 0.25), 0.1) for i in range(100)]
        partitioner = plan_boundaries(items, 2)
        boundary = partitioner.boundary(0)
        assert boundary.xmax < 0.5


class TestRebalanceCycle:
    def test_forced_rebalance_balances_a_hotspot(self):
        index = build_hotspot_sharded()
        before = index.population_imbalance()
        assert before > 1.5  # the hotspot concentrates the population
        report = index.rebalance(force=True)
        assert report.triggered
        assert report.moves > 0
        assert index.population_imbalance() < before
        assert index.population_imbalance() < 1.5
        index.validate()

    def test_unforced_rebalance_without_evidence_is_a_no_op(self):
        index = build_hotspot_sharded()
        report = index.rebalance()
        assert not report.triggered
        assert isinstance(index.partitioner, GridPartitioner)

    def test_unforced_rebalance_on_a_bare_index_builds_no_controller(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an unforced rebalance built a controller")

        monkeypatch.setattr("repro.shard.index.ShardRebalancer", refuse)
        index = build_hotspot_sharded()
        assert index.rebalancer is None
        report = index.rebalance()
        assert not report.triggered
        assert report.imbalance_before == report.imbalance_after
        assert report.imbalance_before == index.population_imbalance()

    def test_rebalance_preserves_answers(self):
        config = IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE)
        single = MovingObjectIndex(config)
        single.load(WorkloadGenerator(HOTSPOT_SPEC).initial_objects())
        index = build_hotspot_sharded()

        windows = [
            Rect(0.0, 0.0, 0.3, 0.3),
            Rect(0.2, 0.1, 0.6, 0.5),
            Rect(0.0, 0.0, 1.0, 1.0),
        ]

        def answers(facade):
            return (
                [sorted(facade.range_query(window)) for window in windows],
                [facade.knn(Point(x, y), 7) for x, y in ((0.1, 0.1), (0.7, 0.8))],
                {oid: facade.position_of(oid) for oid in range(600)},
            )

        expected = answers(single)
        assert answers(index) == expected
        index.rebalance(force=True)
        assert answers(index) == expected
        index.validate()

    def test_mid_rebalance_answers_stay_equivalent(self):
        """Between the boundary re-cut and the migrations, queries hold."""
        index = build_hotspot_sharded()
        rebalancer = ShardRebalancer(index.num_shards)
        rebalancer.restart(index.shards)
        plan = rebalancer.plan(index, force=True)
        assert plan is not None and plan.moves

        single = MovingObjectIndex(
            IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE)
        )
        single.load(WorkloadGenerator(HOTSPOT_SPEC).initial_objects())

        # Install the new boundaries WITHOUT migrating: the mid-rebalance
        # window every query during a live rebalance observes.
        index.partitioner = plan.partitioner
        windows = [Rect(0.0, 0.0, 0.25, 0.25), Rect(0.1, 0.1, 0.9, 0.9)]
        for window in windows:
            assert sorted(index.range_query(window)) == sorted(
                single.range_query(window)
            )
        for x, y in ((0.05, 0.05), (0.5, 0.5)):
            assert index.knn(Point(x, y), 9) == single.knn(Point(x, y), 9)
        # Updates during the window migrate lazily through the new routing.
        moving = plan.moves[0]
        position = index.position_of(moving)
        index.update(moving, position)
        assert index.shard_for(moving) == index.partitioner.shard_of(position)
        # Finish the rebalance: every object lands where it routes.
        for oid in plan.moves:
            index.reroute(oid)
        index.validate()

    def test_migrate_leaf_group_moves_a_planned_bucket(self):
        index = build_hotspot_sharded()
        rebalancer = ShardRebalancer(index.num_shards)
        rebalancer.restart(index.shards)
        plan = rebalancer.plan(index, force=True)
        index.partitioner = plan.partitioner
        assert plan.buckets
        source_id, leaf_page, members = plan.buckets[0]
        moved = index.migrate_leaf_group(source_id, leaf_page, members)
        assert moved == len(members)
        for oid in members:
            assert index.shard_for(oid) == index.partitioner.shard_of(
                index.position_of(oid)
            )

    def test_migrate_leaf_group_tolerates_drifted_members(self):
        index = build_hotspot_sharded()
        rebalancer = ShardRebalancer(index.num_shards)
        rebalancer.restart(index.shards)
        plan = rebalancer.plan(index, force=True)
        index.partitioner = plan.partitioner
        source_id, leaf_page, members = max(
            plan.buckets, key=lambda bucket: len(bucket[2])
        )
        # One member was deleted, one already migrated by a client update.
        index.delete(members[0])
        if len(members) > 1:
            index.update(members[1], index.position_of(members[1]))
        index.migrate_leaf_group(source_id, leaf_page, members)
        for oid in members[1:]:
            assert index.shard_for(oid) == index.partitioner.shard_of(
                index.position_of(oid)
            )
        # Finish the plan so the whole directory is consistent again.
        for oid in plan.moves:
            if oid in index:
                index.reroute(oid)
        index.validate()


class TestAutoTrigger:
    POLICY = {"threshold": 1.5, "min_ops": 100, "cooldown": 100_000}

    def test_engine_run_triggers_and_rebalances_inline(self):
        index = build_hotspot_sharded(rebalance=self.POLICY)
        before = index.population_imbalance()
        session = index.engine()
        result = session.engine.run(local_update_stream(index, 400))
        assert index.rebalancer.rebalances == 1
        assert result.kinds.get("rebalance", 0) > 0
        assert index.population_imbalance() < before
        index.validate()

    def test_engine_run_without_skew_never_triggers(self):
        # min_ops is the noise floor: with only ~100 operations of evidence
        # a uniform workload can transiently read as 1.5x imbalanced, so a
        # production policy wants a larger evidence window.
        spec = {
            "kind": "sharded",
            "shards": 4,
            "config": {"strategy": "TD", "page_size": SMALL_PAGE_SIZE},
            "engine": {"num_clients": 8},
            "rebalance": {"threshold": 1.5, "min_ops": 300, "cooldown": 100_000},
        }
        index = open_index(spec)
        index.load(
            WorkloadGenerator(
                WorkloadSpec(num_objects=600, num_updates=0, num_queries=0, seed=7)
            ).initial_objects()
        )
        index.engine().engine.run(local_update_stream(index, 400))
        assert index.rebalancer.rebalances == 0
        assert isinstance(index.partitioner, GridPartitioner)

    def test_engine_run_stays_equivalent_to_serial_replay(self):
        """Mid-rebalance engine traffic commits the same final state."""
        stream = None
        final = {}
        for attach in (False, True):
            index = build_hotspot_sharded(
                rebalance=self.POLICY if attach else None
            )
            if stream is None:
                stream = local_update_stream(index, 400)
            session = index.engine()
            session.engine.run(list(stream))
            index.validate()
            final[attach] = {
                oid: index.position_of(oid) for oid in range(600)
            }
        # The rebalancer moves objects between shards but never changes what
        # the facade answers: both runs commit identical final positions.
        assert final[False] == final[True]

    def test_serial_batch_path_triggers_after_the_batch(self):
        index = build_hotspot_sharded(
            rebalance={"threshold": 1.5, "min_ops": 50, "cooldown": 100_000}
        )
        before = index.population_imbalance()
        index.execute_many(local_update_stream(index, 200))
        assert index.rebalancer.rebalances == 1
        assert index.population_imbalance() < before
        index.validate()

    def test_rebalance_migrations_do_not_refill_the_evidence_window(self):
        """Regression: the rebalancer's own migration traffic must not land
        in the load monitor, or a re-cut displacing more objects than the
        cooldown re-satisfies the trigger gate by itself and storms into
        back-to-back rebalances."""
        index = build_hotspot_sharded(
            rebalance={"threshold": 1.5, "min_ops": 100, "cooldown": 150}
        )
        # Sustained hotspot traffic with a small cooldown: one decisive
        # rebalance (the hot region is re-cut and the skew is gone), not one
        # per cooldown window.
        session = index.engine()
        session.engine.run(local_update_stream(index, 600))
        assert index.rebalancer.rebalances == 1
        # A forced serial rebalance likewise leaves the window empty: the
        # migrations themselves were never recorded as load.
        fresh = build_hotspot_sharded(
            rebalance={"threshold": 1.5, "min_ops": 100, "cooldown": 150}
        )
        fresh.rebalance(force=True)
        assert fresh.rebalancer.window().total_operations() == 0

    def test_rebalancer_survives_gbu_strategy(self):
        index = build_hotspot_sharded(
            rebalance=self.POLICY, strategy="GBU"
        )
        index.engine().engine.run(local_update_stream(index, 400))
        assert index.rebalancer.rebalances == 1
        index.validate()


class TestSpecAndPersistence:
    def test_builder_spec_round_trip(self):
        spec = {
            "kind": "sharded",
            "shards": 4,
            "config": {"strategy": "TD", "page_size": SMALL_PAGE_SIZE},
            "rebalance": {"threshold": 2.0, "cooldown": 300, "min_ops": 64},
        }
        index = open_index(spec)
        assert index.rebalancer is not None
        assert index.rebalancer.policy.threshold == 2.0
        emitted = index_spec(index)
        assert emitted["rebalance"] == {
            "threshold": 2.0,
            "cooldown": 300,
            "min_ops": 64,
        }
        assert index_spec(open_index(emitted)) == emitted

    def test_rebalance_section_on_a_single_index_stays_one_shard(self):
        index = open_index({"kind": "single", "rebalance": {"threshold": 2.0}})
        assert index.num_shards == 1 and index.rebalancer.policy.threshold == 2.0
        saved = index_spec(index)
        assert saved["kind"] == "single" and "partitioner" not in saved
        assert index_spec(open_index(saved)) == saved
        with pytest.raises(ValueError, match="single"):
            open_index(saved, shards=4)

    def test_checkpoint_preserves_rebalancer_state(self, tmp_path):
        index = build_hotspot_sharded(
            rebalance={"threshold": 1.5, "min_ops": 10, "cooldown": 100_000}
        )
        index.rebalance(force=True)
        assert index.rebalancer.rebalances == 1
        path = tmp_path / "rebalanced.ckpt"
        save_index(index, path)
        restored = load_index(path)
        assert isinstance(restored, ShardedIndex)
        assert restored.rebalancer is not None
        assert restored.rebalancer.policy == index.rebalancer.policy
        assert restored.rebalancer.rebalances == 1
        # The re-cut boundaries travelled with the checkpoint too.
        assert isinstance(restored.partitioner, BoundaryPartitioner)
        assert restored.partitioner.to_spec() == index.partitioner.to_spec()
        restored.validate()
        # Positions travel through the 32-bit on-page entry format.
        for oid in range(600):
            original = index.position_of(oid)
            position = restored.position_of(oid)
            assert position.x == pytest.approx(original.x, abs=1e-6)
            assert position.y == pytest.approx(original.y, abs=1e-6)

    def test_plain_sharded_checkpoint_has_no_rebalancer(self, tmp_path):
        index = build_hotspot_sharded()
        path = tmp_path / "plain.ckpt"
        save_index(index, path)
        assert load_index(path).rebalancer is None
