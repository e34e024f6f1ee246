"""Cost-model-driven per-shard strategy selection: the adaptive controller.

Every layer of the feedback loop: the monitor's ``update_query_mix()`` view
(ratio + totals), the evidence/cooldown policy and its spec codec, the
``strategy_costs`` ranking (does the Section 4 model pick the right winner
for the regimes the calibration benchmark measures?), the controller's
trigger/decide/commit cycle, and the full loop on a live
:class:`ShardedIndex` — a hot-cell update-heavy shard must converge to TD
while a buffer-thrashing query-heavy shard converges to GBU, and the
controller's state must survive a checkpoint round trip.
"""

import random

import pytest

from repro.api import Update, open_index
from repro.core.persistence import load_index, save_index
from repro.cost.model import TreeShape
from repro.geometry import Point, Rect
from repro.shard import (
    AdaptiveStrategyController,
    AdaptiveStrategyPolicy,
    ShardLoadMonitor,
    strategy_costs,
)
from repro.shard.adaptive import (
    DEFAULT_MOVE_DISTANCE,
    leaf_level_query_accesses,
)
from repro.shard.rebalance import UpdateQueryMix

from tests.conftest import build_index


class TestUpdateQueryMix:
    def test_totals_and_fractions(self):
        mix = UpdateQueryMix(updates=30, queries=10)
        assert mix.total == 40
        assert mix.update_fraction == pytest.approx(0.75)
        assert mix.query_fraction == pytest.approx(0.25)

    def test_idle_mix_has_zero_fractions(self):
        mix = UpdateQueryMix(updates=0, queries=0)
        assert mix.total == 0
        assert mix.update_fraction == 0.0
        assert mix.query_fraction == 0.0

    def test_monitor_exposes_per_shard_mix(self):
        monitor = ShardLoadMonitor(3)
        monitor.record_update(0, 8)
        monitor.record_query(0, 2)
        monitor.record_query(2, 5)
        mixes = monitor.update_query_mix()
        assert [m.updates for m in mixes] == [8, 0, 0]
        assert [m.queries for m in mixes] == [2, 0, 5]
        assert mixes[0].update_fraction == pytest.approx(0.8)
        assert mixes[1].total == 0

    def test_mix_resets_with_the_monitor(self):
        monitor = ShardLoadMonitor(2)
        monitor.record_update(1, 4)
        monitor.reset()
        assert all(m.total == 0 for m in monitor.update_query_mix())


class TestAdaptiveStrategyPolicy:
    def test_defaults(self):
        policy = AdaptiveStrategyPolicy()
        assert policy.cooldown == 400
        assert policy.min_ops == 128

    def test_negative_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveStrategyPolicy(cooldown=-1)
        with pytest.raises(ValueError):
            AdaptiveStrategyPolicy(min_ops=-5)

    def test_evidence_required_grows_after_first_switch(self):
        policy = AdaptiveStrategyPolicy(cooldown=500, min_ops=100)
        assert policy.evidence_required(0) == 100
        assert policy.evidence_required(1) == 500
        assert policy.evidence_required(3) == 500

    def test_cooldown_never_below_min_ops(self):
        policy = AdaptiveStrategyPolicy(cooldown=50, min_ops=200)
        assert policy.evidence_required(1) == 200

    def test_spec_round_trip(self):
        policy = AdaptiveStrategyPolicy(cooldown=700, min_ops=9)
        assert AdaptiveStrategyPolicy.from_spec(policy.to_spec()) == policy

    def test_partial_spec_fills_defaults(self):
        policy = AdaptiveStrategyPolicy.from_spec({"cooldown": 250})
        assert policy == AdaptiveStrategyPolicy(cooldown=250)

    def test_unknown_spec_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive spec keys"):
            AdaptiveStrategyPolicy.from_spec({"cool_down": 250})


def loaded_shape(seed=3, num_objects=400):
    index = build_index("TD", num_objects=num_objects, seed=seed)
    return TreeShape.from_tree(index.tree)


class TestStrategyCosts:
    def test_every_candidate_gets_a_non_negative_cost(self):
        shape = loaded_shape()
        costs = strategy_costs(
            shape,
            UpdateQueryMix(updates=100, queries=100),
            miss_ratio=0.5,
            distance=0.02,
        )
        assert sorted(costs) == ["GBU", "LBU", "NAIVE", "TD"]
        assert all(value >= 0.0 for value in costs.values())

    def test_hot_buffer_update_shard_favours_top_down(self):
        # A cached working set makes tree descents nearly free while every
        # bottom-up update still pays its unbuffered hash probe.
        shape = loaded_shape()
        costs = strategy_costs(
            shape,
            UpdateQueryMix(updates=1000, queries=0),
            miss_ratio=0.05,
            distance=0.01,
        )
        assert min(costs, key=costs.get) == "TD"

    def test_thrashing_query_shard_favours_gbu(self):
        # All tree reads miss: the summary's leaf-only query path dominates.
        shape = loaded_shape()
        costs = strategy_costs(
            shape,
            UpdateQueryMix(updates=100, queries=900),
            miss_ratio=1.0,
            distance=0.02,
        )
        assert min(costs, key=costs.get) == "GBU"
        assert costs["GBU"] < costs["TD"]
        assert costs["GBU"] < costs["LBU"]

    def test_without_summary_queries_gbu_loses_its_query_edge(self):
        shape = loaded_shape()
        mix = UpdateQueryMix(updates=0, queries=500)
        with_summary = strategy_costs(
            shape, mix, miss_ratio=1.0, distance=0.02,
            use_summary_for_queries=True,
        )
        without = strategy_costs(
            shape, mix, miss_ratio=1.0, distance=0.02,
            use_summary_for_queries=False,
        )
        assert with_summary["GBU"] < without["GBU"]
        assert without["GBU"] == pytest.approx(without["TD"])

    def test_hash_probe_is_charged_with_a_perfect_buffer(self):
        # Tree pages scale with the miss ratio but the probe bypasses the
        # buffer pool: with every page cached only the probes remain.
        costs = strategy_costs(
            loaded_shape(),
            UpdateQueryMix(updates=1000, queries=0),
            miss_ratio=0.0,
            distance=0.005,
        )
        assert costs["TD"] == 0.0
        for name in ("NAIVE", "LBU", "GBU"):
            assert costs[name] == pytest.approx(1000.0)

    def test_leaf_level_accesses_are_a_lower_bound_on_the_full_query(self):
        from repro.cost.model import expected_query_node_accesses

        shape = loaded_shape()
        leaf_only = leaf_level_query_accesses(shape, 0.1, 0.1)
        assert 0.0 < leaf_only < expected_query_node_accesses(shape, 0.1, 0.1)


class TestAdaptiveStrategyController:
    def test_requires_positive_shard_count(self):
        with pytest.raises(ValueError):
            AdaptiveStrategyController(0)

    def test_observed_distance_defaults_until_moves_arrive(self):
        controller = AdaptiveStrategyController(2)
        assert controller.observed_distance(0) == DEFAULT_MOVE_DISTANCE
        controller.record_move(0, 0.02)
        controller.record_move(0, 0.04)
        assert controller.observed_distance(0) == pytest.approx(0.03)
        assert controller.observed_distance(1) == DEFAULT_MOVE_DISTANCE

    def test_committed_restarts_the_shard_window(self):
        controller = AdaptiveStrategyController(2)
        controller.monitor.record_update(0, 50)
        controller.monitor.record_update(1, 30)
        controller.record_move(0, 0.1)
        controller.committed(0)
        assert controller.switches == 1
        assert controller.monitor.updates == [0, 30]
        assert controller.observed_distance(0) == DEFAULT_MOVE_DISTANCE

    def test_state_spec_round_trips_the_switch_counter(self):
        controller = AdaptiveStrategyController(
            3, policy=AdaptiveStrategyPolicy(cooldown=600, min_ops=10)
        )
        controller.committed(1)
        controller.committed(2)
        restored = AdaptiveStrategyController.from_spec(
            controller.state_to_spec(), 3
        )
        assert restored.switches == 2
        assert restored.policy == controller.policy
        # The declarative spec stays policy-only.
        assert "switches" not in controller.to_spec()


def attach_controller(index, min_ops=64, cooldown=200):
    controller = AdaptiveStrategyController(
        index.num_shards,
        policy=AdaptiveStrategyPolicy(cooldown=cooldown, min_ops=min_ops),
    )
    index.attach_adaptive(controller)
    return controller


class TestAdaptiveLoop:
    """The full loop on a live ShardedIndex (2 shards: left half / right half)."""

    def build(self, **config_extra):
        config = {"buffer_percent": 8.0, "strategy": "NAIVE"}
        config.update(config_extra)
        index = open_index({"kind": "sharded", "shards": 2, "config": config})
        rng = random.Random(6)
        oid = 0
        positions = {}
        for _ in range(1200):  # hot cell inside shard 0
            p = Point(rng.uniform(0.05, 0.20), rng.uniform(0.40, 0.55))
            index.insert(oid, p)
            positions[oid] = p
            oid += 1
        for _ in range(1200):  # uniform spread over shard 1
            p = Point(rng.uniform(0.55, 0.95), rng.uniform(0.05, 0.95))
            index.insert(oid, p)
            positions[oid] = p
            oid += 1
        index.reset_statistics()
        return index, positions, rng

    def drive(self, index, positions, rng, steps=1200):
        hot = [oid for oid, p in positions.items() if p.x < 0.5]
        cold = [oid for oid in positions if oid not in set(hot)]
        for step in range(steps):
            oid = rng.choice(hot)
            p = positions[oid]
            moved = Point(
                min(0.20, max(0.05, p.x + rng.uniform(-0.01, 0.01))),
                min(0.55, max(0.40, p.y + rng.uniform(-0.01, 0.01))),
            )
            index.update(oid, moved)
            positions[oid] = moved
            if rng.random() < 0.9:
                x, y = rng.uniform(0.55, 0.85), rng.uniform(0.05, 0.85)
                index.range_query(Rect(x, y, x + 0.1, y + 0.1))
            else:
                oid = rng.choice(cold)
                p = positions[oid]
                moved = Point(
                    min(0.95, max(0.55, p.x + rng.uniform(-0.02, 0.02))),
                    min(0.95, max(0.05, p.y + rng.uniform(-0.02, 0.02))),
                )
                index.update(oid, moved)
                positions[oid] = moved
            if step % 100 == 99:
                index.auto_adapt()

    def test_mixed_workload_converges_to_per_shard_strategies(self):
        index, positions, rng = self.build()
        controller = attach_controller(index)
        self.drive(index, positions, rng)
        assert index.active_strategies() == ["TD", "GBU"]
        assert controller.switches >= 2
        index.validate()
        assert f"strategies={index.active_strategies()}" in index.describe()

    def test_recording_feeds_both_monitors(self):
        index, positions, rng = self.build()
        controller = attach_controller(index, min_ops=10**9)
        self.drive(index, positions, rng, steps=50)
        mixes = controller.monitor.update_query_mix()
        assert sum(m.updates for m in mixes) > 0
        assert sum(m.queries for m in mixes) > 0
        assert controller.observed_distance(0) < DEFAULT_MOVE_DISTANCE

    def test_detached_controller_never_triggers(self):
        # Attaching the controller is what enables adaptation; detaching it
        # stops every switch even under the workload that converges above.
        index, positions, rng = self.build()
        controller = attach_controller(index)
        index.attach_adaptive(None)
        self.drive(index, positions, rng)
        assert index.auto_adapt() == 0
        assert index.active_strategies() == ["NAIVE", "NAIVE"]
        assert controller.switches == 0

    def test_auto_adapt_respects_the_evidence_gate(self):
        index, positions, rng = self.build()
        attach_controller(index, min_ops=10**9)
        self.drive(index, positions, rng, steps=300)
        assert index.auto_adapt() == 0
        assert index.active_strategies() == ["NAIVE", "NAIVE"]

    def test_checkpoint_round_trips_controller_state(self, tmp_path):
        index, positions, rng = self.build()
        controller = attach_controller(index)
        self.drive(index, positions, rng)
        assert controller.switches >= 2
        save_index(index, tmp_path / "checkpoint.json")
        restored = load_index(tmp_path / "checkpoint.json")
        assert restored.adaptive is not None
        assert restored.adaptive.switches == controller.switches
        assert restored.adaptive.policy == controller.policy
        assert restored.active_strategies() == index.active_strategies()
        restored.validate()

    def test_adaptive_runs_inside_engine_maintenance(self):
        index, positions, rng = self.build()
        controller = attach_controller(index)
        hot = sorted(oid for oid, p in positions.items() if p.x < 0.5)
        stream = []
        for _ in range(900):
            oid = rng.choice(hot)
            p = positions[oid]
            moved = Point(
                min(0.20, max(0.05, p.x + rng.uniform(-0.01, 0.01))),
                min(0.55, max(0.40, p.y + rng.uniform(-0.01, 0.01))),
            )
            stream.append(Update(oid, moved))
            positions[oid] = moved
        session = index.engine(num_clients=4)
        for i, op in enumerate(stream):
            session.submit(i % 4, op)
        session.run()
        assert index.shards[0].active_strategy == "TD"
        assert controller.switches >= 1
        index.validate()
