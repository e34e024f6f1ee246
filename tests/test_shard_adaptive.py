"""Cost-model-driven per-shard strategy selection: the adaptive controller.

Every layer of the feedback loop: the shared monitor's ``update_query_mix()``
view (ratio + totals), the shared evidence gate and the section codec, the
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
    EvidenceGate,
    ShardLoadMonitor,
    ShardRebalancer,
    UpdateQueryMix,
    strategy_costs,
)
from repro.shard import adaptive as adaptive_module
from repro.shard.adaptive import (
    DEFAULT_MOVE_DISTANCE,
    leaf_level_query_accesses,
)

from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE, build_index


class TestUpdateQueryMix:
    def test_totals_and_fractions(self):
        mix = UpdateQueryMix(updates=30, queries=10)
        assert (mix.updates, mix.queries) == (30, 10)
        assert mix.total == 40

    def test_idle_mix_has_zero_fractions(self):
        mix = UpdateQueryMix(updates=0, queries=0)
        assert (mix.updates, mix.queries) == (0, 0)
        assert mix.total == 0

    def test_monitor_exposes_per_shard_mix(self):
        monitor = ShardLoadMonitor(3)
        monitor.record_update(0, 8)
        monitor.record_query(0, 2)
        monitor.record_query(2, 5)
        mixes = monitor.update_query_mix()
        assert [m.updates for m in mixes] == [8, 0, 0]
        assert [m.queries for m in mixes] == [2, 0, 5]
        assert [m.total for m in mixes] == [10, 0, 5]

    def test_mix_restarts_at_a_mark(self):
        monitor = ShardLoadMonitor(2)
        monitor.record_update(1, 4)
        mark = monitor.snapshot()
        assert all(m.total == 0 for m in monitor.since(mark).update_query_mix())


def adaptive_section(section):
    """The adaptive controller a 2-shard index builds from *section*."""
    return AdaptiveStrategyController.from_spec(section, 2)


# One malformed ``adaptive`` section per entry, with the key its error names.
MALFORMED_ADAPTIVE = [
    ({"cool_down": 250}, r"unknown spec keys \['cool_down'\] in 'adaptive'"),
    ([], "spec section 'adaptive' must be a mapping"),
    ({"cooldown": 1.7}, "cooldown"),
    ({"cooldown": True}, "cooldown"),
    ({"min_ops": "12"}, "min_ops"),
    ({"min_ops": -0.5}, "min_ops"),
    ({"switches": 1.5}, "switches"),
    ({"shard_switches": [1]}, "shard_switches"),
]


class TestEvidenceGate:
    def test_defaults(self):
        policy = EvidenceGate()
        assert policy.cooldown == 400
        assert policy.min_ops == 128

    def test_negative_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            EvidenceGate(cooldown=-1)
        with pytest.raises(ValueError):
            EvidenceGate(min_ops=-5)

    def test_evidence_required_grows_after_first_switch(self):
        policy = EvidenceGate(cooldown=500, min_ops=100)
        assert policy.evidence_required(0) == 100
        assert policy.evidence_required(1) == 500
        assert policy.evidence_required(3) == 500

    def test_cooldown_never_below_min_ops(self):
        policy = EvidenceGate(cooldown=50, min_ops=200)
        assert policy.evidence_required(1) == 200

    def test_spec_round_trip(self):
        policy = EvidenceGate(cooldown=700, min_ops=9)
        assert adaptive_section(policy.to_spec()).policy == policy

    def test_partial_spec_fills_defaults(self):
        policy = adaptive_section({"cooldown": 250}).policy
        assert policy == EvidenceGate(cooldown=250)

    @pytest.mark.parametrize(
        "section, match",
        MALFORMED_ADAPTIVE,
        ids=[repr(section) for section, _match in MALFORMED_ADAPTIVE],
    )
    def test_unknown_spec_keys_are_rejected(self, section, match):
        with pytest.raises(ValueError, match=match):
            open_index({"shards": 2, "adaptive": section})


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
        controller.monitor.record_move(0, 0.02)
        controller.monitor.record_move(0, 0.04)
        assert controller.observed_distance(0) == pytest.approx(0.03)
        assert controller.observed_distance(1) == DEFAULT_MOVE_DISTANCE

    def test_committed_restarts_the_shard_window(self):
        controller = AdaptiveStrategyController(2)
        controller.monitor.record_update(0, 50)
        controller.monitor.record_update(1, 30)
        controller.monitor.record_move(0, 0.1)
        controller.committed(0)
        assert controller.switches == 1
        assert controller.window().updates == [0, 30]
        assert controller.observed_distance(0) == DEFAULT_MOVE_DISTANCE

    def test_state_spec_round_trips_the_switch_counter(self):
        controller = AdaptiveStrategyController(
            3, policy=EvidenceGate(cooldown=600, min_ops=10)
        )
        controller.committed(1)
        controller.committed(2)
        restored = AdaptiveStrategyController.from_spec(
            controller.state_to_spec(), 3
        )
        assert restored.switches == 2
        assert restored.shard_switches == [0, 1, 1]
        assert restored.policy == controller.policy
        # The declarative spec stays policy-only.
        assert "switches" not in controller.to_spec()


def attach_controller(index, min_ops=64, cooldown=200):
    controller = AdaptiveStrategyController(
        index.num_shards,
        policy=EvidenceGate(cooldown=cooldown, min_ops=min_ops),
    )
    index.attach(controller)
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

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mixed_workload_converges_to_per_shard_strategies(self, backend):
        # The controller ranks the trees where they live, so it converges
        # the same way when worker processes own the shards.
        index, positions, rng = self.build()
        controller = attach_controller(index)
        index.set_parallel(backend)
        try:
            self.drive(index, positions, rng)
            assert index.active_strategies() == ["TD", "GBU"]
            assert controller.switches >= 2
            index.validate()
            assert f"strategies={index.active_strategies()}" in index.describe()
        finally:
            index.detach_parallel()

    def test_recording_feeds_the_adaptive_window(self):
        index, positions, rng = self.build()
        controller = attach_controller(index, min_ops=10**9)
        self.drive(index, positions, rng, steps=50)
        mixes = controller.window().update_query_mix()
        assert sum(m.updates for m in mixes) > 0
        assert sum(m.queries for m in mixes) > 0
        assert controller.observed_distance(0) < DEFAULT_MOVE_DISTANCE

    def test_detached_controller_never_triggers(self):
        # Attaching the controller is what enables adaptation; detaching it
        # stops every switch even under the workload that converges above.
        index, positions, rng = self.build()
        controller = attach_controller(index)
        index.detach("adaptive")
        assert index.monitor is None  # nothing attached, nothing recorded
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

    def test_restored_gate_equals_live_gate(self, tmp_path):
        # One switch per shard moves each shard's gate from min_ops to the
        # cooldown; the restored controller must keep that per-shard history.
        index, positions, rng = self.build()
        controller = attach_controller(index, min_ops=10, cooldown=400)
        self.drive(index, positions, rng, steps=100)
        assert controller.shard_switches == [1, 1]
        save_index(index, tmp_path / "checkpoint.json")
        restored = load_index(tmp_path / "checkpoint.json").adaptive
        live_gate = [controller.evidence_required(i) for i in range(2)]
        assert live_gate == [400, 400]
        assert [restored.evidence_required(i) for i in range(2)] == live_gate

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


def rebalance_window(index):
    """Operations in the rebalancer's evidence window."""
    return index.rebalancer.window().total_operations()


def rebalance_loads(index):
    """The rebalancer's per-shard window load, physical I/O sampled now."""
    index.monitor.sample_io(index.shards)
    return index.rebalancer.window().loads()


def adaptive_window(index):
    """Operations in each shard's adaptive evidence window."""
    return [mix.total for mix in index.adaptive.window().update_query_mix()]


class TestBothControllers:
    """A rebalancer and an adaptive controller fed by one index."""

    def build(self, buffer_percent=8.0):
        loop = TestAdaptiveLoop()
        index, positions, rng = loop.build(buffer_percent=buffer_percent)
        index.attach(ShardRebalancer(index.num_shards))
        attach_controller(index)
        # 99 steps: drive() polls auto_adapt only on its 100th step.
        loop.drive(index, positions, rng, steps=99)
        return index, loop, positions, rng

    def test_rebalance_commit_keeps_the_adaptive_window(self):
        index, _loop, _positions, _rng = self.build()
        window = adaptive_window(index)
        assert min(window) > 0 and rebalance_window(index) > 0
        assert index.rebalance(force=True).triggered
        assert rebalance_window(index) == 0
        assert adaptive_window(index) == window

    def test_switch_keeps_the_rebalance_window(self):
        index, _loop, _positions, _rng = self.build()
        window = rebalance_window(index)
        assert index.auto_adapt() == 2
        assert index.active_strategies() == ["TD", "GBU"]
        assert adaptive_window(index) == [0, 0]
        assert rebalance_window(index) == window

    def test_switch_io_stays_out_of_the_rebalance_load(self, monkeypatch):
        # Without a buffer the LBU entry sweep's leaf writes reach the disk.
        index, _loop, _positions, _rng = self.build(buffer_percent=0.0)
        loads = rebalance_loads(index)
        io_before = index.total_physical_io()
        monkeypatch.setattr(
            adaptive_module,
            "strategy_costs",
            lambda *args, **kwargs: {"TD": 2.0, "NAIVE": 2.0, "LBU": 1.0, "GBU": 2.0},
        )
        assert index.auto_adapt() == 2
        assert index.active_strategies() == ["LBU", "LBU"]
        assert index.total_physical_io() > io_before
        assert rebalance_loads(index) == loads

    def test_forced_rebalance_with_only_adaptive_plans_from_populations(self):
        def forced_cut(**sections):
            index = open_index(
                {
                    "kind": "sharded",
                    "shards": 4,
                    "config": {
                        "strategy": "TD",
                        "page_size": SMALL_PAGE_SIZE,
                        "buffer_percent": 0.0,
                    },
                    **sections,
                }
            )
            index.load(
                WorkloadGenerator(
                    WorkloadSpec(
                        num_objects=200, num_updates=0, num_queries=0, seed=7,
                        distribution="hotspot", hotspot_cells=2,
                        hotspot_exponent=3.0,
                    )
                ).initial_objects()
            )
            # All recorded load lands on the top-right shard.
            for _ in range(50):
                index.range_query(Rect(0.8, 0.8, 0.95, 0.95))
            assert index.rebalance(force=True).triggered
            return index.partitioner.to_spec(), index.shard_populations()

        populations = forced_cut()
        assert populations[1] == [50, 50, 50, 50]
        assert forced_cut(adaptive={}) == populations
        # The same traffic seen by a rebalancer moves the cut: the check above
        # is not vacuous.
        assert forced_cut(rebalance={}) != populations
