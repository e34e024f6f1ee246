"""Hot-swapping update strategies on a live index: exactness of the transition.

The tentpole of the adaptive-strategy PR: ``set_strategy`` must transition a
live index between any two of TD/NAIVE/LBU/GBU **in place** — installing LBU
parent pointers by one tree sweep, rebuilding or releasing the GBU summary —
without changing a single answer.  These tests run, for every ordered
strategy pair, a workload → swap → workload sequence and assert positions
and query answers identical to a fresh index built with the final strategy
that saw the same operation stream.  The sharded variants do the same with
per-shard swaps under the serial and process backends, and the
checkpoint tests prove the *live* strategy (not the construction-time one)
round-trips through save/load.
"""

import itertools
import random

import pytest

from repro.api import index_spec, open_index
from repro.core.persistence import load_index, save_index
from repro.geometry import Point, Rect

from tests.conftest import SMALL_PAGE_SIZE, build_facade, build_index, make_points


STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")
ORDERED_PAIRS = [
    (a, b) for a, b in itertools.product(STRATEGIES, repeat=2) if a != b
]
WHOLE_SPACE = Rect(0.0, 0.0, 1.0, 1.0)


def update_stream(num_objects, count, seed):
    """Absolute-position updates: path-independent, so any two indexes that
    apply the same stream must agree on every position."""
    rng = random.Random(seed)
    return [
        (rng.randrange(num_objects), Point(rng.random(), rng.random()))
        for _ in range(count)
    ]


def query_windows(count=25, seed=4):
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        cx, cy, s = rng.random(), rng.random(), rng.uniform(0.02, 0.2)
        windows.append(
            Rect(max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s))
        )
    return windows


def apply_stream(index, stream):
    for oid, position in stream:
        index.update(oid, position)


def assert_equivalent(actual, reference, num_objects):
    for oid in range(num_objects):
        assert actual.position_of(oid) == reference.position_of(oid), oid
    for window in query_windows():
        assert sorted(actual.range_query(window)) == sorted(
            reference.range_query(window)
        )
    actual.validate()


class TestSingleIndexSwap:
    NUM_OBJECTS = 250

    @pytest.mark.parametrize("initial,final", ORDERED_PAIRS)
    def test_swap_matches_fresh_index_of_final_strategy(self, initial, final):
        before = update_stream(self.NUM_OBJECTS, 200, seed=101)
        after = update_stream(self.NUM_OBJECTS, 200, seed=202)

        swapped = build_index(initial, num_objects=self.NUM_OBJECTS, seed=17)
        apply_stream(swapped, before)
        assert swapped.set_strategy(final) == final
        assert swapped.active_strategy == final
        apply_stream(swapped, after)

        fresh = build_index(final, num_objects=self.NUM_OBJECTS, seed=17)
        apply_stream(fresh, before)
        apply_stream(fresh, after)

        assert_equivalent(swapped, fresh, self.NUM_OBJECTS)

    def test_swap_to_same_strategy_is_a_noop(self):
        index = build_index("GBU", num_objects=100, seed=9)
        strategy = index.strategy
        assert index.set_strategy("gbu") == "GBU"
        assert index.strategy is strategy

    def test_unknown_strategy_is_rejected(self):
        index = build_index("TD", num_objects=50, seed=9)
        with pytest.raises(ValueError, match="unknown strategy"):
            index.set_strategy("BOGUS")
        assert index.active_strategy == "TD"

    def test_config_keeps_the_initial_strategy(self):
        index = build_index("TD", num_objects=50, seed=9)
        index.set_strategy("LBU")
        assert index.config.strategy == "TD"
        assert index.active_strategy == "LBU"

    def test_round_trip_swap_restores_original_behaviour(self):
        # A → B → A must leave a fully functional A (aux state reinstalled).
        for a, b in (("LBU", "TD"), ("GBU", "NAIVE")):
            index = build_index(a, num_objects=150, seed=29)
            index.set_strategy(b)
            index.set_strategy(a)
            assert index.active_strategy == a
            apply_stream(index, update_stream(150, 150, seed=31))
            index.validate()

    def test_checkpoint_round_trips_the_live_strategy(self, tmp_path):
        index = build_facade("TD", num_objects=120, seed=5)
        index.set_strategy("GBU")
        apply_stream(index, update_stream(120, 80, seed=7))
        save_index(index, tmp_path / "checkpoint.json")
        restored = load_index(tmp_path / "checkpoint.json")
        assert restored.active_strategies() == ["GBU"]
        assert restored.config.strategy == "TD"
        stream = update_stream(120, 80, seed=12)
        apply_stream(index, stream)
        apply_stream(restored, stream)
        assert_equivalent(restored, index, 120)


def build_sharded(strategy, num_objects, seed, shards=4):
    index = open_index(
        {
            "kind": "sharded",
            "shards": shards,
            "config": {"strategy": strategy, "page_size": SMALL_PAGE_SIZE},
        }
    )
    index.load(make_points(num_objects, seed=seed))
    return index


class TestShardedSwap:
    NUM_OBJECTS = 240

    def run_swapped(self, initial, final, backend):
        before = update_stream(self.NUM_OBJECTS, 160, seed=301)
        after = update_stream(self.NUM_OBJECTS, 160, seed=302)

        swapped = build_sharded(initial, self.NUM_OBJECTS, seed=23)
        if backend != "serial":
            swapped.set_parallel(backend=backend, workers=2)
        apply_stream(swapped, before)
        swapped.set_strategy(final)
        assert swapped.active_strategies() == [final] * swapped.num_shards
        apply_stream(swapped, after)

        fresh = build_sharded(final, self.NUM_OBJECTS, seed=23)
        apply_stream(fresh, before)
        apply_stream(fresh, after)
        try:
            assert_equivalent(swapped, fresh, self.NUM_OBJECTS)
        finally:
            if backend != "serial":
                swapped.detach_parallel()
        swapped.validate()

    @pytest.mark.parametrize("initial,final", ORDERED_PAIRS)
    def test_all_pairs_serial(self, initial, final):
        self.run_swapped(initial, final, "serial")

    @pytest.mark.parametrize(
        "initial,final",
        [("TD", "GBU"), ("GBU", "LBU"), ("LBU", "NAIVE"), ("NAIVE", "TD")],
    )
    def test_rotation_under_process_backend(self, initial, final):
        self.run_swapped(initial, final, "process")

    def test_per_shard_swap_targets_one_shard(self):
        index = build_sharded("TD", self.NUM_OBJECTS, seed=23)
        index.set_strategy("GBU", shard_id=1)
        assert index.active_strategies() == ["TD", "GBU", "TD", "TD"]
        apply_stream(index, update_stream(self.NUM_OBJECTS, 200, seed=41))
        index.validate()

    def test_out_of_range_shard_is_rejected(self):
        index = build_sharded("TD", 60, seed=23)
        with pytest.raises(ValueError):
            index.set_strategy("GBU", shard_id=index.num_shards)

    def test_checkpoint_round_trips_mixed_shard_strategies(self, tmp_path):
        index = build_sharded("NAIVE", self.NUM_OBJECTS, seed=23)
        index.set_strategy("LBU", shard_id=0)
        index.set_strategy("GBU", shard_id=2)
        apply_stream(index, update_stream(self.NUM_OBJECTS, 120, seed=43))
        save_index(index, tmp_path / "checkpoint.json")
        restored = load_index(tmp_path / "checkpoint.json")
        assert restored.active_strategies() == index.active_strategies()
        stream = update_stream(self.NUM_OBJECTS, 120, seed=44)
        apply_stream(index, stream)
        apply_stream(restored, stream)
        assert_equivalent(restored, index, self.NUM_OBJECTS)

    def test_process_backend_round_trips_swapped_strategy_on_detach(self):
        index = build_sharded("TD", 120, seed=23)
        index.set_parallel(backend="process", workers=2)
        try:
            index.set_strategy("GBU", shard_id=1)
            apply_stream(index, update_stream(120, 80, seed=45))
        finally:
            index.detach_parallel()
        # After detach the local shards are authoritative again and must
        # carry the strategy the workers were running.
        assert index.active_strategies() == ["TD", "GBU", "TD", "TD"]
        assert index.shards[1].active_strategy == "GBU"
        index.validate()


class TestSpecRoundTrip:
    def test_adaptive_section_round_trips_through_open_index(self):
        spec = {
            "kind": "sharded",
            "shards": 4,
            "config": {"strategy": "TD", "page_size": SMALL_PAGE_SIZE},
            "adaptive": {"cooldown": 300, "min_ops": 64},
        }
        index = open_index(spec)
        assert index.adaptive is not None
        assert index.adaptive.policy.cooldown == 300
        round_tripped = index_spec(index)
        assert round_tripped["adaptive"] == {"cooldown": 300, "min_ops": 64}
        assert index_spec(open_index(round_tripped)) == round_tripped

    def test_unknown_adaptive_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive spec keys"):
            open_index(
                {
                    "kind": "sharded",
                    "shards": 2,
                    "adaptive": {"thresold": 2.0},
                }
            )

    def test_adaptive_on_a_single_index_stays_one_shard(self):
        index = open_index({"kind": "single", "adaptive": {"cooldown": 300}})
        assert index.num_shards == 1 and index.adaptive.policy.cooldown == 300
        saved = index_spec(index)
        assert saved["kind"] == "single" and "partitioner" not in saved
        assert index_spec(open_index(saved)) == saved
