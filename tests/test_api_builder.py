"""Tests for the declarative builder: specs, round-trips, checkpoint sharing."""

import json
import random

import pytest

from repro.api import config_from_spec, config_to_spec, index_spec, open_index
from repro.core import IndexConfig, MovingObjectIndex, load_index, save_index
from repro.geometry import Point, Rect
from repro.shard import ShardedIndex
from repro.shard import EvidenceGate
from repro.shard.partitioner import BoundaryPartitioner
from repro.update import TuningParameters

from tests.conftest import SMALL_PAGE_SIZE, make_points


def nested_spec(path, value):
    """The spec that sets one dotted *path*: ``"config.page_size"`` -> ``{"config": {...}}``."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


# One malformed number per entry, each rejected where the spec is read.
MALFORMED = [
    ("config.buffer_percent", float("nan")),
    ("config.buffer_percent", float("inf")),
    ("config.page_size", 1024.5),
    ("config.page_size", True),
    ("config.strategy", 5),
    ("config.params.epsilon", float("nan")),
    ("config.params.epsilon", float("inf")),
    ("config.params.distance_threshold", float("nan")),
    ("config.params.distance_threshold", float("inf")),
    ("config.params.level_threshold", 1.5),
    ("shards", 2.5),
]


class TestConfigCodec:
    def test_round_trip_preserves_every_field(self):
        config = IndexConfig(
            strategy="LBU",
            page_size=512,
            buffer_percent=2.5,
            use_summary_for_queries=False,
            params=TuningParameters(
                epsilon=0.01, distance_threshold=0.05, level_threshold=2, piggyback=False
            ),
        )
        assert config_from_spec(config_to_spec(config)) == config

    def test_spec_is_json_safe(self):
        spec = config_to_spec(IndexConfig())
        assert config_from_spec(json.loads(json.dumps(spec))) == IndexConfig()

    def test_partial_spec_fills_defaults(self):
        config = config_from_spec({"strategy": "TD"})
        assert config.strategy == "TD"
        assert config.page_size == IndexConfig().page_size
        assert config.params == TuningParameters.paper_defaults()

    def test_unknown_config_and_params_keys_rejected(self):
        with pytest.raises(ValueError, match=r"unknown spec keys \['bogus'\]"):
            config_from_spec({"strategy": "TD", "bogus": 1})
        with pytest.raises(ValueError, match=r"unknown spec keys \['speed'\]"):
            config_from_spec({"params": {"epsilon": 0.01, "speed": 1}})

    def test_retired_representation_keys_are_dropped(self):
        # Saved specs from before the single representation carry them.
        spec = dict(config_to_spec(IndexConfig()), node_layout="object", page_store="binary")
        assert config_from_spec(spec) == IndexConfig()


class TestOpenIndex:
    def test_default_spec_builds_a_single_index(self):
        # A single index is a one-shard ShardedIndex over a MovingObjectIndex.
        index = open_index()
        assert isinstance(index, ShardedIndex)
        assert index.num_shards == 1
        assert isinstance(index.shards[0], MovingObjectIndex)
        assert index.config.strategy == "GBU"

    def test_sharded_spec_builds_a_sharded_index(self):
        index = open_index({"kind": "sharded", "shards": 8})
        assert isinstance(index, ShardedIndex)
        assert index.num_shards == 8

    def test_shards_one_is_a_single_shard_topology(self):
        index = open_index({"shards": 1})
        assert isinstance(index, ShardedIndex)
        assert index.num_shards == 1

    def test_overrides_merge_over_the_spec(self):
        spec = {"kind": "sharded", "shards": 2}
        index = open_index(spec, shards=8)
        assert index.num_shards == 8
        assert spec["shards"] == 2  # the caller's dict is not mutated

    def test_explicit_partitioner_spec(self):
        index = open_index(
            {
                "kind": "sharded",
                "partitioner": {
                    "kind": "boundaries",
                    "boundaries": [[0, 0, 0.5, 1], [0.5, 0, 1, 1]],
                },
            }
        )
        assert isinstance(index.partitioner, BoundaryPartitioner)
        assert index.num_shards == 2

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            open_index({"shardz": 4})
        with pytest.raises(ValueError, match="unknown spec keys"):
            open_index({"config": {"bogus": 1}})
        with pytest.raises(ValueError, match="unknown spec keys"):
            open_index({"config": {"params": {"bogus": 1}}})

    def test_conflicting_kind_rejected(self):
        with pytest.raises(ValueError):
            open_index({"kind": "single", "shards": 4})
        with pytest.raises(ValueError):
            open_index({"kind": "elastic"})

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            open_index({"shards": 0})

    @pytest.mark.parametrize(
        "path, value", MALFORMED, ids=[f"{path}={value}" for path, value in MALFORMED]
    )
    def test_malformed_numbers_rejected(self, path, value):
        with pytest.raises(ValueError, match=path.rsplit(".", 1)[-1]):
            open_index(nested_spec(path, value))

    def test_shard_count_conflicting_with_the_partitioner_rejected(self):
        grid = {"kind": "grid", "columns": 2, "rows": 2}
        with pytest.raises(ValueError, match="conflicts"):
            open_index({"shards": 8, "partitioner": grid})
        saved = index_spec(open_index({"shards": 4}))
        with pytest.raises(ValueError, match="conflicts"):
            open_index(saved, shards=8)
        # Dropping the saved partitioner re-shards over a fresh grid.
        assert open_index(saved, partitioner=None, shards=8).num_shards == 8
        assert open_index({"shards": 4, "partitioner": grid}).num_shards == 4

    def test_unknown_engine_keys_rejected(self):
        with pytest.raises(ValueError, match=r"unknown spec keys \['num_client'\]"):
            open_index({"engine": {"num_client": 8}})

    def test_unknown_parallel_keys_rejected(self):
        with pytest.raises(ValueError, match=r"unknown spec keys \['wokers'\]"):
            open_index({"parallel": {"backend": "serial", "wokers": 3}})

    def test_checkpoint_with_an_unknown_engine_key_rejected(self, tmp_path):
        index = open_index({"engine": {"num_clients": 8}})
        path = tmp_path / "checkpoint.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        document["engine"] = {"num_client": 8}
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"unknown spec keys \['num_client'\]"):
            load_index(path)

    def test_spec_emission_round_trips(self):
        spec = index_spec(
            open_index(
                {"config": {"strategy": "TD"}, "shards": 4, "engine": {"num_clients": 16}}
            )
        )
        assert spec["kind"] == "sharded"
        assert spec["config"]["strategy"] == "TD"
        assert spec["partitioner"] == {"kind": "grid", "columns": 2, "rows": 2}
        assert spec["engine"] == {"num_clients": 16}
        again = index_spec(open_index(spec))
        assert again == spec


# Settings the index no longer varies, each at the one value it always uses.
RETIRED_CONFIG = {
    "split": "quadratic",
    "reinsert_on_underflow": True,
    "charge_hash_io": True,
    "bulk_load_fill": 0.66,
    "min_fill_factor": 0.4,
}
RETIRED_KEYS = {*RETIRED_CONFIG, "max_piggyback_objects", "enabled"}
RETIRED_OTHER_VALUES = [
    ("config.split", "rstar"),
    ("config.reinsert_on_underflow", False),
    ("config.charge_hash_io", False),
    ("config.bulk_load_fill", 0.9),
    ("config.min_fill_factor", 0.3),
    ("config.params.max_piggyback_objects", 4),
    ("adaptive.enabled", False),
]


def spec_keys(spec):
    """Every key of a nested spec dict, at any depth."""
    keys = set()
    for key, value in spec.items():
        keys.add(key)
        if isinstance(value, dict):
            keys |= spec_keys(value)
    return keys


class TestRetiredKeys:
    @pytest.mark.parametrize(
        "path, value",
        RETIRED_OTHER_VALUES,
        ids=[f"{path}={value}" for path, value in RETIRED_OTHER_VALUES],
    )
    def test_any_other_value_is_rejected(self, path, value):
        with pytest.raises(ValueError, match=path.rsplit(".", 1)[-1]):
            open_index(nested_spec(path, value))

    def test_every_retired_key_at_its_constant_opens(self):
        index = open_index(
            {
                "config": {**RETIRED_CONFIG, "params": {"max_piggyback_objects": 8}},
                "adaptive": {"enabled": True},
            }
        )
        assert index.config == IndexConfig()
        assert index.adaptive.policy == EvidenceGate()

    @pytest.mark.parametrize(
        "spec", [{"kind": "single"}, {"shards": 2, "adaptive": {}}], ids=["single", "sharded"]
    )
    def test_index_spec_emits_no_retired_key(self, spec):
        assert spec_keys(index_spec(open_index(spec))) & RETIRED_KEYS == set()


class TestSpecCheckpointRoundTrip:
    """Acceptance: spec -> index -> checkpoint -> load -> identical spec and
    identical query results, for both facade kinds."""

    @pytest.mark.parametrize(
        "spec",
        [
            {
                "kind": "single",
                "config": {"strategy": "GBU", "page_size": SMALL_PAGE_SIZE},
                "engine": {"num_clients": 12},
            },
            {
                "kind": "sharded",
                "shards": 4,
                "config": {"strategy": "LBU", "page_size": SMALL_PAGE_SIZE},
                "engine": {"num_clients": 8, "time_per_io": 0.02},
            },
        ],
        ids=["single", "sharded"],
    )
    def test_round_trip(self, spec, tmp_path):
        index = open_index(spec)
        index.load(make_points(300, seed=23))
        rng = random.Random(9)
        for _ in range(150):
            index.update(rng.randrange(300), Point(rng.random(), rng.random()))
        canonical = index_spec(index)

        path = tmp_path / "checkpoint.json"
        save_index(index, path)
        restored = load_index(path)

        assert index_spec(restored) == canonical
        windows = [
            Rect(0.1, 0.1, 0.4, 0.4),
            Rect(0.3, 0.5, 0.9, 0.95),
            Rect(0.0, 0.0, 1.0, 1.0),
        ]
        for window in windows:
            assert sorted(restored.range_query(window)) == sorted(
                index.range_query(window)
            )
        # The page codec stores coordinates as 32-bit floats (the paper's
        # entry format), so distances agree to float32 precision.
        restored_nn = restored.knn(Point(0.5, 0.5), 9)
        original_nn = index.knn(Point(0.5, 0.5), 9)
        assert [oid for _d, oid in restored_nn] == [oid for _d, oid in original_nn]
        for (restored_d, _), (original_d, _) in zip(restored_nn, original_nn):
            assert restored_d == pytest.approx(original_d, abs=1e-6)
        # Engine defaults survive the checkpoint: sessions open identically.
        assert restored.engine().num_clients == index.engine().num_clients
        restored.validate()

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_checkpoint_naming_the_retired_representation_loads_as_it_is(
        self, kind, tmp_path
    ):
        # Format-version-2 documents written before the representation was
        # fixed say which node layout and page store produced them; their
        # page images were the columnar codec format either way.
        index = open_index(
            {"kind": kind, "config": {"strategy": "GBU", "page_size": SMALL_PAGE_SIZE}}
        )
        index.load(make_points(300, seed=23))
        rng = random.Random(9)
        for _ in range(150):
            index.update(rng.randrange(300), Point(rng.random(), rng.random()))

        path = tmp_path / "checkpoint.json"
        save_index(index, path)
        document = json.loads(path.read_text())
        for section in document["shards"]:
            section["config"].update(node_layout="object", page_store="object")
        path.write_text(json.dumps(document))
        restored = load_index(path)

        restored.validate()
        assert index_spec(restored) == index_spec(index)
        assert all(restored.position_of(oid) == index.position_of(oid) for oid in range(300))
        for window in (Rect(0.1, 0.1, 0.4, 0.4), Rect(0.0, 0.0, 1.0, 1.0)):
            assert sorted(restored.range_query(window)) == sorted(index.range_query(window))
        assert restored.knn(Point(0.5, 0.5), 9) == index.knn(Point(0.5, 0.5), 9)
