"""End-to-end crash-recovery equivalence for durable indexes.

Every test runs a workload against a durable index, then restores a second
index purely from the checkpoint plus WAL replay
(:func:`repro.core.persistence.load_index`) and requires the recovered
index to be logically identical to the live one: same object positions,
same range-query answers (compared sorted — the recovered tree is a
physically different page layout holding the same content), same kNN
answers, and a recovered structure that passes full validation.

Covered here: every update strategy on a single index (one shard) and on
4 shards, a directory a single index wrote before it was one shard,
batched and per-operation mutation paths, the concurrent engine, the
``process`` shard backend (coordinator-side logging), repartitioning, the
builder/spec/checkpoint round trip, and log rotation across checkpoints.
Torn-log crash simulation lives in ``tests/test_durability_crash_injection.py``.
"""

import json
import random

import pytest

from repro.api import Update, index_spec, open_index
from repro.core.persistence import load_index, save_index
from repro.durability import read_frames, recover_index, shard_log_paths
from repro.geometry import Point, Rect

STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")


def durable_spec(tmp_path, strategy, kind, sync="group"):
    spec = {
        "config": {"strategy": strategy},
        "durability": {"dir": str(tmp_path / "wal"), "sync": sync, "group_size": 16},
    }
    if kind == "sharded":
        spec["kind"] = "sharded"
        spec["shards"] = 4
    return spec


def run_mixed_workload(index, seed=11, objects=150):
    """Load + per-op updates + batch + deletes + inserts, deterministically."""
    rng = random.Random(seed)
    index.load([(oid, Point(rng.random(), rng.random())) for oid in range(objects)])
    for oid in range(0, objects, 2):
        index.update(oid, Point(rng.random(), rng.random()))
    index.execute_many(
        [Update(oid, Point(rng.random(), rng.random())) for oid in range(1, objects, 2)]
    )
    for oid in range(0, 20):
        index.delete(oid)
    for oid in range(objects, objects + 10):
        index.insert(oid, Point(rng.random(), rng.random()))
    return index


def oids_of(index):
    return sorted(index.object_directory())


def assert_equivalent(live, recovered, seed=23):
    rng = random.Random(seed)
    assert oids_of(live) == oids_of(recovered)
    assert {oid: live.position_of(oid) for oid in oids_of(live)} == {
        oid: recovered.position_of(oid) for oid in oids_of(recovered)
    }
    for _ in range(8):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        window = Rect(x, y, x + 0.2, y + 0.2)
        assert sorted(live.range_query(window)) == sorted(
            recovered.range_query(window)
        )
        probe = Point(rng.random(), rng.random())
        assert live.knn(probe, 5) == recovered.knn(probe, 5)
    recovered.validate()


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", ("single", "sharded"))
    def test_mixed_workload_recovers_identically(self, tmp_path, strategy, kind):
        live = run_mixed_workload(open_index(durable_spec(tmp_path, strategy, kind)))
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert_equivalent(live, recovered)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_index_directory_recovers_as_one_shard(self, tmp_path, strategy):
        # A directory a single index left behind: its checkpoint is the
        # shard body at the top level (formats 2-4), its log shard-0000.wal.
        live = run_mixed_workload(open_index(durable_spec(tmp_path, strategy, "single")))
        live.durability.flush()
        assert set(shard_log_paths(tmp_path / "wal")) == {0}
        path = tmp_path / "wal" / "checkpoint.json"
        document = json.loads(path.read_text())
        (body,) = document.pop("shards")
        del document["kind"], document["partitioner"]
        path.write_text(json.dumps({**document, **body}))
        recovered = load_index(path)
        assert recovered.num_shards == 1
        assert index_spec(recovered) == index_spec(live)
        assert_equivalent(live, recovered)

    @pytest.mark.parametrize("sync", ("always", "group", "none"))
    def test_every_sync_policy_recovers(self, tmp_path, sync):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "GBU", "sharded", sync=sync)),
            objects=80,
        )
        # ``none`` never fsyncs but still appends + flushes; on a live
        # filesystem (no OS crash) the frames are all readable.
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert_equivalent(live, recovered)

    def test_recover_index_convenience_wrapper(self, tmp_path):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "GBU", "single")), objects=60
        )
        live.durability.flush()
        recovered = recover_index(tmp_path / "wal")
        assert_equivalent(live, recovered)

    def test_recovered_index_keeps_logging(self, tmp_path):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "TD", "single")), objects=60
        )
        lsn_at_crash = live.durability.last_lsn
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        live.detach_durability()  # hand the logs over to the recovered index
        assert recovered.durability is not None
        assert recovered.durability.last_lsn == lsn_at_crash
        recovered.update(30, Point(0.99, 0.99))
        assert recovered.durability.last_lsn == lsn_at_crash + 1
        twice = load_index(tmp_path / "wal" / "checkpoint.json")
        assert twice.position_of(30) == Point(0.99, 0.99)

    def test_checkpoint_then_more_work_replays_only_the_tail(self, tmp_path):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "GBU", "sharded")), objects=80
        )
        live.checkpoint()  # rotates: the logs restart empty here
        rng = random.Random(31)
        for oid in range(20, 50):
            live.update(oid, Point(rng.random(), rng.random()))
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert_equivalent(live, recovered)


class TestCoordinatorSideLogging:
    def test_process_backend_recovers_identically(self, tmp_path):
        spec = durable_spec(tmp_path, "GBU", "sharded")
        spec["parallel"] = {"backend": "process", "workers": 2}
        live = run_mixed_workload(open_index(spec))
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        try:
            assert_equivalent(live, recovered)
        finally:
            live.detach_parallel()
            recovered.detach_parallel()

    def test_rebalance_repartition_is_replayed(self, tmp_path):
        live = open_index(durable_spec(tmp_path, "GBU", "sharded"))
        rng = random.Random(17)
        # Clustered load so a forced rebalance actually moves the boundaries.
        live.load(
            [
                (oid, Point(rng.random() * 0.4, rng.random() * 0.4))
                for oid in range(200)
            ]
        )
        live.rebalance(force=True)
        for oid in range(80):
            live.update(oid, Point(rng.random(), rng.random()))
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert recovered.partitioner.to_spec() == live.partitioner.to_spec()
        assert_equivalent(live, recovered)


class TestSpecAndCheckpointRoundTrip:
    def test_spec_attaches_durability(self, tmp_path):
        index = open_index(
            {
                "config": {"strategy": "GBU"},
                "durability": {"dir": tmp_path / "wal", "sync": "none", "group_size": 8},
            }
        )
        assert index.durability is not None
        assert index.durability.to_spec() == {
            "dir": str(tmp_path / "wal"),
            "sync": "none",
            "group_size": 8,
        }

    def test_spec_and_index_spec_round_trip(self, tmp_path):
        spec = durable_spec(tmp_path, "GBU", "sharded")
        index = open_index(spec)
        assert index_spec(index)["durability"] == {
            "dir": str(tmp_path / "wal"),
            "sync": "group",
            "group_size": 16,
        }
        rebuilt = index_spec(open_index(index_spec(index)))
        assert rebuilt["durability"] == index_spec(index)["durability"]

    def test_checkpoint_embeds_the_durability_section(self, tmp_path):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "TD", "single")), objects=40
        )
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert index_spec(recovered).get("durability") == index_spec(live).get(
            "durability"
        )

    def test_plain_export_recovers_without_durability(self, tmp_path):
        """An export to a foreign path is a snapshot, not a recovery point."""
        live = run_mixed_workload(
            open_index({"config": {"strategy": "TD"}}), objects=40
        )
        save_index(live, tmp_path / "export.json")
        restored = load_index(tmp_path / "export.json")
        assert restored.durability is None
        assert_equivalent(live, restored)

    def test_durable_index_exports_without_a_durability_section(self, tmp_path):
        """Exporting a *durable* index must not point back at its live logs.

        If the export carried the durability spec, loading it would replay
        the live WAL tail and attach a second writer (with its own LSN
        counter) to a directory the live manager is still appending to.
        """
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "TD", "single")), objects=40
        )
        save_index(live, tmp_path / "export.json")
        document = json.loads((tmp_path / "export.json").read_text())
        assert "durability" not in document
        restored = load_index(tmp_path / "export.json")
        assert restored.durability is None
        assert_equivalent(live, restored)
        # The live recovery timeline is untouched: the logs were not
        # rotated, and the manager's own checkpoint still recovers.
        live.durability.flush()
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert recovered.durability is not None
        assert_equivalent(live, recovered)

    def test_failed_apply_leaves_the_wal_silent(self, tmp_path):
        """Apply first, log on success: a strategy that raises logs nothing.

        Were the operation logged up front, recovery would replay a
        mutation the live index never performed and diverge from every
        answer the pre-crash process gave.
        """
        live = open_index(durable_spec(tmp_path, "TD", "single"))
        rng = random.Random(7)
        live.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(30)]
        )
        live.update(3, Point(0.5, 0.5))
        position_before = live.position_of(4)

        def failing_update(oid, old_location, new_location):
            raise RuntimeError("injected strategy failure")

        strategy = live.shards[0].strategy
        original = strategy.update
        strategy.update = failing_update
        try:
            with pytest.raises(RuntimeError):
                live.update(4, Point(0.25, 0.25))
        finally:
            strategy.update = original
        assert live.position_of(4) == position_before
        live.durability.flush()
        logged_oids = [
            record.oid
            for _lsn, records in read_frames(shard_log_paths(tmp_path / "wal")[0])
            for record in records
        ]
        assert 4 not in logged_oids
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert recovered.position_of(4) == position_before
        assert_equivalent(live, recovered)

    def test_shard_sub_indexes_do_not_double_log(self, tmp_path):
        live = run_mixed_workload(
            open_index(durable_spec(tmp_path, "GBU", "sharded")), objects=60
        )
        # The shards have no logging hooks: only the coordinator logs.
        assert not any(hasattr(shard, "durability") for shard in live.shards)
        # Exactly the coordinator's logs exist: one per shard plus meta.
        assert set(shard_log_paths(tmp_path / "wal")) <= set(range(4))
