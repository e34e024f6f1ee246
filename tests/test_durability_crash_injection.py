"""Crash injection: truncate the WAL at every byte a crash could leave.

A crash can cut an append anywhere — between frames or mid-frame.  These
tests run a deterministic per-operation workload against a durable index
(so frame *i* of the log is exactly operation *i*), then truncate the log
at **every frame boundary and inside every frame** and recover.  Recovery
must come back as the exact state after the longest intact prefix of
operations: positions match the replayed prefix, the structure validates,
and query answers agree with the position table.

The sharded variant truncates the busiest shard's log the same way while
the other shards' logs stay whole; the expected state is computed by an
independent ownership-tracking replay over the surviving frames.  A
Hypothesis property test drives the single-index case with arbitrary
truncation offsets.
"""

import errno
import itertools
import json
import os
import random
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RangeQuery, Update, open_index
from repro.core.persistence import load_index
from repro.durability import (
    meta_log_path,
    read_frames,
    recover_index,
    shard_log_paths,
)
from repro.durability.wal import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_MIGRATE_IN,
    KIND_MIGRATE_OUT,
    KIND_SET_STRATEGY,
    KIND_UPDATE,
)
from repro.geometry import Point, Rect

_FRAME_HEADER = struct.Struct("<II")
WHOLE_SPACE = Rect(0.0, 0.0, 1.0, 1.0)


def frame_boundaries(path: Path):
    """Byte offsets of every frame end (offset 0 included): a header walk."""
    data = path.read_bytes()
    offsets = [0]
    cursor = 0
    while cursor + _FRAME_HEADER.size <= len(data):
        body_length, _crc = _FRAME_HEADER.unpack_from(data, cursor)
        end = cursor + _FRAME_HEADER.size + body_length
        if end > len(data):
            break
        offsets.append(end)
        cursor = end
    assert cursor == len(data), "workload left a torn frame before any injection"
    return offsets


def make_script(rng, objects, extra=12, deletes=10, updates=40):
    """A mixed per-op script over a loaded id range [0, objects)."""
    script = []
    for oid in rng.sample(range(objects), updates):
        script.append(("update", oid, Point(rng.random(), rng.random())))
    for oid in range(objects, objects + extra):
        script.append(("insert", oid, Point(rng.random(), rng.random())))
    for oid in rng.sample(range(objects), deletes):
        script.append(("delete", oid, None))
    rng.shuffle(script)
    # No op may touch an id twice in ways that change frame/op alignment
    # guarantees (a delete then update of the same id would raise); keep the
    # script conflict-free by dropping later ops on already-deleted ids.
    seen_deleted = set()
    clean = []
    for kind, oid, pos in script:
        if oid in seen_deleted:
            continue
        if kind == "delete":
            seen_deleted.add(oid)
        clean.append((kind, oid, pos))
    return clean


def apply_script(positions, script):
    for kind, oid, pos in script:
        if kind == "delete":
            del positions[oid]
        else:
            positions[oid] = pos
    return positions


def assert_recovered_state(recovered, expected_positions):
    assert sorted(recovered.object_directory()) == sorted(expected_positions)
    for oid, position in expected_positions.items():
        assert recovered.position_of(oid) == position
    assert sorted(recovered.range_query(WHOLE_SPACE)) == sorted(expected_positions)
    recovered.validate()


def build_single(tmp_path, strategy, objects=100, seed=5):
    rng = random.Random(seed)
    index = open_index(
        {
            "config": {"strategy": strategy},
            "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
        }
    )
    index.load([(oid, Point(rng.random(), rng.random())) for oid in range(objects)])
    baseline = {oid: index.position_of(oid) for oid in range(objects)}
    script = make_script(rng, objects)
    for kind, oid, pos in script:
        getattr(index, kind)(*((oid,) if pos is None else (oid, pos)))
    index.durability.flush()
    index.detach_durability()
    return baseline, script


class TestSingleIndexCrashPoints:
    @pytest.mark.parametrize("strategy", ("TD", "NAIVE", "LBU", "GBU"))
    def test_every_frame_boundary_and_mid_frame(self, tmp_path, strategy):
        baseline, script = build_single(tmp_path, strategy)
        log = shard_log_paths(tmp_path / "wal")[0]
        offsets = frame_boundaries(log)
        assert len(offsets) - 1 == len(script), "one frame per operation"

        # Every boundary, plus a cut inside every frame: iterate descending
        # so in-place truncation only ever shrinks the file.
        cuts = []
        for count in range(len(script), -1, -1):
            cuts.append((offsets[count], count))
            if count:
                mid = (offsets[count - 1] + offsets[count]) // 2
                cuts.append((mid, count - 1))
        for cut_at, intact_ops in sorted(cuts, reverse=True):
            with open(log, "r+b") as handle:
                handle.truncate(cut_at)
            recovered = load_index(tmp_path / "wal" / "checkpoint.json")
            expected = apply_script(dict(baseline), script[:intact_ops])
            assert_recovered_state(recovered, expected)
            recovered.detach_durability()


class TestDoubleCrash:
    """Recover, keep working, crash again: nothing post-recovery is lost.

    The first crash leaves a torn frame at the log tail.  The reopened
    writer must truncate to the intact prefix before appending — frames
    written beyond the tear are invisible to ``read_frames``, so without
    the truncation every operation logged after the first recovery would
    silently vanish at the second.
    """

    def test_operations_after_recovery_survive_a_second_crash(self, tmp_path):
        baseline, script = build_single(tmp_path, "GBU", objects=60, seed=21)
        log = shard_log_paths(tmp_path / "wal")[0]
        offsets = frame_boundaries(log)
        # First crash: tear the last frame in half.
        with open(log, "r+b") as handle:
            handle.truncate((offsets[-2] + offsets[-1]) // 2)
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        expected = apply_script(dict(baseline), script[: len(offsets) - 2])
        assert_recovered_state(recovered, expected)

        # Post-recovery work appends to the same (previously torn) log.
        rng = random.Random(99)
        for oid in sorted(expected)[:10]:
            position = Point(rng.random(), rng.random())
            recovered.update(oid, position)
            expected[oid] = position
        recovered.durability.flush()
        recovered.detach_durability()

        # Second crash (no checkpoint in between): recover again.
        twice = load_index(tmp_path / "wal" / "checkpoint.json")
        assert_recovered_state(twice, expected)
        twice.detach_durability()


class TestOrphanedDepartures:
    """A migration whose arrival frame was lost must not drop the object.

    A cross-shard migration's two halves share one LSN: the arrival frame
    in the target shard's log, the departure frame in the source's.  The
    OS may flush the two files in any order, so a crash can leave the
    departure durable while the arrival is torn away.  Recovery pairs the
    halves by LSN, recognises the departure as orphaned, and leaves the
    object on its source shard at its old position.
    """

    def test_departure_without_arrival_keeps_the_object(self, tmp_path):
        index = open_index(
            {
                "kind": "sharded",
                "shards": 2,
                "config": {"strategy": "GBU"},
                "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
            }
        )
        rng = random.Random(3)
        index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(80)]
        )
        oid = next(o for o in range(80) if index.shard_for(o) == 0)
        old_position = index.position_of(oid)
        target_position = next(
            p
            for p in (Point(0.025 + 0.05 * i, 0.5) for i in range(20))
            if index.partitioner.shard_of(p) == 1
        )
        index.update(oid, target_position)  # the cross-shard migration
        assert index.shard_for(oid) == 1
        index.durability.flush()
        index.detach_durability()

        logs = shard_log_paths(tmp_path / "wal")
        # The crash: shard 1's log (holding the arrival) never hit the disk.
        with open(logs[1], "r+b") as handle:
            handle.truncate(0)

        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        # The object survived — still on its source shard, old position —
        # instead of being deleted by the orphaned departure.
        assert sorted(recovered.object_directory()) == sorted(
            index.object_directory()
        )
        assert recovered.shard_for(oid) == 0
        assert recovered.position_of(oid) == old_position
        assert oid in recovered.range_query(WHOLE_SPACE)
        recovered.validate()
        recovered.detach_durability()


def replay_reference(per_shard_baseline, surviving_logs, meta_path):
    """Independent ownership-tracking replay of the surviving frames.

    Mirrors the documented recovery semantics with none of its code: merge
    per-shard frames on LSN, arrivals evict the stale copy and land on the
    logging shard, departures only apply while the logging shard owns the
    object — and a ``migrate_out`` with no matching ``migrate_in`` in its
    commit unit (the two halves share one LSN) is an orphaned departure
    whose arrival was torn away: it is skipped, the object stays put.
    """
    owner = {
        oid: sid for sid, table in per_shard_baseline.items() for oid in table
    }
    positions = {
        oid: pos for table in per_shard_baseline.values() for oid, pos in table.items()
    }
    tagged = []
    for sid, path in surviving_logs.items():
        for lsn, records in read_frames(path):
            tagged.append((lsn, sid, records))
    tagged.sort(key=lambda item: (item[0], item[1]))
    for _lsn, unit in itertools.groupby(tagged, key=lambda item: item[0]):
        frames = list(unit)
        arrived = {
            record.oid
            for _l, _s, unit_records in frames
            for record in unit_records
            if record.kind == KIND_MIGRATE_IN
        }
        for _l, sid, records in frames:
            for record in records:
                if record.kind in (KIND_INSERT, KIND_UPDATE, KIND_MIGRATE_IN):
                    owner[record.oid] = sid
                    positions[record.oid] = record.position()
                elif record.kind == KIND_MIGRATE_OUT:
                    if record.oid in arrived and owner.get(record.oid) == sid:
                        del owner[record.oid]
                        del positions[record.oid]
                elif record.kind == KIND_DELETE:
                    if owner.get(record.oid) == sid:
                        del owner[record.oid]
                        del positions[record.oid]
                else:  # pragma: no cover - the workload logs no other kinds
                    raise AssertionError(record.kind)
    list(read_frames(meta_path))  # meta log must at least parse
    return positions, owner


class TestShardedCrashPoints:
    def test_truncating_one_shard_log_at_every_boundary(self, tmp_path):
        rng = random.Random(9)
        index = open_index(
            {
                "kind": "sharded",
                "shards": 4,
                "config": {"strategy": "GBU"},
                "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
            }
        )
        index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(160)]
        )
        per_shard_baseline = {
            sid: dict(shard._positions) for sid, shard in enumerate(index.shards)
        }
        # Per-op updates with long moves: plenty of cross-shard migrations,
        # so the logs carry migrate_in/migrate_out pairs to tear apart.
        for oid in range(120):
            index.update(oid, Point(rng.random(), rng.random()))
        for oid in range(160, 170):
            index.insert(oid, Point(rng.random(), rng.random()))
        for oid in range(0, 10):
            index.delete(oid)
        index.durability.flush()
        index.detach_durability()

        logs = shard_log_paths(tmp_path / "wal")
        victim_sid, victim = max(
            logs.items(), key=lambda item: item[1].stat().st_size
        )
        offsets = frame_boundaries(victim)
        assert len(offsets) > 10, "victim shard saw real traffic"

        cuts = []
        for count in range(len(offsets) - 1, -1, -1):
            cuts.append(offsets[count])
            if count:
                cuts.append((offsets[count - 1] + offsets[count]) // 2)
        for cut_at in sorted(cuts, reverse=True):
            with open(victim, "r+b") as handle:
                handle.truncate(cut_at)
            recovered = load_index(tmp_path / "wal" / "checkpoint.json")
            expected_positions, expected_owner = replay_reference(
                per_shard_baseline, logs, meta_log_path(tmp_path / "wal")
            )
            assert_recovered_state(recovered, expected_positions)
            # Placement matches the reference replay too: a half-replayed
            # migration must land the object on the arrival shard.
            assert {
                oid: recovered.shard_for(oid) for oid in recovered.object_directory()
            } == expected_owner
            recovered.detach_durability()


def switch_frame_index(log, pre_ops):
    """The frame index of the strategy-switch record, asserted in position."""
    frames = list(read_frames(log))
    switch_at = next(
        i
        for i, (_lsn, records) in enumerate(frames)
        if any(record.kind == KIND_SET_STRATEGY for record in records)
    )
    assert switch_at == pre_ops, "one frame per op, then the switch frame"
    return switch_at


class TestStrategySwitchCrashPoints:
    """The strategy-switch WAL frame: cuts at and around it must recover the
    strategy that was live at the cut — pre-switch before the frame survives
    intact (including a torn switch frame), post-switch from the frame on."""

    def test_cuts_at_and_around_the_switch_frame(self, tmp_path):
        rng = random.Random(17)
        index = open_index(
            {
                "config": {"strategy": "TD"},
                "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
            }
        )
        index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(60)]
        )
        baseline = {oid: index.position_of(oid) for oid in range(60)}
        pre = [
            ("update", oid, Point(rng.random(), rng.random()))
            for oid in rng.sample(range(60), 8)
        ]
        post = [
            ("update", oid, Point(rng.random(), rng.random()))
            for oid in rng.sample(range(60), 8)
        ]
        for _kind, oid, position in pre:
            index.update(oid, position)
        index.set_strategy("GBU")
        for _kind, oid, position in post:
            index.update(oid, position)
        index.durability.flush()
        index.detach_durability()

        log = shard_log_paths(tmp_path / "wal")[0]
        offsets = frame_boundaries(log)
        switch_at = switch_frame_index(log, len(pre))
        assert len(offsets) - 1 == len(pre) + 1 + len(post)

        mid_switch = (offsets[switch_at] + offsets[switch_at + 1]) // 2
        cases = [
            (offsets[-1], "GBU", pre + post),  # whole log
            (offsets[switch_at + 2], "GBU", pre + post[:1]),
            (offsets[switch_at + 1], "GBU", pre),  # switch is the last frame
            (mid_switch, "TD", pre),  # torn switch frame: switch never happened
            (offsets[switch_at], "TD", pre),
            (offsets[max(0, switch_at - 1)], "TD", pre[:-1]),
        ]
        for cut_at, expected_strategy, intact in sorted(cases, reverse=True):
            with open(log, "r+b") as handle:
                handle.truncate(cut_at)
            recovered = load_index(tmp_path / "wal" / "checkpoint.json")
            assert recovered.active_strategies() == [expected_strategy], cut_at
            assert recovered.config.strategy == "TD"
            assert_recovered_state(
                recovered, apply_script(dict(baseline), intact)
            )
            recovered.detach_durability()

    def test_cut_between_two_switches_recovers_the_middle_strategy(
        self, tmp_path
    ):
        rng = random.Random(23)
        index = open_index(
            {
                "config": {"strategy": "TD"},
                "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
            }
        )
        index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(40)]
        )
        index.set_strategy("GBU")
        for oid in range(5):
            index.update(oid, Point(rng.random(), rng.random()))
        index.set_strategy("LBU")
        index.durability.flush()
        index.detach_durability()

        log = shard_log_paths(tmp_path / "wal")[0]
        offsets = frame_boundaries(log)
        # Frames: switch, 5 updates, switch.  Cut after the updates.
        with open(log, "r+b") as handle:
            handle.truncate(offsets[6])
        recovered = load_index(tmp_path / "wal" / "checkpoint.json")
        assert recovered.active_strategies() == ["GBU"]
        recovered.validate()
        recovered.detach_durability()

    def test_sharded_per_shard_switch_frame_truncation(self, tmp_path):
        rng = random.Random(31)
        index = open_index(
            {
                "kind": "sharded",
                "shards": 2,
                "config": {"strategy": "NAIVE"},
                "durability": {"dir": str(tmp_path / "wal"), "sync": "none"},
            }
        )
        index.load(
            [(oid, Point(rng.random(), rng.random())) for oid in range(80)]
        )
        baseline = {oid: index.position_of(oid) for oid in range(80)}
        local = sorted(
            oid for oid in index.object_directory() if index.shard_for(oid) == 1
        )[:12]

        def move_within_shard_1(oid):
            while True:
                position = Point(rng.random(), rng.random())
                if index.partitioner.shard_of(position) == 1:
                    return ("update", oid, position)

        pre = [move_within_shard_1(oid) for oid in local[:6]]
        post = [move_within_shard_1(oid) for oid in local[6:]]
        for _kind, oid, position in pre:
            index.update(oid, position)
        index.set_strategy("LBU", shard_id=1)
        for _kind, oid, position in post:
            index.update(oid, position)
        index.durability.flush()
        index.detach_durability()

        victim = shard_log_paths(tmp_path / "wal")[1]
        offsets = frame_boundaries(victim)
        switch_at = switch_frame_index(victim, len(pre))

        mid_switch = (offsets[switch_at] + offsets[switch_at + 1]) // 2
        cases = [
            (offsets[-1], "LBU", pre + post),
            (offsets[switch_at + 1], "LBU", pre),
            (mid_switch, "NAIVE", pre),
            (offsets[switch_at], "NAIVE", pre),
        ]
        for cut_at, expected_strategy, intact in sorted(cases, reverse=True):
            with open(victim, "r+b") as handle:
                handle.truncate(cut_at)
            recovered = load_index(tmp_path / "wal" / "checkpoint.json")
            assert recovered.shards[1].active_strategy == expected_strategy
            assert recovered.shards[0].active_strategy == "NAIVE"
            assert recovered.active_strategies() == [
                "NAIVE",
                expected_strategy,
            ]
            assert_recovered_state(
                recovered, apply_script(dict(baseline), intact)
            )
            recovered.detach_durability()


# Pristine single-index scenario shared by every Hypothesis example: the
# checkpoint text, the full log bytes, and the operation script.
@pytest.fixture(scope="module")
def pristine_scenario():
    root = Path(tempfile.mkdtemp(prefix="crash-prop-"))
    try:
        baseline, script = build_single(root, "GBU", objects=60, seed=13)
        wal = root / "wal"
        log_bytes = shard_log_paths(wal)[0].read_bytes()
        yield {
            "checkpoint": (wal / "checkpoint.json").read_text(),
            "log_bytes": log_bytes,
            "offsets": frame_boundaries(shard_log_paths(wal)[0]),
            "baseline": baseline,
            "script": script,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


class TestArbitraryCrashOffsets:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_any_truncation_recovers_a_prefix(self, pristine_scenario, fraction):
        scenario = pristine_scenario
        cut_at = int(fraction * len(scenario["log_bytes"]))
        intact_ops = max(
            count
            for count, offset in enumerate(scenario["offsets"])
            if offset <= cut_at
        )
        stage = Path(tempfile.mkdtemp(prefix="crash-prop-case-"))
        try:
            wal = stage / "wal"
            wal.mkdir()
            # The checkpoint embeds its durability directory; point the copy
            # at the staged logs so recovery replays the truncated file.
            document = json.loads(scenario["checkpoint"])
            document["durability"]["dir"] = str(wal)
            (wal / "checkpoint.json").write_text(json.dumps(document))
            (wal / "shard-0000.wal").write_bytes(scenario["log_bytes"][:cut_at])
            recovered = load_index(wal / "checkpoint.json")
            expected = apply_script(
                dict(scenario["baseline"]), scenario["script"][:intact_ops]
            )
            assert_recovered_state(recovered, expected)
            recovered.detach_durability()
        finally:
            shutil.rmtree(stage, ignore_errors=True)


# ----------------------------------------------------------------------
# The call scope: one durability point per execute_many
# ----------------------------------------------------------------------
TICK_UPDATES = 245
TICK_BARRIERS = 5
SCOPE_OBJECTS = 400


def open_scoped(directory, sync="group"):
    """A loaded 4-shard durable index (small pages: real multi-leaf shards)."""
    rng = random.Random(41)
    index = open_index(
        {
            "kind": "sharded",
            "shards": 4,
            "config": {"strategy": "GBU", "page_size": 256},
            "durability": {"dir": str(directory), "sync": sync},
        }
    )
    index.load(
        [(oid, Point(rng.random(), rng.random())) for oid in range(SCOPE_OBJECTS)]
    )
    return index, rng


def make_tick(rng, positions):
    """A 250-op tick: 245 updates (one in ten a long move, so objects cross
    shard boundaries) with 5 range-query barriers dropped in at random.

    Returns ``(operations, assigned)``; *assigned* maps each touched oid to
    every position the tick gives it, in order.  *positions* is advanced.
    """
    operations = []
    assigned = {}
    for _ in range(TICK_UPDATES):
        oid = rng.randrange(len(positions))
        old = positions[oid]
        if rng.random() < 0.1:
            new = Point(rng.random(), rng.random())
        else:
            new = Point(
                min(1.0, max(0.0, old.x + rng.uniform(-0.03, 0.03))),
                min(1.0, max(0.0, old.y + rng.uniform(-0.03, 0.03))),
            )
        operations.append(Update(oid, new))
        assigned.setdefault(oid, []).append(new)
        positions[oid] = new
    for _ in range(TICK_BARRIERS):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        operations.insert(
            rng.randrange(len(operations) + 1), RangeQuery(Rect(x, y, x + 0.2, y + 0.2))
        )
    return operations, assigned


class SyncRecorder:
    """An ``os.fsync`` stand-in that knows what each log held at its last sync.

    ``sizes`` maps log file name to its synced byte length, ``rounds`` keeps
    a copy of that map after every successful sync, and ``fail_at`` makes
    the k-th call (1-based, counted from :meth:`arm`) raise ``EIO``.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.real = os.fsync
        self.arm()
        self.sizes = {
            path.name: path.stat().st_size for path in self.directory.glob("*.wal")
        }

    def arm(self, fail_at=None):
        self.calls = 0
        self.fail_at = fail_at
        self.rounds = []

    def __call__(self, fd):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.EIO, "injected fsync failure")
        self.real(fd)
        status = os.fstat(fd)
        for path in self.directory.glob("*.wal"):
            if path.stat().st_ino == status.st_ino:
                self.sizes[path.name] = status.st_size
        self.rounds.append(dict(self.sizes))

    def recover_cut(self, stage, sizes):
        """Recover a copy of the directory whose logs end at *sizes*."""
        stage.mkdir()
        document = json.loads((self.directory / "checkpoint.json").read_text())
        document["durability"]["dir"] = str(stage)
        (stage / "checkpoint.json").write_text(json.dumps(document))
        for path in self.directory.glob("*.wal"):
            (stage / path.name).write_bytes(
                path.read_bytes()[: sizes.get(path.name, 0)]
            )
        return recover_index(stage)


def assert_whole(recovered):
    """Structure valid, nothing lost, nothing duplicated."""
    recovered.validate()
    assert len(recovered) == SCOPE_OBJECTS
    assert sorted(recovered.range_query(WHOLE_SPACE)) == list(range(SCOPE_OBJECTS))


class TestCallScopeCrashCuts:
    def test_every_cut_of_the_exit_sync_round_recovers_whole(self, tmp_path, monkeypatch):
        index, rng = open_scoped(tmp_path / "wal")
        positions = {oid: index.position_of(oid) for oid in range(SCOPE_OBJECTS)}
        for _ in range(2):  # two fully acknowledged ticks
            index.execute_many(make_tick(rng, positions)[0])
        acknowledged = dict(positions)
        recorder = SyncRecorder(tmp_path / "wal")
        monkeypatch.setattr(os, "fsync", recorder)

        before_round = dict(recorder.sizes)
        operations, assigned = make_tick(rng, positions)
        result = index.execute_many(operations)
        monkeypatch.undo()

        assert result.migrations > 0 and len(result.queries) == TICK_BARRIERS
        # The exit round is the tick's only syncing: once per dirty shard log.
        assert 2 <= len(recorder.rounds) <= 4
        cuts = [before_round] + recorder.rounds
        for number, sizes in enumerate(cuts):
            recovered = recorder.recover_cut(tmp_path / f"cut{number}", sizes)
            assert_whole(recovered)
            for oid in range(SCOPE_OBJECTS):
                position = recovered.position_of(oid)
                if oid not in assigned:
                    assert position == acknowledged[oid]
                else:
                    assert position == acknowledged[oid] or position in assigned[oid]
            if number == 0:  # nothing of the tick was durable yet
                assert all(
                    recovered.position_of(oid) == acknowledged[oid]
                    for oid in range(SCOPE_OBJECTS)
                )
            if number == len(cuts) - 1:  # the call returned: durable in full
                assert all(
                    recovered.position_of(oid) == index.position_of(oid)
                    for oid in range(SCOPE_OBJECTS)
                )
            recovered.detach_durability()
        index.detach_durability()


class TestCallScopeWorkBound:
    """A silent fall-back to per-unit syncing fails here, not in a benchmark."""

    @pytest.mark.parametrize("sync", ("group", "always", "none"))
    def test_fsyncs_per_tick(self, tmp_path, monkeypatch, sync):
        index, rng = open_scoped(tmp_path / "wal", sync=sync)
        positions = {oid: index.position_of(oid) for oid in range(SCOPE_OBJECTS)}
        recorder = SyncRecorder(tmp_path / "wal")
        monkeypatch.setattr(os, "fsync", recorder)
        result = index.execute_many(make_tick(rng, positions)[0])
        monkeypatch.undo()
        assert result.updates == TICK_UPDATES and result.migrations > 0
        # load() rotated the logs, so every frame on disk is the tick's:
        # 6 segments on up to 4 logs, plus two per migration.
        appended = sum(
            len(frame_boundaries(path)) - 1
            for path in shard_log_paths(tmp_path / "wal").values()
        )
        assert appended > 4 * TICK_BARRIERS
        if sync == "group":
            assert 1 <= recorder.calls <= 4  # once per dirty log
        elif sync == "always":
            assert recorder.calls == appended  # every frame of every unit
        else:
            assert recorder.calls == 0
        index.detach_durability()


class TestCallScopeFaults:
    def test_eio_at_any_sync_of_the_exit_round_is_raised_and_healed(
        self, tmp_path, monkeypatch
    ):
        index, rng = open_scoped(tmp_path / "wal")
        positions = {oid: index.position_of(oid) for oid in range(SCOPE_OBJECTS)}
        recorder = SyncRecorder(tmp_path / "wal")
        monkeypatch.setattr(os, "fsync", recorder)
        for fail_at in (1, 2, 3, 4):
            recorder.arm(fail_at=fail_at)
            with pytest.raises(OSError) as raised:
                index.execute_many(make_tick(rng, positions)[0])
            assert raised.value.errno == errno.EIO
            assert recorder.calls == fail_at  # the round stopped at the fault
            # Applied in full, answering from the applied state.
            index.validate()
            assert all(index.position_of(oid) == p for oid, p in positions.items())
            assert sorted(index.range_query(WHOLE_SPACE)) == list(range(SCOPE_OBJECTS))
            # Logs sync in shard order: the failed one and those after it wait.
            assert index.durability._dirty == set(range(fail_at - 1, 4))
            recorder.arm()
            if fail_at % 2:
                index.durability.flush()
            else:  # or simply the next call
                index.execute_many(make_tick(rng, positions)[0])
            assert index.durability._dirty == set()
            recovered = recorder.recover_cut(tmp_path / f"healed{fail_at}", recorder.sizes)
            assert_whole(recovered)
            assert all(recovered.position_of(oid) == p for oid, p in positions.items())
            recovered.detach_durability()
        index.detach_durability()

    def test_stream_failure_reaches_the_caller_and_the_applied_prefix_is_synced(
        self, tmp_path, monkeypatch
    ):
        index, rng = open_scoped(tmp_path / "wal")
        positions = {oid: index.position_of(oid) for oid in range(SCOPE_OBJECTS)}
        operations, assigned = make_tick(rng, positions)
        barrier = next(
            at
            for at, op in enumerate(operations)
            if isinstance(op, RangeQuery) and at > 40
        )
        first_segment = {
            op.oid for op in operations[:barrier] if isinstance(op, Update)
        }
        # The sentinel: a later, in-shard update (so a group pass sees it).
        sentinel = next(
            op.oid
            for op in operations[barrier:]
            if isinstance(op, Update)
            and len(assigned[op.oid]) == 1
            and index.partitioner.shard_of(op.new_location) == index.shard_for(op.oid)
        )

        def failing_on_sentinel(apply_group):
            def patched(leaf_page, group):
                if any(request.oid == sentinel for request in group):
                    raise RuntimeError("sentinel reached the strategy")
                return apply_group(leaf_page, group)

            return patched

        for shard in index.shards:
            monkeypatch.setattr(
                shard.strategy,
                "apply_group",
                failing_on_sentinel(shard.strategy.apply_group),
            )
        recorder = SyncRecorder(tmp_path / "wal")
        monkeypatch.setattr(os, "fsync", recorder)
        with pytest.raises(RuntimeError, match="sentinel"):
            index.execute_many(operations)
        monkeypatch.undo()

        # What was applied and appended before the failure was synced on the
        # way out: the first segment's unit is on every log it touched.
        assert recorder.calls >= 1 and index.durability._dirty == set()
        recovered = recorder.recover_cut(tmp_path / "after", recorder.sizes)
        assert_whole(recovered)
        assert all(
            recovered.position_of(oid) in assigned[oid] for oid in first_segment
        )
        recovered.detach_durability()
        index.detach_durability()
