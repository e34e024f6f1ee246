"""Unit tests for the write-ahead log layer (``repro.durability``).

Covers the binary frame codec, the torn-frame / corrupt-frame distinction,
the :class:`~repro.durability.wal.WriteAheadLog` file lifecycle, the
:class:`~repro.durability.commit.DurabilityManager` sync policies and
rotation, the spec codec, and the crash-atomic checkpoint write.  End-to-end
recovery equivalence lives in ``tests/test_durability_recovery.py``; crash
simulation in ``tests/test_durability_crash_injection.py``.
"""

import errno
import json
import os
import struct
import zlib

import pytest

from repro.api import open_index
from repro.api.errors import CheckpointError, CorruptLogError
from repro.core.persistence import load_index, save_index
from repro.durability import (
    DEFAULT_GROUP_SIZE,
    DEFAULT_SYNC,
    META_SHARD,
    SYNC_POLICIES,
    DurabilityManager,
    WriteAheadLog,
    delete_record,
    insert_record,
    last_lsn,
    meta_log_path,
    migrate_in_record,
    migrate_out_record,
    normalise_spec,
    read_frames,
    recover_index,
    repartition_record,
    shard_log_paths,
    update_record,
)
from repro.durability.wal import (
    _FRAME_HEADER,
    KIND_DELETE,
    KIND_INSERT,
    KIND_MIGRATE_IN,
    KIND_MIGRATE_OUT,
    KIND_REPARTITION,
    KIND_UPDATE,
    LogRecord,
    encode_frame,
    intact_prefix_length,
)
from repro.geometry import Point


def write_log(path, frames):
    """Write ``[(lsn, [records])]`` to *path* through the real writer."""
    log = WriteAheadLog(path)
    for lsn, records in frames:
        log.append(lsn, records)
    log.close()


class TestFrameCodec:
    def test_every_record_kind_round_trips(self, tmp_path):
        spec = {"kind": "grid", "cells": [1, 2]}
        records = [
            insert_record(7, Point(0.25, 0.75)),
            update_record(8, Point(0.5, 0.5)),
            delete_record(9),
            migrate_in_record(10, Point(0.1, 0.9)),
            migrate_out_record(11),
            repartition_record(spec),
        ]
        path = tmp_path / "log.wal"
        write_log(path, [(1, records)])
        [(lsn, decoded)] = list(read_frames(path, strict=True))
        assert lsn == 1
        assert [r.kind for r in decoded] == [
            KIND_INSERT,
            KIND_UPDATE,
            KIND_DELETE,
            KIND_MIGRATE_IN,
            KIND_MIGRATE_OUT,
            KIND_REPARTITION,
        ]
        assert decoded[0].oid == 7 and decoded[0].position() == Point(0.25, 0.75)
        assert decoded[2].oid == 9
        assert json.loads(decoded[5].payload.decode("utf-8")) == spec

    def test_multiple_frames_keep_their_boundaries(self, tmp_path):
        path = tmp_path / "log.wal"
        write_log(
            path,
            [
                (1, [insert_record(1, Point(0.1, 0.1))]),
                (2, [update_record(1, Point(0.2, 0.2)), delete_record(2)]),
                (5, [delete_record(1)]),  # LSN gaps are fine (other logs fill them)
            ],
        )
        frames = list(read_frames(path, strict=True))
        assert [lsn for lsn, _ in frames] == [1, 2, 5]
        assert [len(records) for _, records in frames] == [1, 2, 1]

    def test_unknown_kind_is_rejected_at_encode_time(self):
        with pytest.raises(ValueError):
            encode_frame(1, [LogRecord("teleport", oid=1)])

    def test_missing_log_reads_as_empty(self, tmp_path):
        assert list(read_frames(tmp_path / "absent.wal")) == []
        assert last_lsn(tmp_path / "absent.wal") == 0


class TestTornFrames:
    """A torn tail (the crash signature) stops tolerant reads cleanly."""

    def intact(self, tmp_path):
        path = tmp_path / "log.wal"
        write_log(
            path,
            [
                (1, [insert_record(1, Point(0.1, 0.1))]),
                (2, [update_record(1, Point(0.9, 0.9))]),
            ],
        )
        return path

    @pytest.mark.parametrize("chopped", [1, 7, 9, 15])
    def test_truncated_tail_yields_the_intact_prefix(self, tmp_path, chopped):
        path = self.intact(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - chopped])
        frames = list(read_frames(path))
        assert [lsn for lsn, _ in frames] == [1]
        with pytest.raises(CorruptLogError):
            list(read_frames(path, strict=True))

    def test_crc_mismatch_ends_the_tolerant_read(self, tmp_path):
        path = self.intact(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last frame's body
        path.write_bytes(bytes(data))
        assert [lsn for lsn, _ in read_frames(path)] == [1]
        with pytest.raises(CorruptLogError):
            list(read_frames(path, strict=True))

    def test_implausible_length_field_reads_as_torn(self, tmp_path):
        path = tmp_path / "log.wal"
        path.write_bytes(_FRAME_HEADER.pack(2**31, 0))
        assert list(read_frames(path)) == []
        with pytest.raises(CorruptLogError):
            list(read_frames(path, strict=True))


class TestCorruptFrames:
    """CRC-valid nonsense is corruption and raises in both read modes."""

    def frame_with_body(self, body: bytes) -> bytes:
        return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body

    def test_unknown_kind_byte(self, tmp_path):
        body = struct.pack("<QI", 1, 1) + struct.pack("<BQ", 99, 7)
        path = tmp_path / "log.wal"
        path.write_bytes(self.frame_with_body(body))
        for strict in (False, True):
            with pytest.raises(CorruptLogError):
                list(read_frames(path, strict=strict))

    def test_record_count_overrunning_the_body(self, tmp_path):
        body = struct.pack("<QI", 1, 3) + struct.pack("<BQ", 3, 7)  # says 3, holds 1
        path = tmp_path / "log.wal"
        path.write_bytes(self.frame_with_body(body))
        with pytest.raises(CorruptLogError):
            list(read_frames(path))

    def test_trailing_bytes_inside_the_body(self, tmp_path):
        body = struct.pack("<QI", 1, 1) + struct.pack("<BQ", 3, 7) + b"xx"
        path = tmp_path / "log.wal"
        path.write_bytes(self.frame_with_body(body))
        with pytest.raises(CorruptLogError):
            list(read_frames(path))

    def test_lsn_running_backwards(self, tmp_path):
        path = tmp_path / "log.wal"
        write_log(path, [(2, [delete_record(1)])])
        with open(path, "ab") as handle:
            handle.write(encode_frame(2, [delete_record(2)]))  # does not advance
        for strict in (False, True):
            with pytest.raises(CorruptLogError):
                list(read_frames(path, strict=strict))


class TestWriteAheadLogLifecycle:
    def test_append_sets_dirty_and_sync_clears_it(self, tmp_path):
        log = WriteAheadLog(tmp_path / "log.wal")
        assert log.dirty is False
        log.append(1, [delete_record(1)])
        assert log.dirty is True
        log.sync()
        assert log.dirty is False
        log.close()

    def test_truncate_drops_every_frame(self, tmp_path):
        log = WriteAheadLog(tmp_path / "log.wal")
        log.append(1, [insert_record(1, Point(0.5, 0.5))])
        log.truncate()
        log.append(2, [delete_record(1)])
        log.close()
        assert [lsn for lsn, _ in read_frames(tmp_path / "log.wal")] == [2]

    def test_reopening_appends_after_the_existing_frames(self, tmp_path):
        write_log(tmp_path / "log.wal", [(1, [delete_record(1)])])
        write_log(tmp_path / "log.wal", [(2, [delete_record(2)])])
        assert [lsn for lsn, _ in read_frames(tmp_path / "log.wal")] == [1, 2]

    def test_reopening_truncates_a_torn_tail_before_appending(self, tmp_path):
        """Frames appended after a crash must not land beyond the tear.

        A reader stops at the first torn frame, so a writer that blindly
        appended after one would put every post-recovery frame where the
        *next* recovery never looks.  Reopening truncates to the intact
        prefix first.
        """
        path = tmp_path / "log.wal"
        write_log(path, [(1, [delete_record(1)]), (2, [delete_record(2)])])
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_frame(3, [delete_record(3)])[:-5])  # torn append
        assert intact_prefix_length(path) == intact
        write_log(path, [(3, [delete_record(4)])])
        assert path.stat().st_size > intact
        # Strict read succeeds: no torn bytes remain, every frame reachable.
        assert [lsn for lsn, _ in read_frames(path, strict=True)] == [1, 2, 3]

    def test_intact_prefix_length_of_missing_and_whole_logs(self, tmp_path):
        assert intact_prefix_length(tmp_path / "absent.wal") == 0
        path = tmp_path / "log.wal"
        write_log(path, [(1, [delete_record(1)])])
        assert intact_prefix_length(path) == path.stat().st_size


class TestDurabilityManager:
    def test_one_lsn_sequence_spans_every_log(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        manager.log_record(0, insert_record(1, Point(0.1, 0.1)))
        manager.log_record(1, insert_record(2, Point(0.9, 0.9)))
        manager.log_repartition({"kind": "grid"})
        manager.close()
        paths = shard_log_paths(tmp_path / "wal")
        assert sorted(paths) == [0, 1]
        assert [lsn for lsn, _ in read_frames(paths[0])] == [1]
        assert [lsn for lsn, _ in read_frames(paths[1])] == [2]
        assert [lsn for lsn, _ in read_frames(meta_log_path(tmp_path / "wal"))] == [3]

    def test_reattaching_continues_the_lsn_sequence(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        manager.log_record(0, delete_record(1))
        manager.log_record(0, delete_record(2))
        manager.close()
        resumed = DurabilityManager(tmp_path / "wal")
        assert resumed.last_lsn == 2
        assert resumed.log_record(0, delete_record(3)) == 3
        resumed.close()

    def test_cross_shard_unit_shares_one_lsn(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        lsn = manager.log_unit(
            {
                1: (migrate_in_record(7, Point(0.2, 0.2)),),
                0: (migrate_out_record(7),),
            },
            barrier=False,
        )
        manager.close()
        paths = shard_log_paths(tmp_path / "wal")
        assert last_lsn(paths[0]) == last_lsn(paths[1]) == lsn

    def test_empty_unit_is_a_no_op(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        before = manager.last_lsn
        assert manager.log_unit({0: ()}) == before
        manager.close()
        assert shard_log_paths(tmp_path / "wal") == {}

    def test_always_policy_syncs_every_unit(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal", sync="always")
        manager.log_record(0, delete_record(1))
        assert manager._logs[0].dirty is False
        manager.close()

    def test_group_policy_accumulates_per_op_units(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal", sync="group", group_size=3)
        manager.log_record(0, delete_record(1))
        manager.log_record(0, delete_record(2))
        assert manager._logs[0].dirty is True  # below the group threshold
        manager.log_record(0, delete_record(3))
        assert manager._logs[0].dirty is False  # third op closed the group
        manager.close()

    def test_group_policy_syncs_barrier_units_immediately(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal", sync="group", group_size=100)
        manager.log_unit({0: (delete_record(1),)}, barrier=True)
        assert manager._logs[0].dirty is False
        manager.close()

    def test_none_policy_never_syncs(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal", sync="none")
        manager.log_unit({0: (delete_record(1),)}, barrier=True)
        assert manager._logs[0].dirty is True
        manager.flush()
        assert manager._logs[0].dirty is False  # explicit flush still works
        manager.close()

    def test_rotate_truncates_every_log_and_keeps_counting(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        manager.log_record(0, delete_record(1))
        manager.log_record(1, delete_record(2))
        manager.log_repartition({"kind": "grid"})
        manager.rotate()
        assert all(
            path.stat().st_size == 0
            for path in shard_log_paths(tmp_path / "wal").values()
        )
        assert meta_log_path(tmp_path / "wal").stat().st_size == 0
        assert manager.log_record(0, delete_record(3)) == 4  # LSN did not reset
        manager.close()

    def test_rotate_truncates_logs_a_previous_process_left(self, tmp_path):
        write_log(tmp_path / "wal" / "shard-0002.wal", [(9, [delete_record(1)])])
        manager = DurabilityManager(tmp_path / "wal")
        manager.rotate()
        assert (tmp_path / "wal" / "shard-0002.wal").stat().st_size == 0
        manager.close()

    def test_spec_round_trip(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal", sync="none", group_size=9)
        clone = DurabilityManager.from_spec(manager.to_spec())
        assert clone.to_spec() == manager.to_spec()
        manager.close()
        clone.close()

    def test_defaults_are_the_documented_ones(self, tmp_path):
        manager = DurabilityManager(tmp_path / "wal")
        assert manager.sync_policy == DEFAULT_SYNC
        assert manager.group_size == DEFAULT_GROUP_SIZE
        assert DEFAULT_SYNC in SYNC_POLICIES
        manager.close()


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` made while the test runs, as a growing list of fds."""
    calls = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real(fd))
    return calls


class TestCallScope:
    """``call_scope``: under ``group`` the call is the group; one sync per dirty log."""

    def barrier(self, manager, *shards):
        return manager.log_unit(
            {shard: (delete_record(shard),) for shard in shards}, barrier=True
        )

    def test_group_defers_barrier_units_to_the_exit(self, tmp_path, fsyncs):
        manager = DurabilityManager(tmp_path / "wal", sync="group", group_size=100)
        with manager.call_scope():
            self.barrier(manager, 0, 1)
            self.barrier(manager, 1, 2)
            self.barrier(manager, 0)
            assert fsyncs == []
            assert manager._dirty == {0, 1, 2}
            assert all(manager._logs[shard].dirty for shard in (0, 1, 2))
        assert len(fsyncs) == 3  # once per dirty log, not once per unit and log
        assert manager._dirty == set()
        assert not any(manager._logs[shard].dirty for shard in (0, 1, 2))
        manager.close()

    def test_nested_scopes_sync_at_the_outermost_exit_only(self, tmp_path, fsyncs):
        manager = DurabilityManager(tmp_path / "wal", sync="group")
        with manager.call_scope():
            with manager.call_scope():
                self.barrier(manager, 0)
            assert fsyncs == [] and manager._dirty == {0}
            self.barrier(manager, 0)
        assert len(fsyncs) == 1
        self.barrier(manager, 0)  # the scope is closed: its own group again
        assert len(fsyncs) == 2
        manager.close()

    def test_per_op_units_accumulate_inside_a_scope_as_outside(self, tmp_path, fsyncs):
        manager = DurabilityManager(tmp_path / "wal", sync="group", group_size=3)
        with manager.call_scope():
            manager.log_record(0, delete_record(1))
            manager.log_record(0, delete_record(2))
            assert fsyncs == []
            manager.log_record(0, delete_record(3))  # closes a group of three
            assert len(fsyncs) == 1
            manager.log_record(0, delete_record(4))
        assert len(fsyncs) == 2  # the exit leaves nothing pending
        manager.close()

    def test_always_still_syncs_every_unit(self, tmp_path, fsyncs):
        manager = DurabilityManager(tmp_path / "wal", sync="always")
        with manager.call_scope():
            self.barrier(manager, 0)
            self.barrier(manager, 0, 1)
            assert len(fsyncs) == 3
        assert len(fsyncs) == 3
        manager.close()

    def test_none_never_syncs(self, tmp_path, fsyncs):
        manager = DurabilityManager(tmp_path / "wal", sync="none")
        with manager.call_scope():
            self.barrier(manager, 0, 1)
        assert fsyncs == [] and manager._dirty == {0, 1}
        manager.close()

    def test_failing_block_is_synced_and_its_exception_propagates(
        self, tmp_path, fsyncs
    ):
        manager = DurabilityManager(tmp_path / "wal", sync="group")
        with pytest.raises(KeyError, match="stream failed"):
            with manager.call_scope():
                self.barrier(manager, 0, 1)
                raise KeyError("stream failed")
        assert len(fsyncs) == 2 and manager._dirty == set()
        assert manager._scope_depth == 0
        manager.close()

    def test_failing_exit_sync_raises_and_keeps_unsynced_logs_dirty(
        self, tmp_path, monkeypatch
    ):
        manager = DurabilityManager(tmp_path / "wal", sync="group")
        real = os.fsync
        budget = [1]

        def second_sync_fails(fd):
            if budget[0] == 0:
                raise OSError(errno.EIO, "injected")
            budget[0] -= 1
            real(fd)

        monkeypatch.setattr(os, "fsync", second_sync_fails)
        with pytest.raises(OSError) as raised:
            with manager.call_scope():
                self.barrier(manager, 0, 1, 2)
        assert raised.value.errno == errno.EIO
        assert manager._dirty == {1, 2}  # log 0 made it, the rest did not
        # With an exception already in flight the sync failure is not the news.
        with pytest.raises(KeyError):
            with manager.call_scope():
                raise KeyError("original")
        assert manager._dirty == {1, 2}
        monkeypatch.setattr(os, "fsync", real)
        manager.flush()
        assert manager._dirty == set()
        manager.close()


class TestSpecValidation:
    def test_normalise_fills_defaults(self):
        assert normalise_spec({"dir": "/x"}) == {
            "dir": "/x",
            "sync": DEFAULT_SYNC,
            "group_size": DEFAULT_GROUP_SIZE,
        }

    @pytest.mark.parametrize(
        "spec",
        [
            {},  # missing dir
            {"dir": "/x", "sync": "fsync-sometimes"},
            {"dir": "/x", "group_size": 0},
            {"dir": "/x", "group_size": True},  # bool is not a count
            {"dir": "/x", "flush": "never"},  # unknown key
        ],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            normalise_spec(spec)


class TestAtomicCheckpoint:
    def build(self):
        index = open_index({"config": {"strategy": "TD"}})
        index.load([(oid, Point(0.1 * oid, 0.1 * oid)) for oid in range(1, 9)])
        return index

    def test_save_leaves_no_temp_files(self, tmp_path):
        index = self.build()
        save_index(index, tmp_path / "checkpoint.json")
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
        json.loads((tmp_path / "checkpoint.json").read_text())

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        index = self.build()
        target = tmp_path / "checkpoint.json"
        save_index(index, target)
        before = target.read_text()
        with pytest.raises(CheckpointError):
            save_index(index, tmp_path / "missing-dir" / "checkpoint.json")
        assert target.read_text() == before

    def test_durable_checkpoint_rotates_the_logs(self, tmp_path):
        wal = tmp_path / "wal"
        index = open_index(
            {"config": {"strategy": "TD"}, "durability": {"dir": str(wal)}}
        )
        index.load([(oid, Point(0.1 * oid, 0.1 * oid)) for oid in range(1, 9)])
        index.update(1, Point(0.95, 0.95))
        index.checkpoint()
        assert all(
            path.stat().st_size == 0 for path in shard_log_paths(wal).values()
        )

    def test_export_elsewhere_leaves_the_logs_alone(self, tmp_path):
        wal = tmp_path / "wal"
        index = open_index(
            {"config": {"strategy": "TD"}, "durability": {"dir": str(wal)}}
        )
        index.load([(oid, Point(0.1 * oid, 0.1 * oid)) for oid in range(1, 9)])
        index.update(1, Point(0.95, 0.95))
        index.durability.flush()
        sizes = {p: p.stat().st_size for p in shard_log_paths(wal).values()}
        save_index(index, tmp_path / "export.json")
        assert {p: p.stat().st_size for p in shard_log_paths(wal).values()} == sizes

    def test_checkpoint_without_durability_needs_a_path(self):
        index = self.build()
        with pytest.raises(ValueError):
            index.checkpoint()


class TestCheckpointErrors:
    def test_garbled_checkpoint_raises_checkpoint_error(self, tmp_path):
        target = tmp_path / "checkpoint.json"
        target.write_text('{"format_version": 2, "pages": {')  # torn write
        with pytest.raises(CheckpointError):
            load_index(target)

    def test_unsupported_format_version(self, tmp_path):
        target = tmp_path / "checkpoint.json"
        target.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CheckpointError):
            load_index(target)

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)
        assert issubclass(CorruptLogError, ValueError)

    def test_recover_without_a_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            recover_index(tmp_path / "nothing-here")
