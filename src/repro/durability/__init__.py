"""repro.durability — write-ahead logging, group commit, and crash recovery.

The durability subsystem makes an index survive crashes between
checkpoints:

* :mod:`repro.durability.wal` — the append-only binary log format: one
  CRC32-checked, length-prefixed frame per commit unit, carrying the typed
  operations as fixed-layout records with monotonic LSNs;
* :mod:`repro.durability.commit` — :class:`DurabilityManager`, which owns
  one log per shard plus a coordinator meta log, assigns LSNs, applies the
  sync policy (``always`` / ``group`` / ``none``), and rotates the logs
  when a checkpoint lands;
* :mod:`repro.durability.recovery` — replay of the intact log prefix on
  top of the latest checkpoint, truncating at the first torn frame.

Typical usage is declarative — :func:`repro.open_index` attaches the
manager and persistence does the rest::

    import repro

    index = repro.open_index({
        "kind": "sharded", "shards": 4,
        "config": {"strategy": "GBU"},
        "durability": {"dir": "/var/lib/moi", "sync": "group",
                       "group_size": 64},
    })
    index.load(objects)           # writes the initial checkpoint
    index.execute_many(updates)   # typed Updates; one fsync per dirty log

    # ...crash...

    from repro.durability import recover_index
    index = recover_index("/var/lib/moi")   # checkpoint + WAL tail
"""

from repro.durability.commit import (
    DEFAULT_GROUP_SIZE,
    DEFAULT_SYNC,
    META_SHARD,
    DurabilityManager,
    checkpoint_path,
    meta_log_path,
    normalise_spec,
    shard_log_paths,
)
from repro.durability.recovery import RecoveryReport, recover_index, replay_into
from repro.durability.wal import (
    SYNC_POLICIES,
    LogRecord,
    WriteAheadLog,
    delete_record,
    insert_record,
    intact_prefix_length,
    last_lsn,
    migrate_in_record,
    migrate_out_record,
    read_frames,
    repartition_record,
    update_record,
)

__all__ = [
    "DurabilityManager",
    "WriteAheadLog",
    "LogRecord",
    "RecoveryReport",
    "recover_index",
    "replay_into",
    "read_frames",
    "intact_prefix_length",
    "last_lsn",
    "insert_record",
    "update_record",
    "delete_record",
    "migrate_in_record",
    "migrate_out_record",
    "repartition_record",
    "normalise_spec",
    "shard_log_paths",
    "meta_log_path",
    "checkpoint_path",
    "SYNC_POLICIES",
    "DEFAULT_SYNC",
    "DEFAULT_GROUP_SIZE",
    "META_SHARD",
]
