"""Crash recovery: replay the WAL tail on top of the latest checkpoint.

Recovery is classic redo logging.  :func:`repro.core.persistence.load_index`
restores the checkpoint, then :func:`replay_into` re-applies every intact
log frame in **global LSN order** — the per-shard logs and the coordinator
meta log are merged on their shared LSN sequence, so a cross-shard
migration's two halves replay at the logical instant they committed.  Each
log's intact prefix ends at its first torn frame
(:func:`repro.durability.wal.read_frames`); everything before that point is
re-applied, everything after it is the crash's lost tail.

Replay is **idempotent** (records upsert / tolerant-delete), which makes
three things safe:

* re-applying operations the checkpoint already contains (a crash between
  the durable checkpoint landing and its log rotation completing leaves
  logs covering ops the checkpoint already holds — replaying them in order
  still converges on the same state);
* double-logged fallback paths (a bulk leaf-group migration that degrades
  to per-object reroutes);
* asymmetric torn tails of a migration's two logs: an arrival record whose
  matching departure was torn away moves the object anyway (the ownership
  map deletes it from the stale shard), so the migration replays whole from
  either surviving half that contains the arrival.  The reverse asymmetry —
  a durable departure whose matching arrival was lost in another log's torn
  tail — is an **orphaned departure**: both halves of a migration share one
  LSN, so replay detects the missing arrival and skips the departure, and
  the object stays on its source shard at its old position instead of
  vanishing.  The arrival frame's durability is thereby the precondition
  for the departure taking effect, under every sync policy and regardless
  of the order the OS flushed the two logs.

Every index is a :class:`~repro.shard.index.ShardedIndex`, so there is one
replay: each shard log into its shard (a single index is one shard and
replays ``shard-0000.wal`` alone).  Afterwards the object directory is
rebuilt from the shards' own position tables and the **last** logged
repartition is installed, so routing matches the recovered placement.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.api.errors import CheckpointError, CorruptLogError
from repro.durability.commit import checkpoint_path, meta_log_path, shard_log_paths
from repro.durability.wal import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_MIGRATE_IN,
    KIND_MIGRATE_OUT,
    KIND_REPARTITION,
    KIND_SET_STRATEGY,
    KIND_UPDATE,
    LogRecord,
    read_frames,
)

if TYPE_CHECKING:  # typing only: repro.shard imports this package
    from repro.shard.index import ShardedIndex

#: Record kinds that (up)place an object at a position.
_ARRIVALS = frozenset((KIND_INSERT, KIND_UPDATE, KIND_MIGRATE_IN))
#: Record kinds that remove an object from the logging shard.
_DEPARTURES = frozenset((KIND_DELETE, KIND_MIGRATE_OUT))


@dataclass
class RecoveryReport:
    """What one :func:`replay_into` pass re-applied."""

    frames: int = 0
    records: int = 0
    last_lsn: int = 0
    repartitioned: bool = False
    #: ``migrate_out`` records skipped because their matching arrival was
    #: lost in another log's torn tail (the object stayed on its source).
    orphaned_departures: int = 0
    applied: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.applied.items())
        )
        orphaned = (
            f", {self.orphaned_departures} orphaned departure(s) skipped"
            if self.orphaned_departures
            else ""
        )
        return (
            f"replayed {self.records} records in {self.frames} frames "
            f"(last lsn {self.last_lsn}){': ' + kinds if kinds else ''}{orphaned}"
        )


def _tagged_frames(
    shard_id: int, path: Path
) -> Iterator[Tuple[int, int, List[LogRecord]]]:
    for lsn, records in read_frames(path):
        yield lsn, shard_id, records


def replay_into(index: "ShardedIndex", directory: Union[str, Path]) -> RecoveryReport:
    """Re-apply the intact WAL prefix under *directory* onto *index*.

    *index* is freshly checkpoint-restored: each shard's log replays into
    that shard, then the object directory is rebuilt and the last logged
    repartition applied.  Must run *before* a durability manager is
    attached, so replay itself is never re-logged.
    """
    directory = Path(directory)
    report = RecoveryReport()
    subs = index.shards
    logs = shard_log_paths(directory)
    for shard_id, path in logs.items():
        if shard_id >= len(subs):
            raise CorruptLogError(
                f"{path.name} names shard {shard_id}, but the checkpoint "
                f"restored only {len(subs)} shard(s)"
            )

    #: Which sub-index currently holds each object, in replay's view.  An
    #: arrival for an object another shard still holds deletes the stale
    #: copy first — that is what repairs a migration whose departure record
    #: was torn away while its arrival survived.
    owner: Dict[int, int] = {
        oid: shard_id
        for shard_id, sub in enumerate(subs)
        for oid in sub._positions
    }

    streams = [_tagged_frames(sid, path) for sid, path in sorted(logs.items())]
    merged = heapq.merge(*streams)
    for lsn, unit in itertools.groupby(merged, key=lambda tagged: tagged[0]):
        frames = list(unit)
        report.last_lsn = max(report.last_lsn, lsn)
        # Frames sharing an LSN are one commit unit (a migration's two
        # halves, a group handoff's fan-out).  A ``migrate_out`` with no
        # matching ``migrate_in`` anywhere in its unit is *orphaned*: the
        # arrival landed in another log's torn tail, so applying the
        # departure would delete the object with nowhere for it to land.
        # Skipping it leaves the object on its source shard — the arrival
        # frame's durability is the precondition for the departure taking
        # effect, whatever order the OS flushed the two logs in.
        arrived = {
            record.oid
            for _lsn, _sid, unit_records in frames
            for record in unit_records
            if record.kind == KIND_MIGRATE_IN
        }
        for _lsn, shard_id, records in frames:
            report.frames += 1
            sub = subs[shard_id]
            for record in records:
                if record.kind == KIND_MIGRATE_OUT and record.oid not in arrived:
                    report.orphaned_departures += 1
                    continue
                report.records += 1
                report.applied[record.kind] = report.applied.get(record.kind, 0) + 1
                if record.kind == KIND_SET_STRATEGY:
                    # Re-enter the strategy that was live when the records
                    # after this one were written; the last switch in the
                    # log leaves the shard on its at-crash strategy.
                    sub.set_strategy(record.payload.decode("utf-8"))
                elif record.kind in _ARRIVALS:
                    stale = owner.get(record.oid)
                    if stale is not None and stale != shard_id:
                        subs[stale].delete(record.oid)
                    if record.oid in sub._positions:
                        sub.update(record.oid, record.position())
                    else:
                        sub.insert(record.oid, record.position())
                    owner[record.oid] = shard_id
                elif record.kind in _DEPARTURES:
                    # Tolerant: the object may already have left this shard
                    # (a departure whose matching arrival replayed first, or
                    # a double-logged reroute fallback).
                    if owner.get(record.oid) == shard_id:
                        sub.delete(record.oid)
                        del owner[record.oid]
                else:
                    raise CorruptLogError(
                        f"record kind {record.kind!r} is not valid in shard "
                        f"log {shard_id}"
                    )

    partitioner_spec: Optional[Dict[str, object]] = None
    for lsn, records in read_frames(meta_log_path(directory)):
        report.frames += 1
        report.last_lsn = max(report.last_lsn, lsn)
        for record in records:
            report.records += 1
            report.applied[record.kind] = report.applied.get(record.kind, 0) + 1
            if record.kind != KIND_REPARTITION:
                raise CorruptLogError(
                    f"record kind {record.kind!r} is not valid in the meta log"
                )
            partitioner_spec = json.loads(record.payload.decode("utf-8"))

    if partitioner_spec is not None:
        from repro.shard.partitioner import partitioner_from_spec

        index.partitioner = partitioner_from_spec(partitioner_spec)
        report.repartitioned = True
    # The directory is derived state; replay wrote object placement
    # directly into the shards, so rebuild it from them.
    index._shard_of = index._derive_directory()
    return report


def recover_index(directory: Union[str, Path]) -> "ShardedIndex":
    """Restore the durable index living under *directory*.

    Convenience wrapper: loads ``<directory>/checkpoint.json`` (which
    replays the WAL tail and re-attaches the durability manager — see
    :func:`repro.core.persistence.load_index`).
    """
    from repro.core.persistence import load_index  # lazy: avoid import cycle

    target = checkpoint_path(directory)
    if not target.exists():
        raise CheckpointError(
            f"no checkpoint under {Path(directory)} — a durable index "
            f"checkpoints on load()/checkpoint(), nothing to recover yet"
        )
    return load_index(target)


__all__ = ["RecoveryReport", "replay_into", "recover_index"]
