"""Group commit: one manager owning every log of one durable index.

A :class:`DurabilityManager` is attached to the coordinator-side
:class:`~repro.shard.index.ShardedIndex` facade and is the only writer of
its logs.  It owns three things the individual
:class:`~repro.durability.wal.WriteAheadLog` files cannot decide alone:

* **the LSN** — one monotonic counter shared by *all* logs of the index,
  so a cross-shard migration can appear in two shard logs as one commit
  unit, and so recovery can truncate every log at a single logical instant;
* **the sync policy** — ``always`` fsyncs each commit unit, ``none`` never
  fsyncs, and ``group`` makes the *call* the group: a facade call that logs
  several batch-shaped units (``ShardedIndex.execute_many``: one unit per
  barrier segment, times the shard logs it dirtied) runs inside
  :meth:`DurabilityManager.call_scope`, which appends every unit and
  fsyncs each dirty log **once**, when the outermost scope exits — the
  caller learns nothing before the call returns, so nothing is gained by
  syncing earlier.  A batch unit logged outside any scope (bulk
  migration, repartition, strategy switch) is its own group and is
  fsynced at once; single-operation units
  accumulate until ``group_size`` of them are pending;
* **checkpoint rotation** — after a checkpoint lands, every log restarts
  empty while the LSN keeps counting.

Log layout under ``directory``::

    checkpoint.json      the checkpoint the logs are relative to
    shard-0000.wal       per-shard redo logs (a single index is one
    shard-0001.wal       shard and logs to shard-0000.wal alone)
    meta.wal             coordinator metadata (repartition records)

What a scoped call promises
---------------------------
*A call that returned is durable in full.  A call that did not return (a
crash inside it, or during its exit syncs) may survive as any per-log prefix
of its units:* each log is synced on its own, so one shard's log may hold
every unit of the call and another's none.  Recovery is built for exactly
that shape — it merges whatever intact prefix each log holds on the shared
LSN, an arrival evicts the stale copy on its source shard, and a departure
whose arrival was lost is skipped (:mod:`repro.durability.recovery`) — so
every object comes back at its pre-call position or at a position the call
gave it, none lost and none duplicated.  An ``OSError`` from one of the exit
syncs is raised to the caller with the index intact and the unsynced logs
still dirty; :meth:`DurabilityManager.flush` (or the next scoped call)
syncs them once the fault clears.

Coordinator-side logging is what keeps the ``process`` shard backend
answer-identical: every public mutation of ``ShardedIndex`` runs on the
coordinator before being dispatched, so the log sees the same stream no
matter which backend executes it.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Sequence, Set, Union

from repro.durability.wal import (
    SYNC_POLICIES,
    LogRecord,
    WriteAheadLog,
    last_lsn,
    repartition_record,
)

#: Internal shard id of the coordinator metadata log.
META_SHARD = -1

_SHARD_LOG_PATTERN = re.compile(r"^shard-(\d{4})\.wal$")
_META_LOG_NAME = "meta.wal"
_CHECKPOINT_NAME = "checkpoint.json"

DEFAULT_SYNC = "group"
DEFAULT_GROUP_SIZE = 64


def normalise_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and normalise a ``{"dir", "sync", "group_size"}`` section.

    Side-effect free (no directories are created), so a malformed spec is
    rejected before the manager touches disk.
    """
    unknown = set(spec) - {"dir", "sync", "group_size"}
    if unknown:
        raise ValueError(f"unknown durability spec keys: {sorted(unknown)}")
    if "dir" not in spec:
        raise ValueError("durability spec requires a 'dir' key")
    directory = str(spec["dir"])
    sync = str(spec.get("sync", DEFAULT_SYNC))
    if sync not in SYNC_POLICIES:
        raise ValueError(
            f"durability sync policy must be one of {SYNC_POLICIES}, got {sync!r}"
        )
    group_size = spec.get("group_size", DEFAULT_GROUP_SIZE)
    if not isinstance(group_size, int) or isinstance(group_size, bool) or group_size < 1:
        raise ValueError(f"durability group_size must be a positive int, got {group_size!r}")
    return {"dir": directory, "sync": sync, "group_size": group_size}


def shard_log_paths(directory: Union[str, Path]) -> Dict[int, Path]:
    """Shard logs present under *directory*, keyed by shard id."""
    directory = Path(directory)
    paths: Dict[int, Path] = {}
    if not directory.is_dir():
        return paths
    for entry in sorted(directory.iterdir()):
        match = _SHARD_LOG_PATTERN.match(entry.name)
        if match is not None:
            paths[int(match.group(1))] = entry
    return paths


def meta_log_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / _META_LOG_NAME


def checkpoint_path(directory: Union[str, Path]) -> Path:
    return Path(directory) / _CHECKPOINT_NAME


class DurabilityManager:
    """Write-ahead logging with group commit for one index.

    ``frames`` arguments map shard ids to the records that shard's log
    receives; every log touched by one call shares one LSN, making the
    call a single commit unit.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        sync: str = DEFAULT_SYNC,
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> None:
        spec = normalise_spec(
            {"dir": str(directory), "sync": sync, "group_size": group_size}
        )
        self.directory = Path(spec["dir"])
        self.sync_policy: str = spec["sync"]
        self.group_size: int = spec["group_size"]
        self.directory.mkdir(parents=True, exist_ok=True)
        self._logs: Dict[int, WriteAheadLog] = {}
        self._dirty: Set[int] = set()
        self._pending_ops = 0
        # Nesting depth of call_scope(); non-zero defers group-policy
        # barrier syncs to the outermost exit.
        self._scope_depth = 0
        # Continue the LSN sequence past whatever the existing logs hold, so
        # re-attaching after recovery keeps the ordering total.
        highest = 0
        for path in shard_log_paths(self.directory).values():
            highest = max(highest, last_lsn(path))
        highest = max(highest, last_lsn(meta_log_path(self.directory)))
        self._lsn = highest

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        """Where :func:`repro.core.persistence.save_index` checkpoints this index."""
        return checkpoint_path(self.directory)

    def log_path(self, shard_id: int) -> Path:
        if shard_id == META_SHARD:
            return meta_log_path(self.directory)
        return self.directory / f"shard-{shard_id:04d}.wal"

    @property
    def last_lsn(self) -> int:
        return self._lsn

    # ------------------------------------------------------------------
    # Commit units
    # ------------------------------------------------------------------
    def _log(self, shard_id: int) -> WriteAheadLog:
        log = self._logs.get(shard_id)
        if log is None:
            log = WriteAheadLog(self.log_path(shard_id))
            self._logs[shard_id] = log
        return log

    def _append_unit(self, frames: Mapping[int, Sequence[LogRecord]]) -> int:
        self._lsn += 1
        for shard_id, records in frames.items():
            if records:
                self._log(shard_id).append(self._lsn, records)
                self._dirty.add(shard_id)
        return self._lsn

    def _sync_dirty(self) -> None:
        # A log leaves the dirty set only once its own fsync returned: when
        # one raises, it and every log after it stay dirty for the next
        # flush().
        for shard_id in sorted(self._dirty):
            self._logs[shard_id].sync()
            self._dirty.discard(shard_id)
        self._pending_ops = 0

    @contextmanager
    def call_scope(self) -> Iterator[None]:
        """One durability point for everything logged inside the ``with`` block.

        Under ``group`` sync, batch-shaped units (``barrier=True``) logged
        inside the scope are appended without syncing, and the outermost
        exit fsyncs each dirty log once (:meth:`flush`).  Scopes nest — a
        depth counter is the only state — and only the outermost exit
        syncs.  ``always`` keeps syncing per unit and ``none`` never syncs;
        single-operation units accumulate towards ``group_size`` exactly as
        they do outside a scope.

        The exit syncs also when the block raises, so units that were
        applied and appended before the failure are durable; the block's
        exception is the one that propagates (an ``OSError`` from that
        clean-up sync is dropped, the logs it left unsynced stay dirty).
        When the block completed, an ``OSError`` from the exit sync is
        raised: the call's effects are applied but not yet durable.
        """
        self._scope_depth += 1
        completed = False
        try:
            yield
            completed = True
        finally:
            self._scope_depth -= 1
            if self._scope_depth == 0 and self.sync_policy == "group":
                try:
                    self.flush()
                except OSError:
                    if completed:
                        raise

    def log_record(self, shard_id: int, record: LogRecord) -> int:
        """Log one routed operation as its own frame (per-op commit unit)."""
        return self.log_unit({shard_id: (record,)}, barrier=False)

    def log_unit(
        self, frames: Mapping[int, Sequence[LogRecord]], barrier: bool = True
    ) -> int:
        """Log one commit unit spanning one or more shard logs.

        ``barrier=True`` marks a batch-shaped unit (a whole dispatch, a bulk
        migration, a repartition): under ``group`` sync it is fsynced
        immediately — the batch *is* the group — unless a
        :meth:`call_scope` is open, in which case the enclosing call is the
        group and its exit syncs.  ``barrier=False`` marks a single routed
        operation, which under ``group`` sync accumulates until
        ``group_size`` operations are pending.
        """
        if not any(records for records in frames.values()):
            return self._lsn
        lsn = self._append_unit(frames)
        if self.sync_policy == "always":
            self._sync_dirty()
        elif self.sync_policy == "group":
            if barrier:
                if not self._scope_depth:
                    self._sync_dirty()
            else:
                self._pending_ops += 1
                if self._pending_ops >= self.group_size:
                    self._sync_dirty()
        return lsn

    def log_repartition(self, partitioner_spec: Mapping[str, Any]) -> int:
        """Log a partitioner change to the coordinator metadata log."""
        record = repartition_record(dict(partitioner_spec))
        return self.log_unit({META_SHARD: (record,)}, barrier=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """fsync every log with unsynced frames (any policy)."""
        self._sync_dirty()

    def rotate(self) -> None:
        """Truncate every log after a checkpoint; the LSN keeps counting.

        Logs that exist on disk but have not been opened by this manager
        (left over from a previous process) are truncated too — after a
        checkpoint *no* log may still describe pre-checkpoint history.
        """
        on_disk = set(shard_log_paths(self.directory))
        for shard_id in on_disk | set(self._logs):
            self._log(shard_id).truncate()
        meta = meta_log_path(self.directory)
        if META_SHARD in self._logs or meta.exists():
            self._log(META_SHARD).truncate()
        self._dirty.clear()
        self._pending_ops = 0

    def close(self) -> None:
        """fsync and close every log (detach)."""
        for log in self._logs.values():
            log.close(sync=True)
        self._logs.clear()
        self._dirty.clear()
        self._pending_ops = 0

    # ------------------------------------------------------------------
    # Spec codec
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        return {
            "dir": str(self.directory),
            "sync": self.sync_policy,
            "group_size": self.group_size,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "DurabilityManager":
        normalised = normalise_spec(spec)
        return cls(
            normalised["dir"],
            sync=normalised["sync"],
            group_size=normalised["group_size"],
        )

    def __repr__(self) -> str:
        return (
            f"DurabilityManager(dir={str(self.directory)!r}, "
            f"sync={self.sync_policy!r}, group_size={self.group_size}, "
            f"lsn={self._lsn})"
        )


__all__ = [
    "DurabilityManager",
    "normalise_spec",
    "shard_log_paths",
    "meta_log_path",
    "checkpoint_path",
    "META_SHARD",
    "DEFAULT_SYNC",
    "DEFAULT_GROUP_SIZE",
]
