"""Shard executors: in-process (serial) and process workers.

A :class:`~repro.shard.index.ShardedIndex` owns N fully independent
:class:`~repro.core.index.MovingObjectIndex` shards — disjoint trees, disks,
buffers and counters — so shard-local work commutes freely across shards.
The coordinator never touches a shard's tree itself: every shard-local step
is a picklable **command** (:class:`Insert`, :class:`ApplyBatch`,
:class:`Range`, :class:`KNNProbe`, the rebalance leaf-group
:class:`ExportGroup`/:class:`ImportGroup` pair, …), one function
(:func:`execute_command`) interprets a command against one shard, and the
attached executor decides *where* that interpreter runs — the two differ
only in transport:

* :class:`ShardBackend` (``serial``) — the in-process executor: commands
  run inline against the authoritative shard objects, window streams stay
  lazy inside a shard (the default, and the baseline the process executor
  must match bit for bit);
* :class:`ProcessBackend` — one long-lived worker process per shard slot
  (``workers`` may be smaller than the shard count; shard *i* lives in
  worker ``i % workers``).  Each worker owns the authoritative copy of its
  shards from attach time on (see *Attach* below), and the coordinator
  keeps per-shard **mirrors** of the metadata the router needs between
  dispatches (object positions, I/O counters, root MBRs, disk sizes).
  Commands are batched **per worker per dispatch** — one pipe message
  carries every command a dispatch has for that worker — which amortises
  IPC over whole batch buckets instead of paying a round trip per
  operation.

Attach
------
How a worker comes to own its shards follows from the start method alone.
A **fork**-started worker (the default wherever ``fork`` exists) already
holds the coordinator's live shard objects in its inherited heap — tree
pages, hash index, summary, position table — so it *adopts* them: nothing
is encoded, decoded or rebuilt.  Under any other start method nothing is
inherited, so the payload is each shard's checkpoint document and the worker
restores it (:func:`repro.core.persistence._restore_index`).  Both routes
end in the same state, which is what a restore produces: a cold pool at the
coordinator's capacity share (no frames, and no pins — those exist only
inside a batch group) and I/O and update-outcome counters equal to the
coordinator's snapshot.  The coordinator flushes each shard's pool *before*
the fork: the write-back is charged once, to counters the snapshot then
captures, so the worker continues the coordinator's counter sequence
exactly as it does after restoring a document (whose save flushes too) —
serial ≡ fork ≡ spawn on every counter.  The way back (``detach_parallel`` / ``shard_documents``) is
always the :class:`Checkpoint` command: worker-held state really does cross
a pipe.

Worker failure
--------------
A worker that dies, or does not answer within :data:`DISPATCH_DEADLINE_S`,
fails the whole backend: every worker is killed and reaped and
:class:`~repro.api.errors.WorkerFailedError` is raised — from that dispatch
and from every later one, ``detach_parallel``'s included, so the
coordinator's stale mirror shards are never installed as if they were
current.  Tree state the workers held since attach is gone; the caller
reloads from checkpoint/WAL.  A command that merely *raises* inside a live
worker surfaces as the same error type but leaves the backend serving.

Determinism and exactness
-------------------------
Executors are not allowed to change answers or costs, and cannot: both run
the same commands through the same interpreter (``ApplyBatch``
pre-commits positions then runs the shard's group-by-leaf executor;
``KNNProbe`` consumes the shard's distance-ordered stream against the
running cross-shard best list), so results, tie-breaks, update outcomes and
logical/physical I/O counters are identical — the shard-equivalence suite
asserts this per strategy.  Cross-shard kNN probes stay sequential even
under the process backend: the pruning radius each probe carries comes from
the previous shard's answer, and probing speculatively in parallel would
charge I/O a sequential probe never pays.

Every worker reply carries, besides the command payloads, a state envelope
per touched shard: a full :class:`~repro.storage.stats.IOStatistics`
snapshot and the update-outcome counters (copied field-wise into the
coordinator's mirror, so ``io_snapshot``/batch I/O deltas/rebalance load
sampling/outcome mixes keep working unchanged), the tree's root MBR, and the
disk page count; :meth:`ProcessBackend._sync_mirror` is the one place a
mirror is written.
"""

from __future__ import annotations

import bisect
import multiprocessing
import os
import weakref
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.errors import WorkerFailedError
from repro.geometry import Point, Rect
from repro.rtree.node import Entry
from repro.storage.stats import IOStatistics
from repro.update.base import BatchUpdate, UpdateStrategy

if TYPE_CHECKING:  # runtime-import free: shard.index imports this module
    from repro.shard.index import ShardedIndex

# ---------------------------------------------------------------------------
# The command protocol (everything here must pickle cleanly)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    """Insert a new object into the shard."""

    oid: int
    location: Point


@dataclass(frozen=True)
class Update:
    """In-shard move through the shard's update strategy; returns the outcome."""

    oid: int
    new_location: Point


@dataclass(frozen=True)
class Delete:
    """Remove an object from the shard; returns whether it existed."""

    oid: int


@dataclass(frozen=True)
class ApplyBatch:
    """One shard's coalesced batch bucket, run through the group-by-leaf executor.

    Positions are pre-committed, then the shard's
    :class:`~repro.update.batch.BatchExecutor` runs.  Returns the sub-result
    counters ``(groups, largest_group, residuals)``.
    """

    requests: Sequence[BatchUpdate]


@dataclass(frozen=True)
class Range:
    """Window query against this shard; returns the shard's hits in order."""

    window: Rect


@dataclass(frozen=True)
class KNNProbe:
    """One shard's step of the cross-shard best-first kNN.

    Carries the running merged best list (the pruning radius); the executor
    consumes the shard's distance-ordered stream only while candidates can
    still enter the top *k* and returns the updated best list (a new list:
    the carried one is never mutated).
    """

    point: Point
    k: int
    best: Sequence[Tuple[float, int]]


@dataclass(frozen=True)
class LeafOf:
    """Uncharged leaf-page lookups (rebalance planning); one entry per oid."""

    oids: Tuple[int, ...]


@dataclass(frozen=True)
class ExportGroup:
    """Source half of a rebalance leaf-group handoff.

    Removes the confirmed members from the planned leaf with one
    CondenseTree pass (:meth:`~repro.rtree.tree.RTree.remove_group`) and
    returns their entry rectangles.  When the leaf dissolved or a member
    left it since planning, nothing is mutated and ``ok`` is False — the
    coordinator falls back to per-object reroutes.
    """

    leaf_page: int
    oids: Tuple[int, ...]
    hint: Point


@dataclass(frozen=True)
class ImportGroup:
    """Destination half of a rebalance handoff: bulk-insert exported entries."""

    entries: Tuple[Tuple[int, Rect], ...]
    positions: Tuple[Tuple[int, Point], ...]


@dataclass(frozen=True)
class ConfigureBuffer:
    """Install this shard's share of the aggregate buffer capacity (clears it)."""

    capacity: int


@dataclass(frozen=True)
class ResetStats:
    """Zero the shard's I/O and outcome counters."""


@dataclass(frozen=True)
class Validate:
    """Run the shard's structural validation; returns its report."""

    check_min_fill: bool = False


@dataclass(frozen=True)
class RefreshSummary:
    """Rebuild the shard's summary structure from the tree (GBU)."""


@dataclass(frozen=True)
class SetStrategy:
    """Hot-swap the shard's update strategy in place; returns the new name."""

    name: str


@dataclass(frozen=True)
class Checkpoint:
    """Return the shard's full checkpoint document (page images + config)."""


Command = Any  # any of the dataclasses above


# ---------------------------------------------------------------------------
# The shared interpreter: one command against one shard
# ---------------------------------------------------------------------------


def execute_command(shard, command: Command) -> Any:
    """Run one *command* against one :class:`MovingObjectIndex` shard.

    This is the single interpreter every executor shares — the serial
    executor calls it in-process, the worker main loop calls it in its own
    process — so a command means exactly one thing regardless of
    where the shard lives.  The chain is ordered by frequency: batch
    buckets, window and kNN visits, then the per-operation commands.
    """
    if isinstance(command, ApplyBatch):
        sub = shard._execute_operation_stream(command.requests)
        return (sub.groups, sub.largest_group, sub.residuals)
    if isinstance(command, Range):
        return shard.range_query(command.window)
    if isinstance(command, KNNProbe):
        k = command.k
        best: List[Tuple[float, int]] = list(command.best)
        for candidate in shard.tree.iter_knn(command.point, k):
            if len(best) >= k and candidate[0] > best[-1][0]:
                break  # stream is distance-ordered: nothing closer follows
            bisect.insort(best, candidate)
            del best[k:]
        return best
    if isinstance(command, Insert):
        shard.insert(command.oid, command.location)
        return None
    if isinstance(command, Delete):
        return shard.delete(command.oid)
    if isinstance(command, Update):
        return shard.update(command.oid, command.new_location)
    if isinstance(command, LeafOf):
        return [shard.hash_index.peek(oid) for oid in command.oids]
    if isinstance(command, ExportGroup):
        path = shard.tree.find_path_to_leaf(
            command.leaf_page, Rect.from_point(command.hint)
        )
        if path is None:
            return {"ok": False}
        try:
            moved = shard.tree.remove_group(path, list(command.oids))
        except LookupError:
            # A member left the (still existing) leaf — nothing was mutated.
            return {"ok": False}
        for oid in command.oids:
            shard._positions.pop(oid, None)
        return {"ok": True, "entries": [(entry.child, entry.rect) for entry in moved]}
    if isinstance(command, ImportGroup):
        # Entries are immutable values: re-creating them in the exported
        # order is the same bulk-insert input the removed entries were.
        shard.tree.insert_group(
            [Entry(rect, oid) for oid, rect in command.entries]
        )
        shard._positions.update(command.positions)
        return None
    if isinstance(command, ConfigureBuffer):
        shard.buffer.clear()
        shard.buffer.capacity = command.capacity
        return None
    if isinstance(command, ResetStats):
        shard.reset_statistics()
        return None
    if isinstance(command, Validate):
        return shard.validate(check_min_fill=command.check_min_fill)
    if isinstance(command, RefreshSummary):
        shard.refresh_summary()
        return None
    if isinstance(command, SetStrategy):
        return shard.set_strategy(command.name)
    if isinstance(command, Checkpoint):
        from repro.core.persistence import _index_document

        return _index_document(shard)
    raise TypeError(f"unknown shard command {command!r}")


def _execute_all(
    shards: Any, per_shard: Dict[int, Sequence[Command]]
) -> Dict[int, List[Any]]:
    """Run each shard's command list, in order, against ``shards[shard_id]``."""
    return {
        shard_id: [execute_command(shards[shard_id], command) for command in commands]
        for shard_id, commands in per_shard.items()
    }


def assign_stats(target: IOStatistics, source: IOStatistics) -> None:
    """Overwrite *target*'s counters in place with *source*'s values.

    The coordinator keeps each shard's :class:`IOStatistics` object identity
    stable (the buffer pool, disk manager and hash index of the mirror all
    hold references to it), so syncing worker counters must assign fields,
    not replace the object.
    """
    target.physical_reads = source.physical_reads
    target.physical_writes = source.physical_writes
    target.logical_reads = source.logical_reads
    target.logical_writes = source.logical_writes
    target.buffer_hits = source.buffer_hits
    target.dirty_evictions = source.dirty_evictions
    target.hash_index_reads = source.hash_index_reads
    target.over_capacity_peak = source.over_capacity_peak
    target.extra = dict(source.extra)


def _counters(shard) -> Dict[str, Any]:
    """A shard's I/O and update-outcome counters as plain data.  The outcomes
    are ints in :class:`~repro.update.base.UpdateOutcome` declaration order
    (the order every strategy builds ``outcome_counts`` in, and keeps: it is
    only updated in place), then ``update_count`` — a small pickle."""
    strategy: UpdateStrategy = shard.strategy
    outcomes = (*strategy.outcome_counts.values(), strategy.update_count)
    return {"stats": shard.stats.snapshot(), "outcomes": outcomes}


def _assign_counters(shard, state: Dict[str, Any]) -> None:
    """Overwrite *shard*'s counters in place with a :func:`_counters` state."""
    assign_stats(shard.stats, state["stats"])
    strategy: UpdateStrategy = shard.strategy
    counts, outcomes = strategy.outcome_counts, state["outcomes"]
    if outcomes != (*counts.values(), strategy.update_count):
        counts.update(zip(tuple(counts), outcomes))
        strategy.update_count = outcomes[-1]


def handover_state(shard) -> Dict[str, Any]:
    """What a shard taken over elsewhere continues from: its I/O and outcome
    counters and its buffer share."""
    return {**_counters(shard), "buffer_capacity": shard.buffer.capacity}


def adopt_handover(shard, state: Dict[str, Any]) -> None:
    """Reset a taken-over shard to a :func:`handover_state`, with a cold pool
    (a worker at attach, the coordinator at detach)."""
    shard.reset_statistics()
    _assign_counters(shard, state)
    shard.buffer.clear()
    shard.buffer.capacity = state["buffer_capacity"]


def _shard_state(shard) -> Dict[str, Any]:
    """The per-shard state envelope piggybacked on every worker reply."""
    mbr = shard.tree.root_mbr()
    return {
        **_counters(shard),
        "root_mbr": None if mbr is None else tuple(mbr),
        "pages": len(shard.disk),
    }


# ---------------------------------------------------------------------------
# Worker process main loop
# ---------------------------------------------------------------------------


def _worker_main(conn, init: Dict[int, Dict[str, Any]]) -> None:
    """Own a set of shards and serve batched command dispatches over *conn*.

    ``init`` maps shard id -> attach payload: the shard itself — the live
    object a fork-started worker inherited, or its checkpoint document (page
    images + embedded config spec) under any other start method — plus what
    the worker resets it to: the coordinator's I/O and outcome counter
    values (the worker continues the coordinator's sequence) and the buffer
    share.
    """
    try:
        shards: Dict[int, Any] = {}
        for shard_id, payload in init.items():
            shard = payload["shard"]
            if isinstance(shard, dict):  # a checkpoint document: not forked
                from repro.core.persistence import _restore_index

                shard = _restore_index(shard)
            adopt_handover(shard, payload)
            shards[shard_id] = shard
        conn.send({"ok": True})
    except BaseException as error:  # hydration failed: report, then exit
        conn.send({"ok": False, "error": f"worker hydration failed: {error!r}"})
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if message[0] == "shutdown":
            conn.send({"ok": True})
            return
        _tag, per_shard = message
        try:
            payloads = _execute_all(shards, per_shard)
            state = {shard_id: _shard_state(shards[shard_id]) for shard_id in per_shard}
            conn.send({"ok": True, "payloads": payloads, "state": state})
        except BaseException as error:
            import traceback

            conn.send(
                {"ok": False, "error": f"{error!r}\n{traceback.format_exc()}"}
            )


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ShardBackend:
    """The in-process (serial) shard executor, and every executor's surface.

    ``run`` executes one command against one shard, ``dispatch`` per-shard
    command lists (each in order), ``iter_range`` streams one shard's window
    hits.  ``remote`` says whether the coordinator's shard objects are
    authoritative (serial) or mirrors (process).
    """

    name = "serial"
    remote = False
    #: The multiprocessing start method in use (process backend only).
    start_method: Optional[str] = None

    def __init__(self, sharded: "ShardedIndex", workers: Optional[int] = None) -> None:
        self.sharded = sharded
        #: Worker count, clamped to ``[1, shards]`` (default: one per shard).
        self.workers = max(1, min(workers or sharded.num_shards, sharded.num_shards))

    def run(self, shard_id: int, command: Command) -> Any:
        """One command against one shard — no per-call containers."""
        return execute_command(self.sharded.shards[shard_id], command)

    def dispatch(
        self, per_shard: Dict[int, Sequence[Command]]
    ) -> Dict[int, List[Any]]:
        return _execute_all(self.sharded.shards, per_shard)

    def iter_range(self, shard_id: int, window: Rect) -> Iterable[int]:
        """One shard's window hits, read from the tree only as consumed."""
        return self.sharded.shards[shard_id].strategy.iter_range_query(window)

    def root_mbr(self, shard_id: int) -> Optional[Rect]:
        """A shard's content MBR (uncharged)."""
        return self.sharded.shards[shard_id].tree.root_mbr()

    def disk_sizes(self) -> List[int]:
        """Every shard's disk size in pages."""
        return [len(shard.disk) for shard in self.sharded.shards]

    def close(self) -> None:
        pass

    def describe(self) -> str:
        return self.name


#: Seconds a dispatch (or the attach handshake) waits for one worker's reply
#: before the worker counts as hung.  Generous on purpose: one reply can cover
#: a whole batch bucket or a checkpoint of a large shard.
DISPATCH_DEADLINE_S = 60.0


def _terminate_workers(processes, connections, owner_pid) -> None:
    """Finalizer: make sure worker processes never outlive the backend.

    Fork-started workers inherit the coordinator's finalizer registry, so
    this also runs inside each worker at its own exit — where the Process
    handles belong to another process and must not be touched.  Workers hold
    nothing durable, and a hung one ignores anything gentler than SIGKILL.
    """
    if os.getpid() != owner_pid:
        return
    for conn in connections:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for process in processes:
        if process.is_alive():
            process.kill()
        process.join(timeout=2.0)


class ProcessBackend(ShardBackend):
    """Long-lived per-shard worker processes with batched pipe IPC.

    Worker ``w`` owns shards ``{i : i % workers == w}`` — with fewer workers
    than shards each worker serialises its own shards.  A worker takes its
    shards over once, at attach time — fork-started workers adopt the live
    shard objects they inherited, any other start method restores each
    shard's checkpoint document — and resets them to the state a restore
    produces: cold pool at the coordinator's capacity share, I/O and outcome
    counters = the coordinator's snapshot.  That snapshot is taken after the
    coordinator flushed the shard's pool (before the fork, or as part of
    encoding the document), so the write-back is charged exactly once and
    the worker continues the coordinator's counter sequence.  It then serves
    command batches until detached; the coordinator's shard objects become
    mirrors, kept in step by :meth:`_sync_mirror` after every reply.

    A dead or hung worker fails the backend for good: see the module
    docstring's *Worker failure* section.
    """

    name = "process"
    remote = True

    def __init__(
        self,
        sharded: "ShardedIndex",
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(sharded, workers)
        num_shards = sharded.num_shards
        self._root_mbrs: List[Optional[Rect]] = [
            shard.tree.root_mbr() for shard in sharded.shards
        ]
        self._disk_pages: List[int] = [len(shard.disk) for shard in sharded.shards]

        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        #: The resolved start method (``ShardedIndex.load`` re-attaches with it).
        self.start_method = start_method
        context = multiprocessing.get_context(start_method)

        # Make the package importable for spawn-started children (fork
        # inherits it anyway).
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )

        self._owner: List[int] = [
            shard_id % self.workers for shard_id in range(num_shards)
        ]
        self._connections = []
        self._processes = []
        #: Why the backend failed (a dead or hung worker); ``None`` while live.
        self._failure: Optional[str] = None
        for worker_id in range(self.workers):
            init: Dict[int, Dict[str, Any]] = {}
            for shard_id in range(num_shards):
                if self._owner[shard_id] != worker_id:
                    continue
                shard = sharded.shards[shard_id]
                if start_method == "fork":
                    # The worker adopts the object it inherits.  Flush first:
                    # the write-back lands in the counters snapshotted below.
                    shard.buffer.flush()
                    state = shard
                else:
                    from repro.core.persistence import _index_document

                    state = _index_document(shard)  # flushes, like the above
                init[shard_id] = {"shard": state, **handover_state(shard)}
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, init),
                daemon=True,
                name=f"repro-shard-worker-{worker_id}",
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._finalizer = weakref.finalize(
            self,
            _terminate_workers,
            list(self._processes),
            list(self._connections),
            os.getpid(),
        )
        for worker_id in range(self.workers):
            reply = self._reply(worker_id, None)
            if not reply.get("ok"):
                self.close()
                raise WorkerFailedError(
                    f"shard worker {worker_id} failed to start: "
                    f"{reply.get('error')}"
                )

    def _fail(
        self, worker_id: int, how: str, bundle: Optional[Dict[int, List[Command]]]
    ) -> NoReturn:
        """A worker is dead or hung: kill and reap them all, fail for good.

        *bundle* is what the worker was sent (``None`` = the attach handshake).
        """
        if bundle is None:
            in_flight = "attach"
        else:
            kinds = {type(c).__name__ for cs in bundle.values() for c in cs}
            in_flight = "+".join(sorted(kinds))
        self._failure = (
            f"shard worker {worker_id} {how} during {in_flight}; every worker "
            "of this backend was stopped and the tree state they held since "
            "attach is lost (reload from checkpoint/WAL)"
        )
        self._finalizer()  # runs _terminate_workers, once
        raise WorkerFailedError(self._failure)

    def _reply(
        self, worker_id: int, bundle: Optional[Dict[int, List[Command]]]
    ) -> Dict[str, Any]:
        """The next message from *worker_id* — or the end of the backend."""
        conn = self._connections[worker_id]
        try:
            if conn.poll(DISPATCH_DEADLINE_S):
                return conn.recv()
        except (EOFError, OSError):
            self._fail(worker_id, "died", bundle)
        self._fail(worker_id, f"timed out ({DISPATCH_DEADLINE_S:g} s)", bundle)

    def dispatch(
        self, per_shard: Dict[int, Sequence[Command]]
    ) -> Dict[int, List[Any]]:
        if self._failure is not None:
            raise WorkerFailedError(self._failure)
        per_worker: Dict[int, Dict[int, List[Command]]] = {}
        for shard_id, commands in per_shard.items():
            per_worker.setdefault(self._owner[shard_id], {})[shard_id] = list(commands)
        # One message per involved worker — send everything first so workers
        # run concurrently, then collect.
        for worker_id, bundle in per_worker.items():
            try:
                self._connections[worker_id].send(("dispatch", bundle))
            except OSError:  # BrokenPipeError: the worker is already gone
                self._fail(worker_id, "died", bundle)
        payloads: Dict[int, List[Any]] = {}
        errors: List[str] = []
        for worker_id, bundle in per_worker.items():
            reply = self._reply(worker_id, bundle)
            if not reply.get("ok"):
                errors.append(
                    f"shard worker {worker_id} failed: {reply.get('error')}"
                )
                continue
            replied = reply["payloads"]
            payloads.update(replied)
            for shard_id, state in reply["state"].items():
                self._sync_mirror(shard_id, bundle[shard_id], replied[shard_id], state)
        if errors:
            # The workers are alive and in step; only these commands failed.
            raise WorkerFailedError("; ".join(errors))
        return payloads

    def _sync_mirror(
        self,
        shard_id: int,
        commands: Sequence[Command],
        payloads: Sequence[Any],
        state: Dict[str, Any],
    ) -> None:
        """Bring the coordinator's mirror of one shard in step with a reply:
        what each executed command implies for positions, strategy name and
        knobs, then the state envelope.  Mirror trees are never touched."""
        shard = self.sharded.shards[shard_id]
        positions = shard._positions
        for command, payload in zip(commands, payloads):
            kind = type(command)
            if kind is ApplyBatch:
                for request in command.requests:
                    positions[request.oid] = request.new_location
            elif kind is Update:
                positions[command.oid] = command.new_location
            elif kind is Insert:
                positions[command.oid] = command.location
            elif kind is Delete:
                positions.pop(command.oid, None)
            elif kind is ExportGroup:
                if payload["ok"]:
                    for oid in command.oids:
                        positions.pop(oid, None)
            elif kind is ImportGroup:
                positions.update(command.positions)
            elif kind is SetStrategy:
                shard.active_strategy = payload
            elif kind is ConfigureBuffer:
                execute_command(shard, command)  # knobs only: same on the mirror
        _assign_counters(shard, state)
        mbr = state["root_mbr"]
        self._root_mbrs[shard_id] = None if mbr is None else Rect(*mbr)
        self._disk_pages[shard_id] = state["pages"]

    def run(self, shard_id: int, command: Command) -> Any:
        return self.dispatch({shard_id: [command]})[shard_id][0]

    def iter_range(self, shard_id: int, window: Rect) -> Iterable[int]:
        # Laziness ends at the pipe: reaching into a shard fetches (and
        # charges) that shard's whole answer.
        return self.run(shard_id, Range(window))

    def root_mbr(self, shard_id: int) -> Optional[Rect]:
        return self._root_mbrs[shard_id]

    def disk_sizes(self) -> List[int]:
        return list(self._disk_pages)

    def close(self) -> None:
        if self._failure is None:  # else _fail already stopped every worker
            for conn in self._connections:
                try:
                    conn.send(("shutdown",))
                except OSError:
                    continue
            for conn in self._connections:
                try:
                    if conn.poll(DISPATCH_DEADLINE_S):
                        conn.recv()
                except (EOFError, OSError):
                    pass
            for process in self._processes:
                process.join(timeout=5.0)
        # Closes the pipes; kills and reaps a worker that has not exited.
        self._finalizer()

    def describe(self) -> str:
        return f"process[{self.workers}]"


BACKENDS = ("serial", "process")


def make_backend(
    sharded: "ShardedIndex",
    backend: str,
    workers: Optional[int] = None,
    start_method: Optional[str] = None,
) -> ShardBackend:
    """Construct the named executor for *sharded*."""
    if backend == "serial":
        return ShardBackend(sharded)
    if backend == "process":
        return ProcessBackend(sharded, workers=workers, start_method=start_method)
    raise ValueError(
        f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
    )


__all__ = [
    "ApplyBatch",
    "BACKENDS",
    "Checkpoint",
    "ConfigureBuffer",
    "Delete",
    "ExportGroup",
    "ImportGroup",
    "Insert",
    "KNNProbe",
    "LeafOf",
    "ProcessBackend",
    "Range",
    "RefreshSummary",
    "ResetStats",
    "SetStrategy",
    "ShardBackend",
    "Update",
    "Validate",
    "adopt_handover",
    "assign_stats",
    "execute_command",
    "handover_state",
    "make_backend",
]
