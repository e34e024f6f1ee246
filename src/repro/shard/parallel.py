"""Shard executors: in-process (serial) and process workers.

A :class:`~repro.shard.index.ShardedIndex` owns N fully independent
:class:`~repro.core.index.MovingObjectIndex` shards — disjoint trees, disks,
buffers and counters — so shard-local work commutes freely across shards.
The coordinator never touches a shard's tree itself: every shard-local step
is one call of a ``MovingObjectIndex`` method, named by attribute, with its
arguments (``run(shard_id, MovingObjectIndex.insert, oid, location)``;
``dispatch`` takes per-shard lists of ``(method, args)`` pairs, each list run
in order).  The attached executor decides *where* that call runs — the two
differ only in transport:

* :class:`ShardBackend` (``serial``) — the in-process executor: it calls
  the method on the authoritative shard object, and window streams stay
  lazy inside a shard (the default, and the baseline the process executor
  must match bit for bit);
* :class:`ProcessBackend` — one long-lived worker process per shard slot
  (``workers`` may be smaller than the shard count; shard *i* lives in
  worker ``i % workers``).  Each worker owns the authoritative copy of its
  shards from attach time on (see *Attach* below), and the coordinator
  keeps per-shard **mirrors** of the metadata the router needs between
  dispatches (object positions, I/O counters, root MBRs, disk sizes).  A
  call crosses the pipe as the method's ``__name__`` and its arguments, and
  the worker runs ``getattr(shard, name)(*args)``.  Calls are batched **per
  worker per dispatch** — one pipe message carries every call a dispatch
  has for that worker — which amortises IPC over whole batch buckets
  instead of paying a round trip per operation.

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
serial ≡ fork ≡ spawn on every counter.  The way back (``detach_parallel`` /
``shard_documents``) is always ``MovingObjectIndex.checkpoint_document``:
worker-held state really does cross a pipe.

Worker failure
--------------
A worker that dies, or does not answer within :data:`DISPATCH_DEADLINE_S`,
fails the whole backend: every worker is killed and reaped and
:class:`~repro.api.errors.WorkerFailedError`, naming the methods in flight,
is raised — from that dispatch and from every later one,
``detach_parallel``'s included, so the coordinator's stale mirror shards are
never installed as if they were current.  Tree state the workers held since
attach is gone; the caller reloads from checkpoint/WAL.  A call that merely
*raises* inside a live worker surfaces as the same error type but leaves the
backend serving.

Determinism and exactness
-------------------------
Executors are not allowed to change answers or costs, and cannot: both run
the same shard methods (``_execute_operation_stream`` pre-commits positions
then runs the shard's group-by-leaf executor; ``knn_probe`` consumes the
shard's distance-ordered stream against the running cross-shard best list),
so results, tie-breaks, update outcomes and logical/physical I/O counters
are identical — the shard-equivalence suite asserts this per strategy.
Cross-shard kNN probes stay sequential even under the process backend: the
pruning radius each probe carries comes from the previous shard's answer,
and probing speculatively in parallel would charge I/O a sequential probe
never pays.

Every worker reply carries, besides the call results, a state envelope
per touched shard: a full :class:`~repro.storage.stats.IOStatistics`
snapshot, update-outcome counts included (assigned in place into the
coordinator's mirror, so ``io_snapshot``/batch I/O deltas/rebalance load
sampling/outcome mixes keep working unchanged), the tree's root MBR, and the
disk page count; :meth:`ProcessBackend._sync_mirror` is the one place a
mirror is written.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from types import MethodType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NoReturn,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.errors import WorkerFailedError
from repro.api.schema import SPEC_KEYS
from repro.core.index import MovingObjectIndex
from repro.geometry import Rect

if TYPE_CHECKING:  # runtime-import free: shard.index imports this module
    from repro.shard.index import ShardedIndex

#: One shard-local step: a ``MovingObjectIndex`` method and its arguments.
Call = Tuple[Callable[..., Any], Tuple[Any, ...]]
#: The same step on the wire: the method's name instead of the method.
NamedCall = Tuple[str, Tuple[Any, ...]]


#: The method names :meth:`ProcessBackend._sync_mirror` keys on, read off
#: the methods themselves so that renaming one fails at import.
_STREAM, _UPDATE, _INSERT, _DELETE, _EXPORT, _IMPORT, _STRATEGY, _BUFFER = (
    method.__name__
    for method in (
        MovingObjectIndex._execute_operation_stream,
        MovingObjectIndex.update,
        MovingObjectIndex.insert,
        MovingObjectIndex.delete,
        MovingObjectIndex.export_group,
        MovingObjectIndex.import_group,
        MovingObjectIndex.set_strategy,
        MovingObjectIndex.set_buffer_capacity,
    )
)


def _run_calls(
    shards: Any, per_shard: Dict[int, Sequence[Any]], bind: Callable[[Any, Any], Any]
) -> Dict[int, List[Any]]:
    """The one call interpreter: each shard's ``(method, args)`` calls, in
    order.  *bind* turns the method into a callable on the shard —
    ``getattr`` on the method's name in a worker, method binding
    in-process."""
    return {
        shard_id: [bind(shards[shard_id], method)(*args) for method, args in calls]
        for shard_id, calls in per_shard.items()
    }


def _bind(shard: MovingObjectIndex, method: Callable[..., Any]) -> Any:
    return MethodType(method, shard)


def handover_state(shard) -> Dict[str, Any]:
    """What a shard taken over elsewhere continues from: its counters (I/O
    and update outcomes) and its buffer share."""
    return {"stats": shard.stats.snapshot(), "buffer_capacity": shard.buffer.capacity}


def adopt_handover(shard, state: Dict[str, Any]) -> None:
    """Reset a taken-over shard to a :func:`handover_state`, with a cold pool
    (a worker at attach, the coordinator at detach)."""
    shard.stats.assign(state["stats"])
    shard.set_buffer_capacity(state["buffer_capacity"])


def _shard_state(shard) -> Dict[str, Any]:
    """The per-shard state envelope piggybacked on every worker reply."""
    mbr = shard.tree.root_mbr()
    return {
        "stats": shard.stats.snapshot(),
        "root_mbr": None if mbr is None else tuple(mbr),
        "pages": len(shard.disk),
    }


# ---------------------------------------------------------------------------
# Worker process main loop
# ---------------------------------------------------------------------------


def _worker_main(conn, init: Dict[int, Dict[str, Any]]) -> None:
    """Own a set of shards and serve batched call dispatches over *conn*.

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
            payloads = _run_calls(shards, per_shard, getattr)
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

    ``run`` calls one ``MovingObjectIndex`` method on one shard,
    ``dispatch`` per-shard lists of ``(method, args)`` calls (each list in
    order), ``iter_range`` streams one shard's window hits.  Under any
    executor but this one the coordinator's shard objects are mirrors, not
    the authoritative shards.
    """

    name = "serial"
    #: The multiprocessing start method in use (process backend only).
    start_method: Optional[str] = None

    def __init__(self, sharded: "ShardedIndex", workers: Optional[int] = None) -> None:
        self.sharded = sharded
        #: Worker count, clamped to ``[1, shards]`` (default: one per shard).
        self.workers = max(1, min(workers or sharded.num_shards, sharded.num_shards))

    def run(self, shard_id: int, method: Callable[..., Any], *args: Any) -> Any:
        """``method(shard, *args)`` on one shard — no per-call containers."""
        return method(self.sharded.shards[shard_id], *args)

    def dispatch(self, per_shard: Dict[int, Sequence[Call]]) -> Dict[int, List[Any]]:
        return _run_calls(self.sharded.shards, per_shard, _bind)

    def iter_range(self, shard_id: int, window: Rect) -> Iterable[List[int]]:
        """One shard's window hits, one leaf's list at a time, read only as consumed."""
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
    call batches until detached; the coordinator's shard objects become
    mirrors, kept in step by :meth:`_sync_mirror` after every reply.

    A dead or hung worker fails the backend for good: see the module
    docstring's *Worker failure* section.
    """

    name = "process"

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
                    state = shard.checkpoint_document()  # flushes, like the above
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
        self, worker_id: int, how: str, bundle: Optional[Dict[int, List[NamedCall]]]
    ) -> NoReturn:
        """A worker is dead or hung: kill and reap them all, fail for good.

        *bundle* is what the worker was sent (``None`` = the attach handshake).
        """
        if bundle is None:
            in_flight = "attach"
        else:
            names = {name for calls in bundle.values() for name, _args in calls}
            in_flight = "+".join(sorted(names))
        self._failure = (
            f"shard worker {worker_id} {how} during {in_flight}; every worker "
            "of this backend was stopped and the tree state they held since "
            "attach is lost (reload from checkpoint/WAL)"
        )
        self._finalizer()  # runs _terminate_workers, once
        raise WorkerFailedError(self._failure)

    def _reply(
        self, worker_id: int, bundle: Optional[Dict[int, List[NamedCall]]]
    ) -> Dict[str, Any]:
        """The next message from *worker_id* — or the end of the backend."""
        conn = self._connections[worker_id]
        try:
            if conn.poll(DISPATCH_DEADLINE_S):
                return conn.recv()
        except (EOFError, OSError):
            self._fail(worker_id, "died", bundle)
        self._fail(worker_id, f"timed out ({DISPATCH_DEADLINE_S:g} s)", bundle)

    def dispatch(self, per_shard: Dict[int, Sequence[Call]]) -> Dict[int, List[Any]]:
        if self._failure is not None:
            raise WorkerFailedError(self._failure)
        per_worker: Dict[int, Dict[int, List[NamedCall]]] = {}
        for shard_id, calls in per_shard.items():
            per_worker.setdefault(self._owner[shard_id], {})[shard_id] = [
                (method.__name__, args) for method, args in calls
            ]
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
            # The workers are alive and in step; only these calls failed.
            raise WorkerFailedError("; ".join(errors))
        return payloads

    def _sync_mirror(
        self,
        shard_id: int,
        calls: Sequence[NamedCall],
        payloads: Sequence[Any],
        state: Dict[str, Any],
    ) -> None:
        """Bring the coordinator's mirror of one shard in step with a reply:
        what each executed call implies for positions, strategy name and
        knobs, then the state envelope.  Mirror trees are never touched."""
        shard = self.sharded.shards[shard_id]
        positions = shard._positions
        for (name, args), payload in zip(calls, payloads):
            if name == _STREAM:
                for request in args[0]:
                    positions[request.oid] = request.new_location
            elif name == _UPDATE or name == _INSERT:
                positions[args[0]] = args[1]
            elif name == _DELETE:
                positions.pop(args[0], None)
            elif name == _EXPORT:
                if payload is not None:
                    for oid in args[1]:
                        positions.pop(oid, None)
            elif name == _IMPORT:
                positions.update(args[1])
            elif name == _STRATEGY:
                shard.active_strategy = payload
            elif name == _BUFFER:
                shard.set_buffer_capacity(*args)  # knobs only: same on the mirror
        shard.stats.assign(state["stats"])
        mbr = state["root_mbr"]
        self._root_mbrs[shard_id] = None if mbr is None else Rect(*mbr)
        self._disk_pages[shard_id] = state["pages"]

    def run(self, shard_id: int, method: Callable[..., Any], *args: Any) -> Any:
        return self.dispatch({shard_id: [(method, args)]})[shard_id][0]

    def iter_range(self, shard_id: int, window: Rect) -> Iterable[List[int]]:
        # Laziness ends at the pipe: reaching into a shard fetches (and
        # charges) that shard's whole answer, which comes back as one list.
        return [self.run(shard_id, MovingObjectIndex.range_query, window)]

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


BACKENDS: Tuple[str, ...] = SPEC_KEYS["parallel"]["backend"].choices


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
    "BACKENDS",
    "ProcessBackend",
    "ShardBackend",
    "adopt_handover",
    "handover_state",
    "make_backend",
]
