"""Online concurrent operation engine.

:class:`OnlineOperationEngine` is the execution layer the ROADMAP's
heavy-traffic north star asks for: virtual clients draw operations from a
live workload stream, each operation *predicts* its DGL granule lock scope
through the owning strategy's ``lock_scope()`` hook, acquires the locks
online through the :class:`~repro.concurrency.locks.LockManager`, executes
for real against the index under a deterministic logical clock, and blocks
and retries on conflict.  Throughput therefore emerges from actual
interleavings — a top-down update that locks every leaf its descent may
visit stalls its neighbours, a bottom-up update that locks one leaf granule
does not — instead of from replaying a fixed single-threaded trace.

The engine is shared by every operation path:

* **single operations / mixed streams** — :meth:`OnlineOperationEngine.run`
  (one shared stream) and :meth:`OnlineOperationEngine.run_streams` (one
  stream per client, see
  :meth:`~repro.workload.generator.WorkloadGenerator.client_streams`);
* **batches** — :meth:`OnlineOperationEngine.run_batch` partitions a batch
  into group-by-leaf buckets via the batch executor, derives each bucket's
  granule lock set from the strategy's ``group_lock_scope()`` hook (the
  merge of its members' scopes, escalations included), and schedules
  non-conflicting buckets as concurrent virtual operations (conflict-aware
  batch scheduling);
* **multi-client facades** — :class:`ConcurrentSession`, returned by
  :meth:`repro.core.index.MovingObjectIndex.engine`, queues per-client work;
  each operation's measured physical I/O lands in its client's
  :class:`~repro.concurrency.scheduler.ClientReport`.

Everything is deterministic: the scheduler's event order is total, lock
scopes are pure functions of the live tree, and no wall-clock time enters
the model — the same seed always produces the identical makespan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, Iterable, Iterator, List, Sequence

import repro.api.operations as api_ops
from repro.api.errors import InvalidOperationError
from repro.concurrency.dgl import DGLProtocol, namespace_pairs
from repro.concurrency.scheduler import (
    OperationScheduler,
    ScheduleResult,
    VirtualOperation,
)

if TYPE_CHECKING:  # imported lazily to keep the package import-cycle free
    from repro.api.results import BatchReport
    from repro.core.protocol import SpatialIndexFacade
    from repro.update.batch import BatchExecutor


class _LiveOperation(VirtualOperation):
    """A typed facade operation scheduled and executed online.

    Carries one :class:`repro.api.operations.Operation` and reports under
    its ``kind``.  Lock scopes are predicted by the facade itself
    (:meth:`~repro.core.protocol.SpatialIndexFacade.lock_requests_for`) and
    recomputed from the live index on every dispatch attempt; an update's
    *old* position is whatever the index holds at that moment, which is
    exactly the online semantics — a blocked update sees the positions its
    predecessors committed.
    """

    __slots__ = ("engine", "operation", "kind")

    def __init__(self, engine: "OnlineOperationEngine", operation: "api_ops.Operation"):
        if not isinstance(operation, api_ops.Operation):
            raise InvalidOperationError(f"expected an Operation, got {operation!r}")
        self.engine = engine
        self.operation = operation
        self.kind = operation.kind

    def lock_requests(self):
        return self.engine.index.lock_requests_for(self.operation)

    def execute(self, client: int) -> int:
        index = self.engine.index
        op = self.operation
        if isinstance(op, api_ops.Update):
            if op.oid in index:
                work = lambda: index.update(op.oid, op.new_location)
            else:
                # Online upsert semantics: a stream may update an object a
                # concurrent delete already removed; treat it as (re-)insert.
                work = lambda: index.insert(op.oid, op.new_location)
        elif isinstance(op, api_ops.Insert):
            work = lambda: index.insert(op.oid, op.location)
        elif isinstance(op, api_ops.Delete):
            # Non-strict: deleting an object a concurrent operation already
            # removed is a no-op for the stream, not an error.
            work = lambda: index.delete(op.oid, strict=False)
        elif isinstance(op, api_ops.KNN):
            work = lambda: index.knn(op.point, op.k)
        else:
            window = op.window  # type: ignore[union-attr]
            work = lambda: index.range_query(window)
        return self.engine.measure(work)


class GroupOperation(VirtualOperation):
    """One group-by-leaf batch bucket scheduled as a virtual operation.

    Facades construct these in ``prepare_concurrent_batch``: a single index
    hands every group to its one executor with no namespace; a sharded index
    hands each group to the owning shard's executor and namespaces the lock
    granules with the shard id, so group buckets of different shards never
    conflict.
    """

    __slots__ = ("engine", "executor", "leaf_page", "bucket", "result", "namespace")
    kind = "group"

    def __init__(
        self,
        engine,
        executor: "BatchExecutor",
        leaf_page: int,
        bucket,
        result,
        namespace=None,
    ):
        self.engine = engine
        self.executor = executor
        self.leaf_page = leaf_page
        self.bucket = bucket
        self.result = result
        self.namespace = namespace

    def lock_requests(self):
        pairs = DGLProtocol.as_pairs(
            self.executor.strategy.group_lock_scope(self.leaf_page, self.bucket)
        )
        return namespace_pairs(pairs, self.namespace)

    def execute(self, client: int) -> int:
        return self.engine.measure(
            lambda: self.executor.execute_group(
                self.leaf_page, self.bucket, self.result
            )
        )


class ReplayOperation(VirtualOperation):
    """A batch member with no indexed leaf, run as a per-operation update."""

    __slots__ = ("engine", "executor", "request", "result", "namespace")
    kind = "update"

    def __init__(self, engine, executor: "BatchExecutor", request, result, namespace=None):
        self.engine = engine
        self.executor = executor
        self.request = request
        self.result = result
        self.namespace = namespace

    def lock_requests(self):
        pairs = DGLProtocol.as_pairs(
            self.executor.strategy.lock_scope(
                self.request.oid,
                self.request.old_location,
                self.request.new_location,
            )
        )
        return namespace_pairs(pairs, self.namespace)

    def execute(self, client: int) -> int:
        return self.engine.measure(
            lambda: self.executor.replay(self.request, self.result)
        )


@dataclass
class PreparedBatch:
    """A batch turned into schedulable work by a facade.

    ``operations`` are handed to the scheduler as-is; ``finalize`` runs after
    the schedule drains and is where the facade computes the batch's I/O
    delta (a sharded facade merges the deltas of every shard's counters).
    """

    operations: List[VirtualOperation]
    result: "BatchReport"
    finalize: Callable[[], None] = field(default=lambda: None)


@dataclass
class BatchScheduleResult:
    """Conflict-aware batch execution: the schedule plus the batch outcome."""

    schedule: ScheduleResult
    batch: "BatchReport"

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def describe(self) -> str:
        return (
            f"{self.batch.describe()} | makespan={self.schedule.makespan:.3f} "
            f"clients={self.schedule.num_clients} "
            f"lock_waits={self.schedule.lock_waits}"
        )


class OnlineOperationEngine:
    """Schedules live index operations over N virtual clients under DGL.

    The engine is facade-generic: it drives anything implementing
    :class:`~repro.core.protocol.SpatialIndexFacade` — lock scopes come from
    the facade's ``lock_requests_for`` hook, batches from its
    ``prepare_concurrent_batch`` hook, and each operation's physical I/O
    from the change in its ``total_physical_io`` counter.  A sharded facade
    thereby gets true multi-shard parallelism for free: its granules are
    namespaced per shard, so only operations touching the same shard can
    ever conflict.
    """

    def __init__(
        self,
        index: "SpatialIndexFacade",
        num_clients: int = 50,
        time_per_io: float = 0.01,
        cpu_time_per_op: float = 0.001,
    ) -> None:
        self.index = index
        self.scheduler = OperationScheduler(
            num_clients=num_clients,
            time_per_io=time_per_io,
            cpu_time_per_op=cpu_time_per_op,
        )
        #: Facade maintenance work (e.g. rebalance migrations) pending
        #: dispatch, shared across every client stream of a run so bursts
        #: spread over all clients (see :meth:`_with_maintenance`).  The
        #: queue deliberately survives an aborted run: a rebalance plan
        #: whose boundaries are already installed must eventually complete,
        #: and maintenance operations re-verify every member against the
        #: live index at dispatch, so draining leftovers at the start of
        #: the next run is safe self-healing, not stale replay.
        self._maintenance: Deque[VirtualOperation] = deque()

    @property
    def num_clients(self) -> int:
        return self.scheduler.num_clients

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def run(self, operations: Iterable["api_ops.Operation"]) -> ScheduleResult:
        """Execute a shared stream of typed operations over the engine's clients.

        The whole stream is checked before anything runs: an item that is
        not an :class:`~repro.api.operations.Operation` raises
        :class:`~repro.api.errors.InvalidOperationError`.
        """
        return self.scheduler.run(
            self._with_maintenance(self._live_operations(operations))
        )

    def run_streams(
        self, streams: Sequence[Iterable["api_ops.Operation"]]
    ) -> ScheduleResult:
        """Execute one operation stream per virtual client.

        Each stream is interleaved with the facade's maintenance hook, so
        background work a facade generates while the run is live — e.g. the
        sharded rebalancer's migration batches — is scheduled alongside the
        client operations under the same granule locking instead of waiting
        for the session to drain.  Every stream is checked before anything
        runs, as in :meth:`run`.
        """
        return self.scheduler.run_streams(
            [
                self._with_maintenance(self._live_operations(stream))
                for stream in streams
            ]
        )

    def run_batch(self, updates: Iterable["api_ops.Update"]) -> BatchScheduleResult:
        """Conflict-aware scheduling of one typed update batch.

        Anything that is not an :class:`~repro.api.operations.Update` raises
        :class:`~repro.api.errors.InvalidOperationError` before the facade
        sees the batch, so a rejected batch commits no position.  The facade
        validates the updates (an unknown oid raises before anything
        executes), plans the batch (coalescing repeated updates of one
        object exactly as the serial path does) and hands back virtual
        operations: group-by-leaf buckets whose lock set is the strategy's
        ``group_lock_scope()``, per-operation updates for unindexed members,
        and — on a sharded facade — cross-shard migrations that lock both
        shards.  Operations with disjoint granule sets execute concurrently,
        operations sharing a granule serialise — so the batch's makespan
        reflects its real conflict structure, and is strictly below serial
        execution whenever at least two groups are disjoint.
        """
        updates = list(updates)
        for update in updates:
            if not isinstance(update, api_ops.Update):
                raise InvalidOperationError(f"expected an Update, got {update!r}")
        prepared = self.index.prepare_concurrent_batch(self, updates)
        schedule = self.scheduler.run(iter(prepared.operations))
        prepared.finalize()
        return BatchScheduleResult(schedule=schedule, batch=prepared.result)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def measure(self, work: Callable[[], object]) -> int:
        """Run *work* and return its physical I/O count.

        A virtual operation's ``execute(client)`` returns this count, which
        the scheduler adds to that client's
        :class:`~repro.concurrency.scheduler.ClientReport` — the one
        per-client I/O ledger.
        """
        index = self.index
        before = index.total_physical_io()
        work()
        return index.total_physical_io() - before

    def _live_operations(
        self, operations: Iterable["api_ops.Operation"]
    ) -> List[_LiveOperation]:
        return [_LiveOperation(self, operation) for operation in operations]

    def _with_maintenance(
        self, operations: Iterable[VirtualOperation]
    ) -> Iterator[VirtualOperation]:
        """Interleave the facade's maintenance work with a live stream.

        Before each client operation is handed to the scheduler the facade's
        :meth:`~repro.core.protocol.SpatialIndexFacade.maintenance_operations`
        hook is polled and its output lands on one maintenance queue
        **shared by every client stream**; each draw then dispatches at most
        one queued operation ahead of the client's own work.  A burst of
        maintenance (the sharded rebalancer emits one migration per
        displaced object) is thereby spread across all virtual clients and
        executed concurrently, instead of serialising on whichever client
        happened to trigger it.  Streams that drain keep pulling from the
        queue until it empties.  Each injected operation locks its own
        granules all-or-nothing, so maintenance serialises only with the
        client operations it truly conflicts with.
        """
        queue = self._maintenance
        for operation in operations:
            queue.extend(self.index.maintenance_operations(self))
            if queue:
                yield queue.popleft()
            yield operation
        queue.extend(self.index.maintenance_operations(self))
        while queue:
            yield queue.popleft()


class ConcurrentSession:
    """Multi-client facade over the online engine.

    Obtained from :meth:`repro.core.index.MovingObjectIndex.engine`::

        from repro.api import RangeQuery, Update

        session = index.engine(num_clients=50)
        session.submit(0, Update(42, Point(0.3, 0.4)))
        session.submit(1, RangeQuery(Rect(0.2, 0.2, 0.4, 0.5)))
        result = session.run()            # deterministic ScheduleResult
        print(result.throughput, result.clients[0].physical_io)

    Work queued with :meth:`submit` is per-client; :meth:`run` drains every
    queue under the scheduler.  :meth:`run_mixed` is the streaming shortcut
    the benchmarks use; a batch runs through ``session.engine.run_batch``.
    """

    def __init__(self, engine: OnlineOperationEngine) -> None:
        self.engine = engine
        self._queues: Dict[int, List["api_ops.Operation"]] = {}

    @property
    def index(self) -> "SpatialIndexFacade":
        return self.engine.index

    @property
    def num_clients(self) -> int:
        return self.engine.num_clients

    # ------------------------------------------------------------------
    def submit(
        self, client: int, *operations: "api_ops.Operation"
    ) -> "ConcurrentSession":
        """Queue typed operations on *client*'s stream.

        Anything that is not an :class:`~repro.api.operations.Operation`
        raises :class:`~repro.api.errors.InvalidOperationError` and queues
        nothing.
        """
        if not 0 <= client < self.num_clients:
            raise ValueError(
                f"client {client} out of range (0..{self.num_clients - 1})"
            )
        for operation in operations:
            if not isinstance(operation, api_ops.Operation):
                raise InvalidOperationError(
                    f"expected an Operation, got {operation!r}"
                )
        self._queues.setdefault(client, []).extend(operations)
        return self

    def pending(self) -> int:
        """Operations queued and not yet run."""
        return sum(len(queue) for queue in self._queues.values())

    def run(self) -> ScheduleResult:
        """Execute every queued per-client stream; queues are consumed."""
        streams = [
            self._queues.get(client, []) for client in range(self.num_clients)
        ]
        self._queues = {}
        return self.engine.run_streams(streams)

    def run_shared(self, operations: Iterable) -> ScheduleResult:
        """Execute a shared stream (clients draw operations in order)."""
        return self.engine.run(operations)

    def run_mixed(
        self, generator, num_operations: int, update_fraction: float
    ) -> ScheduleResult:
        """Execute a generator's mixed stream dealt over this session's clients."""
        streams = generator.client_streams(
            self.num_clients, num_operations, update_fraction
        )
        return self.engine.run_streams(streams)
