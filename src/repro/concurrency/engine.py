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
* **multi-client sessions** — :class:`ConcurrentSession`, returned by
  :meth:`repro.core.protocol.SpatialIndexFacade.engine`, queues per-client work;
  each operation's measured physical I/O lands in its client's
  :class:`~repro.concurrency.scheduler.ClientReport`.

Everything is deterministic: the scheduler's event order is total, lock
scopes are pure functions of the live tree, and no wall-clock time enters
the model — the same seed always produces the identical makespan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
)

import repro.api.operations as api_ops
from repro.api.errors import InvalidOperationError
from repro.api.schema import default
from repro.concurrency.scheduler import (
    OperationScheduler,
    ScheduleResult,
    VirtualOperation,
)

if TYPE_CHECKING:  # imported lazily to keep the package import-cycle free
    from repro.api.results import BatchReport
    from repro.shard.index import ShardedIndex
    from repro.workload.generator import WorkloadGenerator


def _live_work(index: "ShardedIndex", op: object) -> Callable[[], object]:
    """The facade call that executes the typed operation *op* live.

    An update decides when it runs whether the object is in the index: a
    stream may update an object a concurrent delete already removed, and
    online upsert semantics (re-)insert it.  A delete is non-strict for
    the same reason.  Anything that is not an operation raises
    :class:`~repro.api.errors.InvalidOperationError`.
    """
    if isinstance(op, api_ops.Update):
        oid, location = op.oid, op.new_location
        return lambda: (
            index.update(oid, location) if oid in index else index.insert(oid, location)
        )
    if isinstance(op, api_ops.Insert):
        return partial(index.insert, op.oid, op.location)
    if isinstance(op, api_ops.Delete):
        return partial(index.delete, op.oid, strict=False)
    if isinstance(op, api_ops.KNN):
        return partial(index.knn, op.point, op.k)
    if isinstance(op, api_ops.RangeQuery):
        return partial(index.range_query, op.window)
    raise InvalidOperationError(f"expected an Operation, got {op!r}")


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

    It drives the facade, :class:`~repro.shard.index.ShardedIndex`: lock
    scopes come from its ``lock_requests_for`` hook, batches from its
    ``prepare_concurrent_batch`` hook, and each operation's physical I/O
    from the change in its ``total_physical_io`` counter, which the
    scheduler reads around the operation's work.  Granules are
    namespaced per shard, so only operations touching the same shard can
    ever conflict.

    Lock scopes are predicted from the coordinator's shard trees, so the
    engine refuses an index on the process backend, when opened and when run.
    """

    def __init__(
        self,
        index: "ShardedIndex",
        num_clients: int = default("engine", "num_clients"),
        time_per_io: float = default("engine", "time_per_io"),
        cpu_time_per_op: float = default("engine", "cpu_time_per_op"),
    ) -> None:
        self.index = index
        self._check_in_process()
        self.scheduler = OperationScheduler(
            index.total_physical_io,
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

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def run(self, operations: Iterable["api_ops.Operation"]) -> ScheduleResult:
        """Execute a shared stream of typed operations over the engine's clients.

        The whole stream is checked before anything runs: an item that is
        not an :class:`~repro.api.operations.Operation` raises
        :class:`~repro.api.errors.InvalidOperationError`.
        """
        self._check_in_process()
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
        self._check_in_process()
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
        object exactly as the serial path does) and hands back its
        ``group``, ``update`` and ``migration`` operations.  Operations with
        disjoint granule sets execute concurrently, operations sharing a
        granule serialise — so the batch's makespan reflects its real
        conflict structure.
        """
        self._check_in_process()
        updates = list(updates)
        for update in updates:
            if not isinstance(update, api_ops.Update):
                raise InvalidOperationError(f"expected an Update, got {update!r}")
        prepared = self.index.prepare_concurrent_batch(updates)
        schedule = self.scheduler.run(iter(prepared.operations))
        prepared.finalize()
        return BatchScheduleResult(schedule=schedule, batch=prepared.result)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_in_process(self) -> None:
        if self.index.parallel_spec is not None:
            raise RuntimeError(
                "the engine drives in-process shards; detach the process backend first"
            )

    def _live_operations(
        self, operations: Iterable["api_ops.Operation"]
    ) -> List[VirtualOperation]:
        """Typed operations as scheduled work; the whole stream is checked first."""
        index = self.index
        live: List[VirtualOperation] = []
        for op in operations:
            work = _live_work(index, op)
            live.append(
                VirtualOperation(op.kind, partial(index.lock_requests_for, op), work)
            )
        return live

    def _with_maintenance(
        self, operations: Iterable[VirtualOperation]
    ) -> Iterator[VirtualOperation]:
        """Interleave the facade's maintenance work with a live stream.

        Before each client operation is handed to the scheduler the facade's
        :meth:`~repro.shard.index.ShardedIndex.maintenance_operations`
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
            queue.extend(self.index.maintenance_operations())
            if queue:
                yield queue.popleft()
            yield operation
        queue.extend(self.index.maintenance_operations())
        while queue:
            yield queue.popleft()


class ConcurrentSession:
    """Multi-client facade over the online engine.

    Obtained from :meth:`repro.core.protocol.SpatialIndexFacade.engine`::

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
    def index(self) -> "ShardedIndex":
        return self.engine.index

    @property
    def num_clients(self) -> int:
        return self.engine.scheduler.num_clients

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

    def run_mixed(
        self, generator: "WorkloadGenerator", num_operations: int, update_fraction: float
    ) -> ScheduleResult:
        """Execute a generator's mixed stream dealt over this session's clients."""
        streams = generator.client_streams(
            self.num_clients, num_operations, update_fraction
        )
        return self.engine.run_streams(streams)
