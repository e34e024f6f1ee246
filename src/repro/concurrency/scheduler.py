"""Deterministic discrete-event scheduler for virtual clients.

This is the concurrency substrate shared by every operation path: single
operations, batch groups, migrations and multi-client streams are all
scheduled as :class:`VirtualOperation` values over *N* virtual clients
under a :class:`~repro.concurrency.locks.LockManager`.  Real OS threads in
CPython would be serialised by the interpreter lock and hide exactly the
effect being measured, so concurrency is modelled on a **logical clock**:

1. an idle client draws its next operation (from a shared stream or its own
   per-client stream), asks the operation for its granule lock set, and
   tries to acquire it all-or-nothing;
2. on success the operation **executes immediately and for real** against
   the index; the physical I/O the scheduler's ``io_counter`` advances by
   meanwhile determines how long the client is busy on the logical clock
   (``io × time_per_io + cpu_time_per_op``);
3. on conflict the client blocks; it retries — with a freshly recomputed
   lock scope, since the tree may have changed — every time some other
   client completes and releases locks;
4. the makespan is the logical time at which the last operation completes,
   and throughput is operations divided by makespan.

Interleavings are *live*: the order in which operations acquire locks is
the order in which they mutate the index, so contention shapes both the
schedule and the work itself.  Determinism is preserved because the event queue ordering is total
(ties broken by client id) and clients are dispatched in id order — the same
seed always yields the identical makespan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.api.schema import default, read
from repro.concurrency.dgl import GranuleLockRequest
from repro.concurrency.locks import LockManager


@dataclass(frozen=True, slots=True)
class VirtualOperation:
    """One schedulable unit of work: a label, a lock scope and the work.

    ``lock_scope`` is called on every dispatch attempt, so the prediction
    tracks the live index; ``work`` runs once the scope is granted, for
    real, and its result is ignored — the scheduler measures the physical
    I/O around it.  ``kind`` is the reporting label: the typed operation
    model's kinds (:attr:`repro.api.operations.Operation.kind`: "update",
    "insert", "delete", "query", "knn") plus the batch-level "group" and
    "migration" and the rebalancer's "rebalance".
    """

    kind: str
    lock_scope: Callable[[], List[GranuleLockRequest]]
    work: Callable[[], object]


@dataclass
class ClientReport:
    """Per-virtual-client accounting of one scheduled run."""

    operations: int = 0
    busy_time: float = 0.0
    physical_io: int = 0


@dataclass
class ScheduleResult:
    """Outcome of one scheduled run (single ops, a batch, or streams)."""

    operations: int
    makespan: float
    total_busy_time: float
    lock_waits: int
    num_clients: int
    time_per_io: float
    clients: Dict[int, ClientReport] = field(default_factory=dict)
    #: Executed operations grouped by their ``kind`` label ("update",
    #: "query", "group", "migration", ...) — how sharded runs report their
    #: cross-shard migration share without re-deriving it from the workload.
    kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per unit of logical time."""
        if self.makespan <= 0:
            return 0.0
        return self.operations / self.makespan

    @property
    def utilisation(self) -> float:
        """Average fraction of time clients spent executing (not waiting)."""
        if self.makespan <= 0 or self.num_clients == 0:
            return 0.0
        return self.total_busy_time / (self.makespan * self.num_clients)

    @property
    def total_physical_io(self) -> int:
        """Physical page transfers across every client."""
        return sum(report.physical_io for report in self.clients.values())


class OperationScheduler:
    """Schedules virtual operations over N clients under granule locking.

    Parameters
    ----------
    io_counter:
        Reads a monotone physical I/O count; an operation's I/O is how far
        its ``work`` advances it.  The online engine passes the facade's
        ``total_physical_io``.
    num_clients:
        Number of concurrent virtual clients (the paper uses 50).
    time_per_io:
        Logical seconds per physical page transfer.  The default (0.01 s)
        corresponds to a 10 ms random I/O, the classic magnetic-disk figure
        of the paper's era; only ratios matter for the reproduced trends.
    cpu_time_per_op:
        Fixed CPU service time added to every operation.

    The three are the ``engine`` keys of :data:`repro.api.schema.SPEC_KEYS`.
    """

    def __init__(
        self,
        io_counter: Callable[[], int],
        num_clients: int = default("engine", "num_clients"),
        time_per_io: float = default("engine", "time_per_io"),
        cpu_time_per_op: float = default("engine", "cpu_time_per_op"),
    ) -> None:
        read(
            "engine",
            {
                "num_clients": num_clients,
                "time_per_io": time_per_io,
                "cpu_time_per_op": cpu_time_per_op,
            },
        )
        self.num_clients = num_clients
        self.time_per_io = time_per_io
        self.cpu_time_per_op = cpu_time_per_op
        self.io_counter = io_counter

    # ------------------------------------------------------------------
    def run(self, operations: Iterable[VirtualOperation]) -> ScheduleResult:
        """Clients draw from one shared stream, in dispatch order."""
        shared: Iterator[VirtualOperation] = iter(operations)

        def draw(client: int) -> Optional[VirtualOperation]:
            return next(shared, None)

        return self._run(draw, self.num_clients)

    def run_streams(
        self, streams: Sequence[Iterable[VirtualOperation]]
    ) -> ScheduleResult:
        """Each client consumes its own stream (one stream per client)."""
        if not streams:
            raise ValueError("at least one client stream is required")
        iterators = [iter(stream) for stream in streams]

        def draw(client: int) -> Optional[VirtualOperation]:
            return next(iterators[client], None)

        return self._run(draw, len(iterators))

    # ------------------------------------------------------------------
    def _run(
        self,
        draw: Callable[[int], Optional[VirtualOperation]],
        num_clients: int,
    ) -> ScheduleResult:
        lock_manager = LockManager()
        clock = 0.0
        total_busy = 0.0
        lock_waits = 0
        executed = 0
        kinds: Dict[str, int] = {}
        clients = {client: ClientReport() for client in range(num_clients)}

        idle: List[int] = list(range(num_clients))
        blocked: Dict[int, VirtualOperation] = {}
        running: List[Tuple[float, int]] = []  # (finish_time, client)

        def try_start(client: int, operation: VirtualOperation, now: float) -> bool:
            nonlocal total_busy, executed
            if not lock_manager.try_acquire_all(operation.lock_scope(), owner=client):
                return False
            before = self.io_counter()
            operation.work()
            io_cost = self.io_counter() - before
            duration = max(io_cost, 0) * self.time_per_io + self.cpu_time_per_op
            heapq.heappush(running, (now + duration, client))
            report = clients[client]
            report.operations += 1
            report.busy_time += duration
            report.physical_io += max(io_cost, 0)
            total_busy += duration
            executed += 1
            kinds[operation.kind] = kinds.get(operation.kind, 0) + 1
            return True

        while True:
            made_progress = True
            while made_progress:
                made_progress = False
                # Retry blocked clients first (a release may have freed them);
                # their lock scopes are recomputed against the live index.
                for client in sorted(blocked):
                    if try_start(client, blocked[client], clock):
                        del blocked[client]
                        made_progress = True
                # Hand new operations to idle clients, in client-id order.
                while idle:
                    client = idle.pop(0)
                    operation = draw(client)
                    if operation is None:
                        continue  # stream drained; the client stays retired
                    if try_start(client, operation, clock):
                        made_progress = True
                    else:
                        lock_waits += 1
                        blocked[client] = operation

            if not running:
                if not blocked:
                    break  # every stream drained, everything finished
                # Nothing runs, so no locks are held and every blocked
                # operation must be startable; if the dispatch pass above
                # failed to start any of them the lock-scope derivation is
                # inconsistent — fail loudly rather than spin forever.
                raise RuntimeError(
                    "schedule stalled: blocked operations while no locks are held"
                )

            finish_time, client = heapq.heappop(running)
            clock = max(clock, finish_time)
            lock_manager.release_all(client)
            idle.append(client)

        return ScheduleResult(
            operations=executed,
            makespan=clock,
            total_busy_time=total_busy,
            lock_waits=lock_waits,
            num_clients=num_clients,
            time_per_io=self.time_per_io,
            clients=clients,
            kinds=kinds,
        )
