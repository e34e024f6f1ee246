"""The sharded moving-object index: the one facade.

:class:`ShardedIndex` is what ``open_index`` returns.  A spatial
:class:`~repro.shard.partitioner.Partitioner` routes every operation to one
of N independent :class:`~repro.core.index.MovingObjectIndex` shards, each
with its own disk, buffer pool, R-tree, hash index, summary structure and
I/O counters.  A single index is the one-shard case (spec
``{"kind": "single"}``): with one in-process shard and no controller
attached, operations go straight to the shard without routing.

Routing and migration
---------------------
Each shard's position table is the one record of which objects it owns:
the coordinator keeps no directory of its own, and finds an object's shard
by asking the shards (:meth:`ShardedIndex.shard_for`); the per-shard hash
indexes lead on to the object's leaf page.  An update whose new position
stays inside the owning shard's region is executed by that shard's strategy
exactly as before — the common case, by the paper's locality argument.  An
update that crosses a partition boundary becomes a **migration**: delete
from the old shard, insert into the new one
(:attr:`~repro.update.base.UpdateOutcome.MIGRATED`).

Queries
-------
``range_query`` fans out to only the shards whose boundary rectangles
intersect the window; ``knn`` runs best-first over shard boundaries with a
pruning radius — shards whose boundary lies farther than the current k-th
candidate distance are never visited.  Both return exactly what one shard
over the same objects returns (the equivalence test suite asserts this for
2 and 8 shards, including boundary-crossing migrations).

Concurrency
-----------
Under the online engine, every lock granule a shard operation names is
namespaced with the shard id (:func:`~repro.concurrency.dgl.namespace_pairs`),
so operations on different shards never conflict and a migration locks its
delete scope in the source shard *and* its insert scope in the target shard
atomically.  Batches partition into group-by-leaf buckets **per shard**;
buckets of different shards schedule concurrently, which is what the
``shard_scaling`` figure measures.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from itertools import chain
from math import isfinite
from pathlib import Path
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import repro.api.operations as api_ops
from repro.api.errors import (
    DuplicateObjectError,
    InvalidOperationError,
    NonFiniteCoordinateError,
    UnknownObjectError,
)
from repro.api.results import BatchReport, QueryCursor
from repro.concurrency.dgl import GranuleLockRequest, namespace_pairs
from repro.concurrency.engine import PreparedBatch
from repro.concurrency.scheduler import VirtualOperation
from repro.core.config import IndexConfig
from repro.core.index import MovingObjectIndex
from repro.core.protocol import SpatialIndexFacade
from repro.cost.model import TreeShape
from repro.durability.commit import DurabilityManager
from repro.durability.wal import (
    LogRecord,
    delete_record,
    insert_record,
    migrate_in_record,
    migrate_out_record,
    set_strategy_record,
    update_record,
)
from repro.geometry import Point, Rect
from repro.shard import parallel as shard_parallel
from repro.shard.adaptive import AdaptiveStrategyController
from repro.shard.control import MaintenanceController, ShardLoadMonitor
from repro.shard.partitioner import GridPartitioner, Partitioner
from repro.shard.rebalance import (
    RebalancePlan,
    RebalanceReport,
    ShardRebalancer,
)
from repro.storage import IOStatistics
from repro.update import UpdateOutcome
from repro.update.base import BatchUpdate
from repro.update.batch import (
    BatchExecutor,
    BatchOperation,
    DeleteOp,
    coalesce_updates,
    parse_operation_stream,
)


def _group_scope(
    executor: BatchExecutor, leaf_page: int, bucket: List[BatchUpdate], namespace: int
) -> List[GranuleLockRequest]:
    """A batch bucket's granules: its strategy's ``group_lock_scope``, namespaced."""
    return namespace_pairs(
        executor.strategy.group_lock_scope(leaf_page, bucket), namespace
    )


def _shard_scope(
    shard: MovingObjectIndex, op: api_ops.Operation
) -> List[GranuleLockRequest]:
    """One shard's DGL granule lock set for *op*, from its strategy's hooks.

    A top-down update locks every leaf its descents may visit, the
    bottom-up strategies lock the object's leaf plus shift candidates and
    ancestor intents; an ``Update`` of an object the shard does not hold
    predicts the insert the engine runs instead.  Recomputed on every
    dispatch attempt against the live tree.
    """
    strategy = shard.strategy
    if isinstance(op, api_ops.Update):
        old_location = shard.position_of(op.oid)
        if old_location is None:
            requests = strategy.insert_lock_scope(op.new_location)
        else:
            requests = strategy.lock_scope(op.oid, old_location, op.new_location)
    elif isinstance(op, api_ops.RangeQuery):
        requests = strategy.query_lock_scope(op.window)
    elif isinstance(op, api_ops.Insert):
        requests = strategy.insert_lock_scope(op.location)
    elif isinstance(op, api_ops.Delete):
        location = shard.position_of(op.oid)
        if location is None:
            return []  # nothing to delete, nothing to lock
        requests = strategy.delete_lock_scope(op.oid, location)
    else:
        # A kNN's reach depends on the data, so the prediction is
        # conservative: the scope of a window query over the whole covered
        # space (every leaf a best-first descent might read).
        root_mbr = shard.tree.root_mbr()
        window = root_mbr if root_mbr is not None else Rect.from_point(op.point)
        requests = strategy.query_lock_scope(window)
    return requests


class ShardedIndex(SpatialIndexFacade):
    """N independent moving-object indexes behind one spatial router.

    Parameters
    ----------
    config:
        The :class:`IndexConfig` every shard is built with (shards are
        homogeneous; the buffer percentage applies to each shard's own
        database, so the aggregate buffer tracks the aggregate data).
    partitioner:
        Spatial partitioner; defaults to a near-square uniform grid of
        *num_shards* cells.
    num_shards:
        Convenience when no explicit partitioner is given (default 4).
    shards:
        Pre-built shard indexes to adopt instead of constructing fresh ones
        (checkpoint restore); must match the partitioner's shard count.
    """

    def __init__(
        self,
        config: Optional[IndexConfig] = None,
        partitioner: Optional[Partitioner] = None,
        num_shards: Optional[int] = None,
        shards: Optional[List[MovingObjectIndex]] = None,
    ) -> None:
        if partitioner is None:
            partitioner = GridPartitioner.for_shards(
                4 if num_shards is None else num_shards
            )
        elif num_shards is not None and num_shards != partitioner.num_shards:
            raise ValueError(
                f"num_shards={num_shards} conflicts with the partitioner's "
                f"{partitioner.num_shards} shards"
            )
        if shards is not None and len(shards) != partitioner.num_shards:
            raise ValueError(
                f"partitioner expects {partitioner.num_shards} shards, "
                f"got {len(shards)}"
            )
        self.config = config if config is not None else IndexConfig()
        self.partitioner = partitioner
        self.shards: List[MovingObjectIndex] = (
            shards
            if shards is not None
            else [MovingObjectIndex(self.config) for _ in range(partitioner.num_shards)]
        )
        #: Cross-shard migrations executed since the last statistics reset.
        self.migrations = 0
        #: Attached maintenance controllers by spec section (``rebalance``,
        #: ``adaptive``; see :meth:`attach`): the batch and engine paths
        #: auto-trigger them.
        self.controllers: Dict[str, MaintenanceController] = {}
        #: The per-shard monitor every routed operation is recorded into;
        #: exists only while a controller is attached.
        self.monitor: Optional[ShardLoadMonitor] = None
        #: The shard executor every shard-local step goes through: the
        #: in-process :class:`~repro.shard.parallel.ShardBackend` by default,
        #: the process executor after :meth:`set_parallel`.
        self._backend: shard_parallel.ShardBackend = shard_parallel.ShardBackend(self)
        #: Attached :class:`~repro.durability.commit.DurabilityManager`, or
        #: ``None`` without a write-ahead log.  When set, every mutation is
        #: logged once it has been applied (apply first, log on success),
        #: and checkpoints rotate the logs (see :mod:`repro.durability`).
        self.durability: Optional[DurabilityManager] = None
        self._retarget()

    def _retarget(self) -> None:
        """Recompute :attr:`_solo` after the backend, shards or monitor changed.

        ``_solo`` is the one in-process shard when there is nothing to route
        or record (one shard, serial executor, no controller attached), and
        ``None`` otherwise; the per-operation methods then call it directly.
        """
        direct = self.num_shards == 1 and self.parallel_spec is None
        self._solo: Optional[MovingObjectIndex] = (
            self.shards[0] if direct and self.monitor is None else None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    def shard_for(self, oid: int) -> Optional[int]:
        """The shard whose position table holds *oid* (``None`` if absent)."""
        for shard_id, shard in enumerate(self.shards):
            if oid in shard._positions:
                return shard_id
        return None

    def shard_populations(self) -> List[int]:
        """Number of objects per shard."""
        return [len(shard) for shard in self.shards]

    def population_imbalance(self) -> float:
        """Max/mean of the shard populations (1.0 = balanced, also when empty)."""
        populations = self.shard_populations()
        total = sum(populations)
        if total == 0:
            return 1.0
        return max(populations) * self.num_shards / total

    def object_directory(self) -> List[int]:
        """The object ids currently indexed, shard by shard."""
        return [oid for shard in self.shards for oid in shard._positions]

    # ------------------------------------------------------------------
    # Parallel execution (repro.shard.parallel)
    # ------------------------------------------------------------------
    @property
    def parallel_spec(self) -> Optional[Dict[str, object]]:
        """The attached executor's ``parallel`` spec section, ``None`` when serial."""
        backend = self._backend
        if backend.name == "serial":
            return None
        return {"backend": backend.name, "workers": backend.workers}

    def set_parallel(
        self,
        backend: str = "process",
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        """Attach a shard executor: ``"serial"`` or ``"process"``.

        ``"serial"`` is the in-process executor (the default).
        ``"process"`` starts ``workers`` long-lived worker processes
        (default: one per shard) that take over the shard state — forked
        workers adopt the live shards, any other *start_method* restores
        their checkpoint documents — and the local shard objects become
        metadata mirrors.  Both run the same shard methods, so answers,
        tie-breaks, update outcomes and I/O counters are identical.
        """
        self.detach_parallel()
        self._backend = shard_parallel.make_backend(
            self, backend, workers=workers, start_method=start_method
        )
        self._retarget()

    def detach_parallel(self) -> None:
        """Return to the in-process executor (syncing worker state back).

        After a process backend detaches, the local shards hold the
        authoritative tree/page state pulled from the workers, the exact
        I/O and outcome counters the mirrors tracked, and their previous
        buffer capacities — but the buffer *contents* come back cold (page
        images travel in the checkpoint document, cached frames do not).

        A process backend that lost a worker cannot sync anything back: the
        call raises :class:`~repro.api.errors.WorkerFailedError` (the worker
        processes are already reaped) and the failed backend stays attached,
        so the stale local mirrors are never served as if they were current.
        """
        backend = self._backend
        documents = None
        if self.parallel_spec is not None:
            # Detaching is maintenance, not workload: the worker-side buffer
            # flush the checkpoint performs must not leak into the counters,
            # so the pre-checkpoint mirror values are what detach restores.
            handovers = [shard_parallel.handover_state(shard) for shard in self.shards]
            documents = self.shard_documents()
        backend.close()
        self._backend = shard_parallel.ShardBackend(self)
        if documents is not None:
            from repro.core.persistence import _restore_index

            for shard_id, document in enumerate(documents):
                # _restore_index resets counters and re-sizes the buffer
                # against the lone shard; the mirror tracked the exact
                # counters and the aggregate buffer split — carry both over.
                restored = _restore_index(document)
                shard_parallel.adopt_handover(restored, handovers[shard_id])
                self.shards[shard_id] = restored
        self._retarget()

    def _broadcast(self, method: Callable[..., Any], *args: Any) -> List[Any]:
        """``method(shard, *args)`` on every shard; the results in shard order."""
        payloads = self._backend.dispatch(
            {shard_id: [(method, args)] for shard_id in range(self.num_shards)}
        )
        return [payloads[shard_id][0] for shard_id in range(self.num_shards)]

    def leaf_pages_of(
        self, shard_id: int, oids: List[int]
    ) -> List[Optional[int]]:
        """Uncharged leaf-page lookups for *oids* in one shard (batched).

        The rebalance planner resolves every planned move's current leaf
        through this method — one round trip per shard under the process
        backend instead of one per object.
        """
        return self._backend.run(shard_id, MovingObjectIndex.leaf_pages_of, oids)

    def shard_documents(self) -> List[Dict]:
        """Checkpoint document bodies of every shard (worker-side when parallel)."""
        return self._broadcast(MovingObjectIndex.checkpoint_document)

    def tree_shape(self, shard_id: int) -> TreeShape:
        """Uncharged shape of one shard's tree, measured where the tree lives
        (the adaptive controller ranks strategies against it)."""
        return self._backend.run(shard_id, MovingObjectIndex.tree_shape)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def attach_durability(self, manager: "DurabilityManager") -> None:
        """Start write-ahead logging every mutation through *manager*.

        The manager must describe the state the index currently holds (a
        fresh empty index, or one just restored + replayed from the
        manager's own directory) — attaching does not checkpoint; call
        :meth:`checkpoint` (or ``load``, which checkpoints when durability
        is attached) to establish the recovery baseline.
        """
        if self.durability is not None:
            self.durability.close()
        self.durability = manager

    def detach_durability(self) -> None:
        """Stop logging; flushes and closes the logs (no-op when detached).

        The end-to-end harness calls it to close a run's logs before the
        crash-recovery check; nothing in the engine does.
        """
        if self.durability is not None:
            self.durability.close()
            self.durability = None

    def checkpoint(self, path: Optional[Any] = None) -> Path:
        """Write a checkpoint and — when it lands in the durability
        directory — rotate the write-ahead logs.

        With *path* omitted the checkpoint goes to the attached durability
        manager's ``checkpoint.json`` (requires durability).  An explicit
        *path* elsewhere is a plain export: the logs are left untouched, so
        the durability directory keeps its own recovery timeline.
        """
        from repro.core.persistence import save_index  # local: import cycle

        if path is None:
            if self.durability is None:
                raise ValueError(
                    "checkpoint() without a path requires an attached "
                    "durability manager; pass an explicit path instead"
                )
            path = self.durability.checkpoint_path
        save_index(self, path)
        return Path(path)

    # ------------------------------------------------------------------
    # Maintenance controllers (repro.shard.control)
    # ------------------------------------------------------------------
    @property
    def rebalancer(self) -> Optional[ShardRebalancer]:
        """The attached online rebalancer, if any."""
        return self.controllers.get("rebalance")

    @property
    def adaptive(self) -> Optional[AdaptiveStrategyController]:
        """The attached adaptive strategy controller, if any."""
        return self.controllers.get("adaptive")

    def attach(self, controller: MaintenanceController) -> None:
        """Install *controller* in its spec section, replacing any there.

        Every attached controller reads the one per-shard :attr:`monitor`,
        created with the first controller; the new controller's windows
        open at the monitor's current counts.
        """
        if self.monitor is None:
            self.monitor = ShardLoadMonitor(self.num_shards)
        self.controllers[controller.section] = controller
        controller.monitor = self.monitor
        controller.restart(self.shards)
        self._retarget()

    def detach(self, section: str) -> None:
        """Remove the controller of *section*; the last one takes the monitor."""
        self.controllers.pop(section, None)
        if not self.controllers:
            self.monitor = None
            self._retarget()

    def _record_update(self, shard_id: int, count: int = 1) -> None:
        if self.monitor is not None:
            self.monitor.record_update(shard_id, count)

    def _record_query(self, shard_id: int, count: int = 1) -> None:
        if self.monitor is not None:
            self.monitor.record_query(shard_id, count)

    def _record_moves(
        self, shard_id: int, moves: Iterable[Tuple[Optional[Point], Point]]
    ) -> None:
        """Record in-shard ``(old, new)`` moves; unknown origins are skipped."""
        monitor = self.monitor
        if monitor is not None:
            for old, new in moves:
                if old is not None:
                    monitor.record_move(shard_id, old.distance_to(new))

    def reroute(self, oid: int) -> bool:
        """Move *oid* to the shard its *current* position routes to.

        The per-object fallback of :meth:`migrate_leaf_group` for members
        that drifted off their planned leaf: re-reading the live position
        makes the operation safe against races with concurrent updates — an
        object that has already moved on (or away) since the plan was drawn
        is re-routed to where it now belongs, or not at all.  Returns
        ``True`` when a migration actually happened.
        """
        source = self.shard_for(oid)
        if source is None:
            return False
        position = self.shards[source].position_of(oid)
        if self.partitioner.shard_of(position) == source:
            return False
        self._unrecorded_migration(
            lambda: self._execute_migration(source, BatchUpdate(oid, position, position))
        )
        return True

    def _unrecorded_migration(self, work):
        """Run maintenance *work* without it reading as shard load.

        Both halves of the load signal are shielded: the operation counters
        (the monitor is unplugged while the work runs, so the ``_record_*``
        hooks see none) and the physical I/O (the monitor's sampling marks
        advance past whatever the work transferred).  A nested call (the
        per-object fallback inside a group) finds the monitor unplugged and
        measures nothing, so its I/O is not excluded twice.
        """
        monitor = self.monitor
        if monitor is None:
            return work()
        self.monitor = None
        before = [shard.total_physical_io() for shard in self.shards]
        try:
            return work()
        finally:
            self.monitor = monitor
            for shard_id, shard in enumerate(self.shards):
                delta = shard.total_physical_io() - before[shard_id]
                if delta > 0:
                    monitor.exclude_io(shard_id, delta)

    def migrate_leaf_group(
        self, source_id: int, leaf_page: int, oids: List[int]
    ) -> int:
        """Bulk re-route a planned source-leaf bucket; returns objects moved.

        The rebalancer's per-leaf move, paid per *leaf*, not per object:
        every member still owned by the source shard, still on the planned
        leaf and still routed elsewhere is migrated with **one** source-side
        removal pass (one CondenseTree for the whole bucket,
        :meth:`~repro.rtree.tree.RTree.remove_group`) and one bulk insert
        per destination shard
        (:meth:`~repro.rtree.tree.RTree.insert_group`) — instead of a full
        delete + insert per object.  Members that drifted since planning
        (concurrent update moved them, or their leaf dissolved) fall back to
        the per-object :meth:`reroute`, so the group races safely with live
        client traffic.

        None of the group's work — neither its operation counts nor its
        physical I/O — is recorded into the monitor: the rebalancer's
        own traffic in the evidence window would re-satisfy the
        ``cooldown`` gate whenever a re-cut displaces more objects than the
        cooldown, storming into back-to-back rebalances.
        """
        return self._unrecorded_migration(
            lambda: self._migrate_leaf_group_unrecorded(source_id, leaf_page, oids)
        )

    def _migrate_leaf_group_unrecorded(
        self, source_id: int, leaf_page: int, oids: List[int]
    ) -> int:
        """The handoff as shard calls: ``leaf_pages_of`` confirms the members,
        ``export_group`` removes them from the source shard (mutating nothing
        if the leaf dissolved), ``import_group`` bulk-inserts per destination."""
        source = self.shards[source_id]
        candidates: List[Tuple[int, int, Point]] = []
        for oid in oids:
            position = source.position_of(oid)
            if position is None:
                continue  # a concurrent update already migrated it
            target = self.partitioner.shard_of(position)
            if target == source_id:
                continue  # moved back inside the source region meanwhile
            candidates.append((oid, target, position))
        if not candidates:
            return 0
        leaf_pages = self.leaf_pages_of(source_id, [oid for oid, _t, _p in candidates])
        confirmed: List[Tuple[int, int, Point]] = []
        drifted: List[int] = []
        for (oid, target, position), page in zip(candidates, leaf_pages):
            if page != leaf_page:
                # Drifted to another leaf.  Deferred to the per-object path
                # AFTER the bulk pass: a reroute restructures the source
                # tree (underflow re-inserts, splits) and could move a
                # confirmed member off the planned leaf mid-group.
                drifted.append(oid)
            else:
                confirmed.append((oid, target, position))
        if not confirmed:
            return sum(1 for oid in drifted if self.reroute(oid))
        exported = self._backend.run(
            source_id,
            MovingObjectIndex.export_group,
            leaf_page,
            tuple(oid for oid, _t, _p in confirmed),
            confirmed[0][2],
        )
        if exported is None:
            # The leaf dissolved, or a member left it after confirmation —
            # nothing was mutated; fall back to the per-object path.
            moved_count = sum(1 for oid, _t, _p in confirmed if self.reroute(oid))
            return moved_count + sum(1 for oid in drifted if self.reroute(oid))
        rect_of: Dict[int, Rect] = dict(exported)
        per_target: Dict[int, List[int]] = {}
        positions: Dict[int, Point] = {}
        for oid, target, position in confirmed:
            positions[oid] = position
            per_target.setdefault(target, []).append(oid)
        self._backend.dispatch(
            {
                target: [
                    (
                        MovingObjectIndex.import_group,
                        (
                            tuple((oid, rect_of[oid]) for oid in group),
                            tuple((oid, positions[oid]) for oid in group),
                        ),
                    )
                ]
                for target, group in per_target.items()
            }
        )
        self._log_group_migration(source_id, per_target, positions)
        self.migrations += len(confirmed)
        return len(confirmed) + sum(1 for oid in drifted if self.reroute(oid))

    def _log_group_migration(
        self,
        source_id: int,
        per_target: Dict[int, List[int]],
        positions: Dict[int, Point],
    ) -> None:
        """Log a confirmed leaf-group handoff as one commit unit.

        Arrivals before the departures (same rationale as
        :meth:`_execute_migration`), one frame per destination log plus one
        on the source log, all under one LSN — so recovery can pair each
        departure with its arrival and skip any departure whose arrival was
        lost in a torn tail.  Logged only after the handoff has fully
        applied (apply first, log on success) — the fallback per-object
        reroutes log through :meth:`_execute_migration` instead, and
        replay's idempotence keeps any overlap harmless.
        """
        if self.durability is None or not per_target:
            return
        frames: Dict[int, List[LogRecord]] = {
            target: [migrate_in_record(oid, positions[oid]) for oid in group]
            for target, group in per_target.items()
        }
        frames[source_id] = [
            migrate_out_record(oid)
            for group in per_target.values()
            for oid in group
        ]
        self.durability.log_unit(frames, barrier=True)

    def rebalance(self, force: bool = False) -> RebalanceReport:
        """Adjust the partition boundaries to the observed load and migrate.

        Plans new boundaries from the rebalancer's load window (each object
        weighted by its owning shard's load share, so the new cut equalises
        *load*), installs the new partitioner, and runs the plan directly,
        the same way under every executor: :meth:`migrate_leaf_group` for
        each leaf bucket (every planned move has an indexed leaf:
        :meth:`validate` holds each position table equal to its hash
        index).  A live engine session instead schedules the same moves
        through its maintenance queue (:meth:`maintenance_operations`),
        where each locks its source-shard delete scope and destination-shard
        insert scope all-or-nothing and interleaves with the client
        operations.

        With ``force=True`` the policy trigger is bypassed and — when no
        load has been recorded (or no rebalancer is attached) — the plan
        falls back to equalising shard populations.
        """
        imbalance_before = self.population_imbalance()
        rebalancer = self.rebalancer
        if rebalancer is None and force:
            # One-shot controller on a private monitor: its window holds no
            # load evidence, so the plan equalises populations.
            rebalancer = ShardRebalancer(self.num_shards)
            rebalancer.restart(self.shards)
        plan = (
            None if rebalancer is None
            else self._triggered_plan(rebalancer, force=force)
        )
        if plan is None:
            return RebalanceReport(
                triggered=False,
                imbalance_before=imbalance_before,
                imbalance_after=imbalance_before,
            )
        for shard_id, leaf_page, members in plan.buckets:
            self.migrate_leaf_group(shard_id, leaf_page, members)
        return RebalanceReport(
            triggered=True,
            imbalance_before=imbalance_before,
            imbalance_after=self.population_imbalance(),
            moves=len(plan.moves),
        )

    def _triggered_plan(
        self, rebalancer: ShardRebalancer, force: bool = False
    ) -> Optional[RebalancePlan]:
        """One step of the feedback loop: trigger, plan, install, commit.

        The shared control flow of :meth:`rebalance` and
        :meth:`maintenance_operations`: consult the policy (unless *force*),
        plan a boundary adjustment, install the new partitioner and commit
        the evidence window.  A trigger whose plan moves nothing resets the
        window instead, so the O(N) planning scan is not repeated on every
        poll while the (unactionable) trigger condition persists.
        """
        if not force and not rebalancer.should_rebalance(self):
            return None
        plan = rebalancer.plan(self, force=force)
        if plan is None:
            if not force:
                rebalancer.restart(self.shards)
            return None
        self.partitioner = plan.partitioner
        self._log_repartition()
        rebalancer.committed(self)
        return plan

    def _log_repartition(self) -> None:
        """Log the just-installed partitioner to the coordinator meta log.

        Recovery applies the *last* such record, so routing after replay
        matches the boundaries the replayed migrations were routed with.
        """
        if self.durability is not None:
            self.durability.log_repartition(self.partitioner.to_spec())

    def _auto_maintain(self) -> None:
        """The serial batch epilogue: rebalance, then adapt, each gated."""
        if self.rebalancer is not None:
            self.rebalance()
        self.auto_adapt()

    # ------------------------------------------------------------------
    # Update strategies (hot swap + adaptive selection)
    # ------------------------------------------------------------------
    def active_strategies(self) -> List[str]:
        """The live update strategy of every shard (may be heterogeneous)."""
        return [shard.active_strategy for shard in self.shards]

    def set_strategy(self, name: str, shard_id: Optional[int] = None) -> str:
        """Hot-swap the update strategy of one shard (or, default, all).

        The swap happens where the authoritative tree lives, through
        ``MovingObjectIndex.set_strategy`` on the shard (under the process
        backend the coordinator mirror tracks only the active-strategy name;
        mirror trees stay untouched — they are replaced wholesale on
        detach).  With a durability manager attached, an actual change is
        logged to that shard's WAL as its own fsynced commit unit, so
        recovery replays the log tail into the strategy that was live.
        """
        key = name.upper()
        if shard_id is None:
            for sid in range(self.num_shards):
                self.set_strategy(key, sid)
            return key
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(
                f"shard_id {shard_id} out of range for {self.num_shards} shards"
            )
        previous = self.shards[shard_id].active_strategy
        key = self._backend.run(shard_id, MovingObjectIndex.set_strategy, key)
        if key != previous and self.durability is not None:
            self.durability.log_unit(
                {shard_id: (set_strategy_record(key),)}, barrier=True
            )
        return key

    def auto_adapt(self) -> int:
        """Policy-gated adaptive strategy switching; returns switches made.

        Called by the same hooks as the gated :meth:`rebalance`, under every
        executor: the controller measures each shard's tree through
        :meth:`tree_shape`.
        """
        adaptive = self.adaptive
        if adaptive is None:
            return 0
        decisions = adaptive.decide(self)
        for decision in decisions:
            # The swap itself (an LBU entry sweeps leaf parent pointers) is
            # maintenance, not client load — shield the monitor the same
            # way rebalance migrations are shielded.
            self._unrecorded_migration(
                lambda d=decision: self.set_strategy(d.strategy, d.shard_id)
            )
            adaptive.committed(decision.shard_id)
        return len(decisions)

    def maintenance_operations(self) -> List[VirtualOperation]:
        """Engine SPI: inject rebalance migrations into a live schedule.

        Called by the online engine between operation draws.  When the
        rebalancer's policy triggers (:meth:`_triggered_plan`), the new
        boundaries are installed immediately (queries stay correct
        mid-rebalance: shard selection also consults content MBRs) and the
        plan's migration operations — one per leaf bucket — are handed to
        the scheduler, where they interleave with the live client
        operations under ordinary all-or-nothing granule locking.
        """
        # Strategy switches are coordinator-local and instantaneous in
        # virtual time — executed inline at the same maintenance point the
        # rebalancer uses (between operation draws; lock scopes are
        # recomputed from the live strategies on every dispatch attempt).
        self.auto_adapt()
        rebalancer = self.rebalancer
        if rebalancer is None:
            return []
        plan = self._triggered_plan(rebalancer)
        if plan is None:
            return []
        return self._migration_batch(plan)

    def _migration_batch(self, plan: RebalancePlan) -> List[VirtualOperation]:
        """A plan's moves as ``rebalance`` operations, one per leaf bucket."""
        return [
            VirtualOperation(
                "rebalance",
                partial(self._reroute_scope, members),
                partial(self.migrate_leaf_group, shard_id, leaf_page, members),
            )
            for shard_id, leaf_page, members in plan.buckets
        ]

    def _reroute_scope(self, oids: List[int]) -> List[GranuleLockRequest]:
        """The granules re-routing *oids* from their live positions locks.

        Each object's scope is the update scope of a zero-distance move:
        for an object whose owning shard disagrees with the partitioner
        that is the cross-shard migration scope (delete granules in the
        source shard plus insert granules in the destination, both
        namespaced).  An object already deleted names nothing; pairs two
        members share are named once.
        """
        positions = [(oid, self.position_of(oid)) for oid in oids]
        return list(
            dict.fromkeys(
                pair
                for oid, position in positions
                if position is not None
                for pair in self.lock_requests_for(api_ops.Update(oid, position))
            )
        )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, objects: Iterable[Tuple[int, Point]], bulk: bool = True) -> None:
        """Partition the initial objects spatially and load every shard.

        Loading is bulk construction, not routed operation traffic: it
        detaches first (syncing any worker-owned state), loads locally, and
        re-attaches the same backend over the fresh contents.
        """
        parallel_spec = self.parallel_spec
        # The spec section names backend and workers only; the start method
        # the attached backend resolved rides along in memory.
        start_method = self._backend.start_method
        self.detach_parallel()
        if self.num_shards == 1:
            # One cell: routing every object would only cost set-up time.
            self.shards[0].load(objects, bulk=bulk)
        else:
            groups: List[List[Tuple[int, Point]]] = [[] for _ in self.shards]
            for oid, location in objects:
                groups[self.partitioner.shard_of(location)].append((oid, location))
            for shard, group in zip(self.shards, groups):
                shard.load(group, bulk=bulk)
        # Re-split the aggregate buffer: per-shard loading sized each pool
        # against its own database; the facade contract sizes against the
        # aggregate and apportions by shard weight.
        self.configure_buffer()
        self.migrations = 0
        if parallel_spec is not None:
            self.set_parallel(**parallel_spec, start_method=start_method)
        if self.durability is not None:
            # Bulk construction has no cheap log representation; checkpoint
            # (rotating the logs) so the loaded state is the recovery base.
            self.checkpoint()

    def configure_buffer(self, percent: Optional[float] = None) -> None:
        """Size the aggregate buffer and split its capacity across the shards.

        The capacity is computed against the *aggregate* database size — the
        same contract as the single index, where ``percent`` is a fraction
        of everything stored — and divided across the shard pools in
        proportion to each shard's disk size (largest-remainder rounding, so
        the shares sum exactly to the aggregate capacity).  A skewed load
        therefore gives hot shards proportionally more buffer instead of
        every shard getting the buffer of an average one.
        """
        from repro.storage import BufferPool  # local: keep module imports light

        percent = self.config.buffer_percent if percent is None else percent
        disk_sizes = self._backend.disk_sizes()
        total_capacity = BufferPool.capacity_for_percentage(percent, sum(disk_sizes))
        self._split_buffer_capacity(total_capacity, disk_sizes)

    def _split_buffer_capacity(
        self, total_capacity: int, disk_sizes: List[int]
    ) -> None:
        """Distribute *total_capacity* frames proportionally to shard disk sizes.

        Largest-remainder rounding, with a **minimum-frame rule**: whenever
        ``total_capacity > 0``, every shard with a non-empty disk receives
        at least one frame — a nonzero configured buffer percentage must
        never silently run a shard at the paper's "0 % buffer"
        configuration.  The extra frames are taken from the largest shares
        first (ties broken towards the smaller disk, then the lower shard
        id — so a shard holding more pages never ends up with less buffer
        than a smaller one), keeping the aggregate exact whenever some
        share has a frame to spare; when the capacity is scarcer than the
        number of non-empty shards the minimum takes precedence and the
        aggregate runs over by the deficit.
        """
        total_pages = sum(disk_sizes)
        if total_pages == 0:
            shares = [0] * len(self.shards)
        else:
            exact = [total_capacity * size / total_pages for size in disk_sizes]
            shares = [int(value) for value in exact]
            remainders = sorted(
                range(len(shares)),
                key=lambda i: (exact[i] - shares[i], disk_sizes[i]),
                reverse=True,
            )
            for i in remainders[: total_capacity - sum(shares)]:
                shares[i] += 1
            if total_capacity > 0:
                for i in range(len(shares)):
                    if disk_sizes[i] > 0 and shares[i] == 0:
                        shares[i] = 1
                        donor = max(
                            (j for j in range(len(shares)) if shares[j] > 1),
                            key=lambda j: (shares[j], -disk_sizes[j], -j),
                            default=None,
                        )
                        if donor is not None:
                            shares[donor] -= 1
        self._backend.dispatch(
            {
                shard_id: [(MovingObjectIndex.set_buffer_capacity, (share,))]
                for shard_id, share in enumerate(shares)
            }
        )

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------
    def insert(self, oid: int, location: Point) -> None:
        """Insert a new object (:class:`DuplicateObjectError` when it exists).

        A NaN or infinite coordinate raises
        :class:`~repro.api.errors.NonFiniteCoordinateError` before anything
        changes.
        """
        api_ops.require_finite(location)
        if oid in self:
            raise DuplicateObjectError(oid)
        shard_id = self.partitioner.shard_of(location)
        # Apply first, log on success: a shard that raises must leave the
        # WAL silent, or recovery would replay a mutation the live index
        # never performed (redo replay is idempotent, so apply-then-log
        # costs nothing; a crash in the gap loses an op that was never
        # acknowledged durable).
        self._record_update(shard_id)
        self._backend.run(shard_id, MovingObjectIndex.insert, oid, location)
        if self.durability is not None:
            self.durability.log_record(shard_id, insert_record(oid, location))

    def update(self, oid: int, new_location: Point) -> UpdateOutcome:
        """Route the update; migrate across shards when a boundary is crossed.

        Raises :class:`~repro.api.errors.UnknownObjectError` (a ``KeyError``)
        when the object is not indexed, and
        :class:`~repro.api.errors.NonFiniteCoordinateError` for a NaN or
        infinite coordinate, both before anything changes.
        """
        # require_finite inlined: this is the per-update path.
        if not (isfinite(new_location.x) and isfinite(new_location.y)):
            raise NonFiniteCoordinateError(new_location)
        solo = self._solo
        if solo is not None:
            outcome = solo.update(oid, new_location)
            if self.durability is not None:
                self.durability.log_record(0, update_record(oid, new_location))
            return outcome
        source = self.shard_for(oid)
        if source is None:
            raise UnknownObjectError(oid)
        target = self.partitioner.shard_of(new_location)
        if target == source:
            self._record_update(source)
            if self.monitor is not None:
                self._record_moves(source, [(self.position_of(oid), new_location)])
            outcome = self._backend.run(
                source, MovingObjectIndex.update, oid, new_location
            )
            if self.durability is not None:
                self.durability.log_record(
                    source, update_record(oid, new_location)
                )
            return outcome
        self._execute_migration(
            source, BatchUpdate(oid, self.shards[source].position_of(oid), new_location)
        )
        return UpdateOutcome.MIGRATED

    def delete(self, oid: int, strict: bool = True) -> bool:
        """Remove an object; ``True`` when it existed.

        Deleting an absent object raises
        :class:`~repro.api.errors.UnknownObjectError`, mirroring
        :meth:`update`, unless ``strict=False``, which returns ``False``.
        """
        shard_id = self.shard_for(oid)
        if shard_id is None:
            if strict:
                raise UnknownObjectError(oid)
            return False
        self._record_update(shard_id)
        removed = self._backend.run(shard_id, MovingObjectIndex.delete, oid)
        if self.durability is not None:
            self.durability.log_record(shard_id, delete_record(oid))
        return bool(removed)

    def _query_shards(self, window: Rect) -> List[int]:
        """Shards a window query must visit.

        The partitioner's boundary rectangles are the primary fan-out
        filter; a shard whose *content* MBR reaches outside its boundary
        (positions are clamped into the unit square for routing, so an
        out-of-square object legally lives beyond its cell) is included
        through the uncharged root-MBR check, keeping sharded answers
        identical to a single index for every input.
        """
        selected = set(self.partitioner.shards_intersecting(window))
        for shard_id in range(self.num_shards):
            if shard_id in selected:
                continue
            content = self._backend.root_mbr(shard_id)
            if content is not None and content.intersects(window):
                selected.add(shard_id)
        return sorted(selected)

    def range_query(self, window: Rect) -> List[int]:
        """Fan the window out to the shards whose boundaries intersect it.

        The per-shard traversals go out as one dispatch (concurrent under
        the process backend); the results merge in shard-id
        order, so the answer, order included, is the same under every
        executor.
        """
        solo = self._solo
        if solo is not None:
            return solo.range_query(window)
        shard_ids = self._query_shards(window)
        for shard_id in shard_ids:
            self._record_query(shard_id)
        payloads = self._backend.dispatch(
            {
                shard_id: [(MovingObjectIndex.range_query, (window,))]
                for shard_id in shard_ids
            }
        )
        results: List[int] = []
        for shard_id in shard_ids:
            results.extend(payloads[shard_id][0])
        return results

    def stream_query(self, window: Rect) -> QueryCursor:
        """Streaming fan-out: shard traversals advance only as the cursor is read.

        The qualifying shards are selected up front (an uncharged check of
        partition boundaries and root MBRs); each shard's own traversal then
        streams lazily, one leaf's hit list at a time, in the same shard
        order — and therefore the same result order — as :meth:`range_query`.
        The cursor flattens the lists, so no coordinator frame resumes per
        hit.  Under the process backend laziness degrades to shard
        granularity: reaching into a shard fetches (and charges) that whole
        shard's hits at once, as one list.
        """
        solo = self._solo
        if solo is not None:
            return solo.stream_query(window)

        def leaf_hits() -> Iterator[List[int]]:
            for shard_id in self._query_shards(window):
                self._record_query(shard_id)
                yield from self._backend.iter_range(shard_id, window)

        return QueryCursor(chain.from_iterable(leaf_hits()))

    def stream_knn(self, point: Point, k: int) -> QueryCursor:
        """Cursor over the merged k nearest neighbours across shards.

        Cross-shard kNN needs every contributing shard's candidates before
        the global order is known, so the merge itself is materialised (the
        per-shard searches prune against the running k-th distance, see
        :meth:`knn`); the cursor provides the uniform streaming interface
        over the merged result.  One shard streams its own search lazily.
        """
        solo = self._solo
        if solo is not None:
            return solo.stream_knn(point, k)
        return QueryCursor(iter(self.knn(point, k)))

    def knn(self, point: Point, k: int) -> List[Tuple[float, int]]:
        """Best-first kNN over shard bounds with a pruning radius.

        Shards are visited in order of the minimum distance from the query
        point to their bound — the shard boundary tightened to the shard's
        actual content MBR (an always-valid, usually tighter bound, and the
        correct one even for positions stored outside the unit square).
        Once *k* candidates are held, any shard whose bound lies strictly
        beyond the current k-th distance cannot contribute and is pruned.

        The running k-th distance is also threaded *into* each per-shard
        search: the shard's incremental best-first stream
        (:meth:`~repro.rtree.tree.RTree.iter_knn`) is consumed only while
        its candidates can still enter the merged top *k*, so a shard whose
        bound forces a visit but whose objects mostly lie beyond the
        current radius pays the I/O of the few candidates actually
        inspected, not of a full k-search.  Equal-distance candidates are
        still consumed (and merged in ``(distance, oid)`` order), keeping
        ties bit-identical to one shard's own search.
        """
        solo = self._solo
        if solo is not None:
            return solo.knn(point, k)
        if k <= 0:
            return []
        backend = self._backend
        bounds: List[Tuple[float, int]] = []
        for shard_id in range(self.num_shards):
            content = backend.root_mbr(shard_id)
            if content is None:
                continue  # empty shard: nothing to contribute
            bounds.append((content.min_distance_to_point(point), shard_id))
        bounds.sort()
        best: List[Tuple[float, int]] = []
        for bound, shard_id in bounds:
            if len(best) >= k and bound > best[-1][0]:
                break
            self._record_query(shard_id)
            # The probe carries the running best list (the pruning radius).
            # Probes stay sequential: each one's radius depends on the
            # previous shard's answer, and a speculative parallel probe
            # would charge I/O a sequential one never pays.
            best = backend.run(shard_id, MovingObjectIndex.knn_probe, point, k, best)
        return best

    def position_of(self, oid: int) -> Optional[Point]:
        for shard in self.shards:
            position = shard._positions.get(oid)
            if position is not None:
                return position
        return None

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, oid: int) -> bool:
        return any(oid in shard._positions for shard in self.shards)

    # ------------------------------------------------------------------
    # Batch operations (per-shard group-by-leaf buckets)
    # ------------------------------------------------------------------
    def _call_scope(self) -> ContextManager[None]:
        """The durability point of one batch call (a no-op without a WAL).

        Everything a call logs inside it — one unit per barrier segment,
        the migrations in between, a triggered rebalance — is appended as
        it happens and, under ``group`` sync, fsynced once per dirty log
        when the call exits (:meth:`DurabilityManager.call_scope`): a call
        that returned is durable in full; one that did not may survive as
        any per-log prefix of its units, which recovery merges into a state
        with every object at its pre-call position or one the call gave it.
        """
        if self.durability is None:
            return nullcontext()
        return self.durability.call_scope()

    def _execute_operation_stream(
        self, operations: Iterable[api_ops.Operation], strict_deletes: bool
    ) -> BatchReport:
        return self._execute_batch(
            self._parse_operations(operations, strict_deletes=strict_deletes)
        )

    def _execute_batch(self, parsed: List[BatchOperation]) -> BatchReport:
        """Run a parsed stream: runs of updates flush at every barrier."""
        result = BatchReport()
        before = [shard.stats.snapshot() for shard in self.shards]
        run: List[BatchUpdate] = []
        with self._call_scope():
            for op in parsed:
                if isinstance(op, BatchUpdate):
                    result.updates += 1
                    run.append(op)
                elif isinstance(op, api_ops.RangeQuery):
                    self._flush_updates(run, result)
                    result.queries.append(self.range_query(op.window))
                elif isinstance(op, api_ops.Insert):
                    self._flush_updates(run, result)
                    self.insert(op.oid, op.location)
                    result.inserts += 1
                elif isinstance(op, DeleteOp):
                    self._flush_updates(run, result)
                    self.delete(op.oid)
                    result.deletes += 1
                elif isinstance(op, api_ops.KNN):
                    self._flush_updates(run, result)
                    result.neighbors.append(self.knn(op.point, op.k))
                else:  # pragma: no cover - the parser only emits the above
                    raise TypeError(f"unsupported batch operation {op!r}")
            self._flush_updates(run, result)
            self._merge_io_delta(result, before)
            self._auto_maintain()
        return result

    def _flush_updates(self, run: List[BatchUpdate], result: BatchReport) -> None:
        """Coalesce a run of updates and route it: per-shard batches + migrations."""
        if not run:
            return
        pending, _requested, coalesced = coalesce_updates(run)
        result.coalesced += coalesced
        run.clear()
        per_shard, crossing = self._route(pending.values())
        for source, request in crossing:
            self._execute_migration(source, request, result)
        # Every shard's bucket goes out in one dispatch (the process backend
        # sends one message per worker); each runs the pre-commit +
        # group-by-leaf step.
        payloads = self._backend.dispatch(
            {
                shard_id: [(MovingObjectIndex._execute_operation_stream, (requests,))]
                for shard_id, requests in per_shard.items()
            }
        )
        for replies in payloads.values():
            groups, largest_group, residuals = replies[0]
            result.groups += groups
            result.largest_group = max(result.largest_group, largest_group)
            result.residuals += residuals
        self._log_update_buckets(per_shard)

    def _route(
        self, requests: Iterable[BatchUpdate]
    ) -> Tuple[Dict[int, List[BatchUpdate]], List[Tuple[int, BatchUpdate]]]:
        """Split coalesced requests of indexed objects into recorded
        in-shard buckets and the boundary crossings (migrations), each
        crossing paired with the shard it leaves."""
        per_shard: Dict[int, List[BatchUpdate]] = {}
        crossing: List[Tuple[int, BatchUpdate]] = []
        for request in requests:
            source = self.shard_for(request.oid)
            if source == self.partitioner.shard_of(request.new_location):
                per_shard.setdefault(source, []).append(request)
            else:
                crossing.append((source, request))
        for shard_id, bucket in per_shard.items():
            self._record_update(shard_id, len(bucket))
            self._record_moves(
                shard_id, ((r.old_location, r.new_location) for r in bucket)
            )
        return per_shard, crossing

    def _log_update_buckets(
        self, per_shard: Dict[int, List[BatchUpdate]]
    ) -> None:
        """Log one executed batch dispatch's in-shard buckets as one commit unit.

        The whole dispatch is one appended frame per touched shard log, all
        sharing one LSN, made durable with the rest of the call at its exit
        (:meth:`_call_scope`) — the group-commit shape; boundary-crossing
        members logged per migration are disjoint from these buckets (the
        pending set holds one request per object).  Called *after* the
        dispatch has executed (apply first, log on success), so a shard or
        worker that raises leaves the WAL silent instead of durably
        recording updates that never happened.
        """
        if self.durability is None or not per_shard:
            return
        self.durability.log_unit(
            {
                shard_id: [
                    update_record(request.oid, request.new_location)
                    for request in requests
                ]
                for shard_id, requests in per_shard.items()
            },
            barrier=True,
        )

    def _execute_migration(
        self, source: int, request: BatchUpdate, result: Optional[BatchReport] = None
    ) -> None:
        """Delete from the *source* shard, insert into the target, re-route.

        *request* names an object indexed on *source* whose new position
        routes to another shard: the parser rejects unknown objects, and
        every caller (the batch router, :meth:`update`, :meth:`reroute`)
        has looked *source* up and checked the routing first, against the
        partitioner the migration runs under.
        """
        target = self.partitioner.shard_of(request.new_location)
        # The log frames are appended only after both shards applied their
        # halves (apply first, log on success — a shard that raises leaves
        # the WAL silent).  One commit unit across both shard logs, arrival
        # first: a torn tail that keeps the arrival but loses the departure
        # replays as the whole migration (recovery evicts the stale source
        # copy), and the reverse asymmetry — departure durable, arrival
        # lost — is detected by recovery as an orphaned departure (both
        # halves share the LSN) and skipped.
        self._record_update(source)
        self._backend.run(source, MovingObjectIndex.delete, request.oid)
        self.migrations += 1
        if result is not None:
            result.migrations += 1
        self._record_update(target)
        self._backend.run(
            target, MovingObjectIndex.insert, request.oid, request.new_location
        )
        if self.durability is not None:
            self.durability.log_unit(
                {
                    target: (migrate_in_record(request.oid, request.new_location),),
                    source: (migrate_out_record(request.oid),),
                },
                barrier=False,
            )

    def _parse_operations(
        self, operations: Iterable[api_ops.Operation], strict_deletes: bool = False
    ) -> List[BatchOperation]:
        # Shard position maps advance when the operations execute.
        return parse_operation_stream(
            operations, self.position_of, strict_deletes=strict_deletes
        )

    def _merge_io_delta(
        self, result: BatchReport, before: List[IOStatistics]
    ) -> None:
        result.io = IOStatistics.sum(
            shard.stats.snapshot().delta_since(snapshot)
            for shard, snapshot in zip(self.shards, before)
        )

    # ------------------------------------------------------------------
    # Engine SPI (repro.core.protocol; sessions open via engine())
    # ------------------------------------------------------------------
    def lock_requests_for(self, op: api_ops.Operation) -> List[GranuleLockRequest]:
        """Predict an operation's lock set across shards.

        Each shard's granules are namespaced with its shard id, so scopes
        from different shards are disjoint by construction: only operations
        that touch the same shard can ever conflict, and a cross-shard
        migration names granules from both its shards.
        """
        solo = self._solo
        if solo is not None and isinstance(op, api_ops.Operation):
            return namespace_pairs(_shard_scope(solo, op), 0)

        def scope(
            shard_id: int, shard_op: api_ops.Operation
        ) -> List[GranuleLockRequest]:
            return namespace_pairs(
                _shard_scope(self.shards[shard_id], shard_op), shard_id
            )

        if isinstance(op, api_ops.Update):
            source = self.shard_for(op.oid)
            target = self.partitioner.shard_of(op.new_location)
            if source == target:
                return scope(source, op)
            # A migration (or, for an unknown object, a plain insert).
            pairs = [] if source is None else scope(source, api_ops.Delete(op.oid))
            return pairs + scope(target, api_ops.Insert(op.oid, op.new_location))
        if isinstance(op, api_ops.Insert):
            return scope(self.partitioner.shard_of(op.location), op)
        if isinstance(op, api_ops.Delete):
            source = self.shard_for(op.oid)
            return [] if source is None else scope(source, op)
        if isinstance(op, api_ops.RangeQuery):
            shard_ids: Iterable[int] = self._query_shards(op.window)
        elif isinstance(op, api_ops.KNN):
            # Conservative: a kNN may spill into any shard holding data, so
            # every non-empty shard contributes its own (conservative) scope.
            shard_ids = [sid for sid, shard in enumerate(self.shards) if len(shard)]
        else:
            raise InvalidOperationError(f"expected an Operation, got {op!r}")
        return [pair for sid in shard_ids for pair in scope(sid, op)]

    def prepare_concurrent_batch(
        self, updates: Iterable[api_ops.Update]
    ) -> PreparedBatch:
        """Plan one batch as per-shard group buckets plus migration ops.

        In-shard requests go through each shard's group-by-leaf planner and
        become ``group`` operations whose granules carry the shard namespace
        — buckets of different shards are disjoint by construction and
        schedule fully in parallel.  A boundary-crossing request becomes a
        ``migration``: an update whose scope spans two shards, so it locks
        exactly what ``lock_requests_for`` predicts for its
        :class:`~repro.api.operations.Update`.  Shard position maps are
        pre-committed for in-shard members (their group passes never
        consult them); migrations commit their own state when they execute.
        The run is coalesced here, once; the shard planners only bucket it.
        """
        pending, requested, coalesced = coalesce_updates(
            self._parse_operations(updates, strict_deletes=True)
        )
        result = BatchReport(updates=requested, coalesced=coalesced)
        per_shard, crossing = self._route(pending.values())
        operations = [
            VirtualOperation(
                "migration",
                partial(
                    self.lock_requests_for,
                    api_ops.Update(request.oid, request.new_location),
                ),
                partial(self._execute_migration, source, request, result),
            )
            for source, request in crossing
        ]
        for shard_id, requests in per_shard.items():
            shard = self.shards[shard_id]
            executor = shard.batch
            buckets = executor.plan(requests)
            for request in requests:
                shard._positions[request.oid] = request.new_location
            operations.extend(
                VirtualOperation(
                    "group",
                    partial(_group_scope, executor, leaf_page, bucket, shard_id),
                    partial(executor.execute_group, leaf_page, bucket, result),
                )
                for leaf_page, bucket in buckets.items()
            )
        before = [shard.stats.snapshot() for shard in self.shards]

        def finalize() -> None:
            self._merge_io_delta(result, before)
            # Apply first, log on success: finalize runs once the schedule
            # has drained, so the in-shard buckets log as one commit unit
            # (the group-commit frame) only after they actually executed;
            # migrations logged themselves as they ran.  An engine batch
            # abandoned mid-schedule is never durably recorded.
            self._log_update_buckets(per_shard)
            # Batch-path auto-trigger: the schedule has drained and every
            # pre-committed position is applied, so a boundary adjustment is
            # planned against consistent state.
            self._auto_maintain()

        return PreparedBatch(operations=operations, result=result, finalize=finalize)

    def total_physical_io(self) -> int:
        return sum(shard.total_physical_io() for shard in self.shards)

    # ------------------------------------------------------------------
    # Statistics and integrity
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        self._broadcast(MovingObjectIndex.reset_statistics)
        self.migrations = 0
        for controller in self.controllers.values():
            controller.restart(self.shards)

    def io_snapshot(self) -> IOStatistics:
        """The shards' I/O counters merged into one aggregate snapshot."""
        return IOStatistics.sum(shard.io_snapshot() for shard in self.shards)

    def refresh_summary(self) -> None:
        self._broadcast(MovingObjectIndex.refresh_summary)

    def validate(self, check_min_fill: bool = False) -> dict:
        """Validate ownership, the spatial routing, and every shard.

        Ownership and routing are checked first, against the (exact)
        coordinator position tables: no object may sit in two shards, and
        the partitioner must route each stored position to the shard
        holding it.  Structural validation then runs where the
        authoritative trees live — in-process normally, in the workers
        under the process backend.
        """
        errors: List[str] = []
        for shard_id, shard in enumerate(self.shards):
            later = list(enumerate(self.shards))[shard_id + 1 :]
            for oid, position in shard._positions.items():
                for other_id, other in later:
                    if oid in other._positions:
                        errors.append(
                            f"object {oid}: held by shards {shard_id} and {other_id}"
                        )
                # Routing consistency: the partitioner (which clamps into
                # the unit square) must still assign the stored position to
                # the shard holding it — the invariant update() maintains.
                if self.partitioner.shard_of(position) != shard_id:
                    errors.append(
                        f"object {oid}: position {position!r} routes to shard "
                        f"{self.partitioner.shard_of(position)}, stored in "
                        f"{shard_id}"
                    )
        if errors:
            raise AssertionError("; ".join(errors))
        reports = self._broadcast(MovingObjectIndex.validate, check_min_fill)
        return {
            "shards": len(self.shards),
            "objects": len(self),
            "heights": [report["height"] for report in reports],
            "reports": reports,
        }

    def describe(self) -> str:
        populations = self.shard_populations()
        text = (
            f"sharded[{self.num_shards}x] {self.partitioner.describe()} | "
            f"{self.config.describe()} | objects={len(self)} "
            f"populations={populations} migrations={self.migrations}"
        )
        for controller in self.controllers.values():
            text += controller.describe(self)
        return text + f" parallel={self._backend.describe()}"
