"""Online shard rebalancing under load skew.

The ``shard_scaling`` figure shows the weakness of a static spatial
partition: under the paper's hotspot (Zipf-skewed) update workload a uniform
grid concentrates both data and update traffic on few shards, the load
imbalance climbs towards the shard count, and the multi-shard makespan win
collapses.  This module adds the system's first feedback-driven control
loop — an **online rebalancer** that watches per-shard load and re-cuts the
partition boundaries so the hot region is spread over every shard:

* :class:`ShardLoadMonitor` — per-shard update/query counters plus physical
  I/O sampled from each shard's :class:`~repro.storage.stats.IOStatistics`;
* :class:`RebalancePolicy` — the trigger rule: rebalance when the max/mean
  per-shard load exceeds ``threshold``, at least ``min_ops`` operations have
  been observed since the last boundary change, and ``cooldown`` operations
  have passed between consecutive rebalances;
* :func:`plan_boundaries` — the boundary-adjustment planner: a weighted
  near-square cut of the unit square (columns split by x, each column split
  by y) where every object carries its owning shard's load share, so the new
  :class:`~repro.shard.partitioner.BoundaryPartitioner` equalises *load*,
  not just population;
* :class:`RebalanceMigration` — one object's move to its re-routed shard,
  scheduled through the concurrent engine exactly like a boundary-crossing
  update migration: the lock scope names the delete granules in the source
  shard and the insert granules in the destination shard, acquired
  all-or-nothing, so rebalance traffic interleaves safely with live client
  sessions and serialises only with operations it truly conflicts with;
* :class:`ShardRebalancer` — the controller gluing these together, attached
  to a :class:`~repro.shard.index.ShardedIndex` via the declarative
  ``rebalance`` spec section (:func:`repro.api.open_index`) and checkpointed
  by :mod:`repro.core.persistence`.

Every migration re-reads the object's *live* position at dispatch time, so a
plan races safely with concurrent updates: an object that moved (or was
deleted) after planning is re-routed to wherever it now belongs — or not at
all — never to a stale position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.api.operations import Update
from repro.concurrency.scheduler import VirtualOperation
from repro.geometry import Point, Rect
from repro.shard.partitioner import (
    BoundaryPartitioner,
    QuantileGridPartitioner,
    near_square_factoring,
)

if TYPE_CHECKING:  # runtime-import free: shard.index imports this module
    from repro.concurrency.engine import OnlineOperationEngine
    from repro.concurrency.locks import LockMode
    from repro.concurrency.scheduler import ScheduleResult
    from repro.shard.index import ShardedIndex


class _IOSource(Protocol):
    """The slice of a shard the monitor samples (satisfied by any facade)."""

    def total_physical_io(self) -> int: ...


@dataclass(frozen=True)
class UpdateQueryMix:
    """One shard's observed operation mix since the last monitor reset.

    The consumer-facing view of the raw update/query counters: the adaptive
    strategy controller weights its cost-model comparison by this mix, and
    callers no longer re-derive ratios (with their own zero-total guards)
    from the counter lists.
    """

    updates: int
    queries: int

    @property
    def total(self) -> int:
        """Recorded operations on the shard (updates + query visits)."""
        return self.updates + self.queries

    @property
    def update_fraction(self) -> float:
        """Updates as a fraction of the total (0.0 on an idle shard)."""
        return self.updates / self.total if self.total else 0.0

    @property
    def query_fraction(self) -> float:
        """Query visits as a fraction of the total (0.0 on an idle shard)."""
        return self.queries / self.total if self.total else 0.0


# ---------------------------------------------------------------------------
# Load monitoring
# ---------------------------------------------------------------------------


class ShardLoadMonitor:
    """Per-shard load counters: updates, queries, and sampled physical I/O.

    The sharded index records every routed operation against its shard;
    :meth:`sample_io` folds in the physical page transfers each shard's
    :class:`~repro.storage.stats.IOStatistics` accumulated since the last
    sample (under the online engine those are the transfers the scheduler
    charges to virtual clients — the same counters, viewed per shard).
    ``load = updates + queries + physical I/O`` per shard, so an
    I/O-heavy shard reads as hot even at moderate operation counts.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.updates: List[int] = [0] * num_shards
        self.queries: List[int] = [0] * num_shards
        self.physical_io: List[int] = [0] * num_shards
        self._io_marks: List[int] = [0] * num_shards

    def record_update(self, shard_id: int, count: int = 1) -> None:
        """Count *count* update-side operations (insert/update/delete) on a shard."""
        self.updates[shard_id] += count

    def record_query(self, shard_id: int, count: int = 1) -> None:
        """Count *count* query-side visits (range/kNN fan-out) on a shard."""
        self.queries[shard_id] += count

    def sample_io(self, shards: Sequence[_IOSource]) -> None:
        """Fold in each shard's physical I/O delta since the last sample."""
        for shard_id, shard in enumerate(shards):
            current = shard.total_physical_io()
            delta = current - self._io_marks[shard_id]
            if delta > 0:
                self.physical_io[shard_id] += delta
            self._io_marks[shard_id] = current

    def exclude_io(self, shard_id: int, amount: int) -> None:
        """Skip *amount* of a shard's physical I/O in the next sample.

        Used by the rebalancer's migration paths: the migrations' own I/O
        must not read as shard load, or the storm the cooldown exists to
        prevent would re-trigger itself (the migration burst lands in the
        evidence window :meth:`reset` just opened).
        """
        self._io_marks[shard_id] += amount

    # -- derived views ---------------------------------------------------
    def loads(self) -> List[float]:
        """Combined per-shard load (operations + queries + physical I/O)."""
        return [
            float(self.updates[i] + self.queries[i] + self.physical_io[i])
            for i in range(self.num_shards)
        ]

    def total_operations(self) -> int:
        """Recorded operations (updates + query visits) since the last reset."""
        return sum(self.updates) + sum(self.queries)

    def update_query_mix(self) -> List[UpdateQueryMix]:
        """Per-shard observed mix (ratio + totals) since the last reset."""
        return [
            UpdateQueryMix(updates=self.updates[i], queries=self.queries[i])
            for i in range(self.num_shards)
        ]

    def imbalance(self) -> float:
        """Max/mean of the per-shard loads (1.0 = balanced, also when idle)."""
        loads = self.loads()
        total = sum(loads)
        if total <= 0:
            return 1.0
        return max(loads) * self.num_shards / total

    def reset(self, shards: Optional[Sequence[_IOSource]] = None) -> None:
        """Zero the counters; re-mark the I/O baselines when *shards* given."""
        self.updates = [0] * self.num_shards
        self.queries = [0] * self.num_shards
        self.physical_io = [0] * self.num_shards
        if shards is not None:
            self._io_marks = [shard.total_physical_io() for shard in shards]
        else:
            self._io_marks = [0] * self.num_shards


# ---------------------------------------------------------------------------
# Trigger policy
# ---------------------------------------------------------------------------


@dataclass
class RebalancePolicy:
    """When load skew is bad enough — and evidence fresh enough — to act.

    Attributes
    ----------
    threshold:
        Trigger when max/mean per-shard load exceeds this factor (the
        ``shard_scaling`` hotspot runs reach ~4x on a 4-shard grid).
    cooldown:
        Minimum recorded operations between consecutive rebalances, so a
        freshly cut partition gets time to prove itself before being re-cut.
    min_ops:
        Minimum recorded operations before the *first* trigger; prevents a
        handful of early operations from being read as a trend.
    """

    threshold: float = 1.5
    cooldown: int = 400
    min_ops: int = 128

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise ValueError("threshold must exceed 1.0 (1.0 = perfectly balanced)")
        if self.cooldown < 0 or self.min_ops < 0:
            raise ValueError("cooldown and min_ops must be non-negative")

    def evidence_required(self, rebalances: int) -> int:
        """Operations needed in the window before a trigger is considered."""
        return self.min_ops if rebalances == 0 else max(self.min_ops, self.cooldown)

    def should_trigger(self, monitor: ShardLoadMonitor, rebalances: int) -> bool:
        """Evidence check against *monitor* (counters since the last rebalance)."""
        if monitor.total_operations() < self.evidence_required(rebalances):
            return False
        return monitor.imbalance() > self.threshold

    def to_spec(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe), the ``rebalance`` builder spec section."""
        return {
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "min_ops": self.min_ops,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "RebalancePolicy":
        """Rebuild a policy from its (possibly partial) spec dict."""
        known = {"threshold", "cooldown", "min_ops"}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown rebalance spec keys {sorted(unknown)!r}")
        return cls(
            threshold=float(spec.get("threshold", cls.threshold)),
            cooldown=int(spec.get("cooldown", cls.cooldown)),
            min_ops=int(spec.get("min_ops", cls.min_ops)),
        )


# ---------------------------------------------------------------------------
# Boundary planning
# ---------------------------------------------------------------------------


def _weighted_cuts(
    items: List[Tuple[float, float]], groups: int
) -> Tuple[List[float], List[List[Tuple[float, float]]]]:
    """Cut *items* (``(coordinate, weight)``, pre-sorted) into weight-balanced groups.

    Returns the interior+outer cut coordinates ``[0.0, c1, ..., 1.0]``
    (length ``groups + 1``, non-decreasing) and the item groups themselves.
    Each interior cut lies halfway between the adjacent items of the two
    groups it separates, so boundary objects stay strictly inside their
    group's rectangle whenever coordinates differ.
    """
    total = sum(weight for _, weight in items)
    cuts: List[float] = [0.0]
    grouped: List[List[Tuple[float, float]]] = []
    cursor = 0
    accumulated = 0.0
    for group in range(groups - 1):
        target = total * (group + 1) / groups
        start = cursor
        while cursor < len(items) and (
            accumulated + items[cursor][1] <= target or cursor == start
        ):
            accumulated += items[cursor][1]
            cursor += 1
        grouped.append(items[start:cursor])
        if cursor == 0:
            cut = 0.0
        elif cursor >= len(items):
            cut = 1.0
        else:
            cut = (items[cursor - 1][0] + items[cursor][0]) / 2.0
        cut = min(1.0, max(cut, cuts[-1]))
        cuts.append(cut)
    grouped.append(items[cursor:])
    cuts.append(1.0)
    return cuts, grouped


def plan_boundaries(
    items: Sequence[Tuple[Point, float]], num_shards: int
) -> QuantileGridPartitioner:
    """Weighted near-square partition of the unit square over *items*.

    The space is cut into ``columns`` x-strips of roughly equal total weight
    and each strip into ``rows`` y-cells of roughly equal weight within the
    strip — the same ``columns x rows`` shape as
    :meth:`~repro.shard.partitioner.GridPartitioner.for_shards`, but with
    boundaries placed where the *weight* is, not at uniform fractions.  With
    no items (or all-equal coordinates) the cuts degenerate gracefully:
    every cell still exists and the cells jointly cover the unit square, so
    the resulting :class:`~repro.shard.partitioner.BoundaryPartitioner`
    remains total.
    """
    columns, rows = near_square_factoring(num_shards)
    by_x = sorted(
        ((point.clamped(), weight) for point, weight in items),
        key=lambda item: (item[0].x, item[0].y),
    )
    x_items = [(point.x, weight) for point, weight in by_x]
    x_cuts, x_groups_flat = _weighted_cuts(x_items, columns)
    # Regroup the actual points to the x groups (same order, same sizes).
    column_y_cuts: List[List[float]] = []
    offset = 0
    for column in range(columns):
        group_size = len(x_groups_flat[column])
        column_points = by_x[offset : offset + group_size]
        offset += group_size
        y_items = sorted(
            ((point.y, weight) for point, weight in column_points),
        )
        y_cuts, _ = _weighted_cuts(y_items, rows)
        column_y_cuts.append(y_cuts)
    return QuantileGridPartitioner(x_cuts, column_y_cuts)


# ---------------------------------------------------------------------------
# Scheduled migration
# ---------------------------------------------------------------------------


class RebalanceMigration(VirtualOperation):
    """One object's re-route to the shard its position now belongs to.

    Scheduled through the concurrent engine like every other operation: the
    lock scope — recomputed from the live index on each dispatch attempt —
    is the update scope of a zero-distance move, which for an object whose
    directory shard disagrees with the partitioner is exactly the
    cross-shard migration scope: delete granules in the source shard plus
    insert granules in the destination shard, both namespaced, acquired
    all-or-nothing.  Concurrent client operations on other granules
    interleave freely; an object deleted (or already re-routed) by the time
    the migration dispatches degrades to a no-op.
    """

    __slots__ = ("engine", "sharded", "oid")
    kind = "rebalance"

    def __init__(
        self, engine: "OnlineOperationEngine", sharded: "ShardedIndex", oid: int
    ) -> None:
        self.engine = engine
        self.sharded = sharded
        self.oid = oid

    def lock_requests(self) -> List[Tuple[Hashable, "LockMode"]]:
        position = self.sharded.position_of(self.oid)
        if position is None:
            return []  # object vanished; executing is a no-op
        return self.sharded.lock_requests_for(Update(self.oid, position))

    def execute(self, client: int) -> int:
        return self.engine.measure(lambda: self.sharded.reroute(self.oid))


class RebalanceGroupMigration(VirtualOperation):
    """A whole source-leaf bucket of displaced objects, migrated in bulk.

    The scheduled form of
    :meth:`~repro.shard.index.ShardedIndex.migrate_leaf_group`: one
    source-side removal pass and one bulk insert per destination shard move
    the entire bucket, so the migration cost is paid per *leaf*, not per
    object — the same group-by-leaf amortisation the batch update engine
    applies to client updates.  The lock scope is the union of the members'
    migration scopes (source delete granules + destination insert granules,
    recomputed from the live index on every dispatch attempt), acquired
    all-or-nothing; members that drifted since planning degrade to the
    per-object path inside the group executor.
    """

    __slots__ = ("engine", "sharded", "source_id", "leaf_page", "oids")
    kind = "rebalance"

    def __init__(
        self,
        engine: "OnlineOperationEngine",
        sharded: "ShardedIndex",
        source_id: int,
        leaf_page: int,
        oids: List[int],
    ) -> None:
        self.engine = engine
        self.sharded = sharded
        self.source_id = source_id
        self.leaf_page = leaf_page
        self.oids = oids

    def lock_requests(self) -> List[Tuple[Hashable, "LockMode"]]:
        pairs: List[Tuple[Hashable, "LockMode"]] = []
        seen: Set[Tuple[Hashable, "LockMode"]] = set()
        for oid in self.oids:
            position = self.sharded.position_of(oid)
            if position is None:
                continue
            for pair in self.sharded.lock_requests_for(Update(oid, position)):
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        return pairs

    def execute(self, client: int) -> int:
        return self.engine.measure(
            lambda: self.sharded.migrate_leaf_group(
                self.source_id, self.leaf_page, self.oids
            )
        )


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass
class RebalancePlan:
    """A planned boundary adjustment: the new partition plus the moves it needs.

    ``buckets`` groups the moves by ``(source shard, source leaf)`` — the
    unit :class:`RebalanceGroupMigration` executes — and ``loose`` holds the
    members with no indexed leaf at planning time (migrated per object).
    """

    partitioner: BoundaryPartitioner
    moves: List[int]
    imbalance_before: float
    loads: List[float] = field(default_factory=list)
    buckets: List[Tuple[int, int, List[int]]] = field(default_factory=list)
    loose: List[int] = field(default_factory=list)


@dataclass
class RebalanceReport:
    """Outcome of one :meth:`ShardedIndex.rebalance` call."""

    triggered: bool
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0
    moves: int = 0
    schedule: Optional["ScheduleResult"] = None

    def describe(self) -> str:
        if not self.triggered:
            return "rebalance: not triggered"
        return (
            f"rebalance: moves={self.moves} "
            f"imbalance {self.imbalance_before:.2f} -> {self.imbalance_after:.2f}"
        )


class ShardRebalancer:
    """Feedback loop: monitor shard load, re-cut boundaries, migrate objects.

    Attach to a :class:`~repro.shard.index.ShardedIndex` (the ``rebalance``
    spec section of :func:`repro.api.open_index` does this declaratively).
    Once attached, the index records every routed operation into the
    monitor; the auto-trigger hooks — the engine's maintenance interleave
    for live sessions, the batch epilogue for serial batches — consult
    :meth:`should_rebalance` and execute :meth:`plan` as conflict-scheduled
    migration batches.  ``rebalances`` counts completed boundary changes and
    survives checkpoints (:meth:`state_to_spec`).
    """

    def __init__(
        self,
        num_shards: int,
        policy: Optional[RebalancePolicy] = None,
        rebalances: int = 0,
    ) -> None:
        self.policy = policy if policy is not None else RebalancePolicy()
        self.monitor = ShardLoadMonitor(num_shards)
        self.rebalances = rebalances

    # -- trigger ---------------------------------------------------------
    def should_rebalance(self, sharded: "ShardedIndex") -> bool:
        """Sample I/O and evaluate the policy against the current counters.

        The cheap operation-count gate runs first: this method is polled
        before every engine operation draw, and the per-shard I/O sampling
        is only worth paying once enough evidence has accumulated for a
        trigger to be possible at all.
        """
        if sharded.num_shards <= 1:
            return False
        if self.monitor.total_operations() < self.policy.evidence_required(
            self.rebalances
        ):
            return False
        self.monitor.sample_io(sharded.shards)
        return self.policy.should_trigger(self.monitor, self.rebalances)

    # -- planning --------------------------------------------------------
    def plan(self, sharded: "ShardedIndex", force: bool = False) -> Optional[RebalancePlan]:
        """Plan a boundary adjustment from the observed load (or populations).

        Each object is weighted by its owning shard's load share (load
        divided by population), so shifting boundaries equalises the load
        distribution; objects of shards with **no** recorded load carry
        zero weight (an idle region needs no capacity of its own — its
        objects ride along with wherever the load-driven cuts fall).  Only
        when *nothing* recorded any load — ``force`` on an idle index —
        do weights fall back to 1.0 and the plan equalises populations.
        Returns ``None`` when there is nothing to plan (single shard, empty
        index, or no move would change ownership).
        """
        if sharded.num_shards <= 1 or len(sharded) == 0:
            return None
        self.monitor.sample_io(sharded.shards)
        loads = self.monitor.loads()
        populations = sharded.shard_populations()
        weights = [
            loads[shard_id] / populations[shard_id] if populations[shard_id] else 0.0
            for shard_id in range(sharded.num_shards)
        ]
        if not any(weights):
            if not force:
                return None
            weights = [1.0] * sharded.num_shards
        records: List[Tuple[int, Point, int]] = []
        for oid in sorted(sharded.object_directory()):
            position = sharded.position_of(oid)
            shard_id = sharded.shard_for(oid)
            if position is None or shard_id is None:
                continue
            records.append((oid, position, shard_id))
        partitioner = plan_boundaries(
            [(position, weights[shard_id]) for _oid, position, shard_id in records],
            sharded.num_shards,
        )
        moves: List[int] = []
        pending: List[Tuple[int, int]] = []
        for oid, position, shard_id in records:
            if partitioner.shard_of(position) == shard_id:
                continue
            moves.append(oid)
            pending.append((oid, shard_id))
        if not moves:
            return None
        # Resolve leaf ownership in one batched (uncharged) lookup per shard
        # rather than one hash probe per object — under the process backend
        # each shard's batch is a single worker round-trip.
        by_shard: Dict[int, List[int]] = {}
        for oid, shard_id in pending:
            by_shard.setdefault(shard_id, []).append(oid)
        leaf_of: Dict[Tuple[int, int], Optional[int]] = {}
        for shard_id, oids in by_shard.items():
            pages = sharded.leaf_pages_of(shard_id, oids)
            for oid, leaf_page in zip(oids, pages):
                leaf_of[(shard_id, oid)] = leaf_page
        grouped: Dict[Tuple[int, int], List[int]] = {}
        loose: List[int] = []
        for oid, shard_id in pending:
            leaf_page = leaf_of[(shard_id, oid)]
            if leaf_page is None:
                loose.append(oid)
            else:
                grouped.setdefault((shard_id, leaf_page), []).append(oid)
        return RebalancePlan(
            partitioner=partitioner,
            moves=moves,
            imbalance_before=self.monitor.imbalance(),
            loads=loads,
            buckets=[
                (shard_id, leaf_page, members)
                for (shard_id, leaf_page), members in sorted(grouped.items())
            ],
            loose=loose,
        )

    # -- bookkeeping -----------------------------------------------------
    def committed(self, sharded: "ShardedIndex") -> None:
        """Record a completed boundary change and restart the evidence window."""
        self.rebalances += 1
        self.monitor.reset(sharded.shards)

    # -- persistence -----------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """The declarative (policy-only) spec section, JSON-round-trippable."""
        return self.policy.to_spec()

    def state_to_spec(self) -> Dict[str, Any]:
        """Checkpoint form: the policy spec plus the runtime counters."""
        spec = self.to_spec()
        spec["rebalances"] = self.rebalances
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, Any], num_shards: int) -> "ShardRebalancer":
        """Rebuild a rebalancer from a policy spec or a checkpointed state spec."""
        data = dict(spec)
        rebalances = int(data.pop("rebalances", 0))
        return cls(
            num_shards,
            policy=RebalancePolicy.from_spec(data),
            rebalances=rebalances,
        )


__all__ = [
    "RebalanceGroupMigration",
    "RebalanceMigration",
    "RebalancePlan",
    "RebalancePolicy",
    "RebalanceReport",
    "ShardLoadMonitor",
    "ShardRebalancer",
    "UpdateQueryMix",
    "plan_boundaries",
]
