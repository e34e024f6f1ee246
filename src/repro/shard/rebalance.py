"""Online shard rebalancing under load skew.

The ``shard_scaling`` figure shows the weakness of a static spatial
partition: under the paper's hotspot (Zipf-skewed) update workload a uniform
grid concentrates both data and update traffic on few shards, the load
imbalance climbs towards the shard count, and the multi-shard makespan win
collapses.  This module adds the system's first feedback-driven control
loop — an **online rebalancer** that watches per-shard load and re-cuts the
partition boundaries so the hot region is spread over every shard:

* :class:`RebalancePolicy` — the trigger rule: the shared
  :class:`~repro.shard.control.EvidenceGate` (``min_ops`` operations of
  evidence before the first rebalance, ``cooldown`` between later ones) plus
  a ``threshold`` on the max/mean per-shard load of the window, read from
  the index's one :class:`~repro.shard.control.ShardLoadMonitor`;
* :func:`plan_boundaries` — the boundary-adjustment planner: a weighted
  near-square cut of the unit square (columns split by x, each column split
  by y) where every object carries its owning shard's load share, so the new
  :class:`~repro.shard.partitioner.BoundaryPartitioner` equalises *load*,
  not just population;
* :class:`RebalancePlan` — the new partition plus its moves, grouped by
  ``(source shard, source leaf)`` so each bucket migrates in bulk;
* :class:`ShardRebalancer` — the controller gluing these together, attached
  to a :class:`~repro.shard.index.ShardedIndex` via the declarative
  ``rebalance`` spec section (:func:`repro.api.open_index`) and checkpointed
  by :mod:`repro.core.persistence`.

The index executes a plan: :meth:`~repro.shard.index.ShardedIndex.rebalance`
runs it directly (``migrate_leaf_group`` per bucket), and a live engine
session schedules the same moves as ``rebalance`` operations on its
maintenance queue, each locking the delete granules in the source shard and
the insert granules in the destination shard all-or-nothing, so rebalance
traffic interleaves safely with client operations.  Every move re-reads
the object's *live* position when it runs, so a plan races safely with
concurrent updates: an object that moved (or was deleted) after planning is
re-routed to wherever it now belongs — or not at all — never to a stale
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point
from repro.api.schema import default, read
from repro.shard.control import EvidenceGate, MaintenanceController, ShardLoadMonitor
from repro.shard.partitioner import (
    BoundaryPartitioner,
    QuantileGridPartitioner,
    near_square_factoring,
)

if TYPE_CHECKING:  # runtime-import free: shard.index imports this module
    from repro.shard.index import ShardedIndex


@dataclass(kw_only=True)
class RebalancePolicy(EvidenceGate):
    """The evidence gate plus the load-skew trigger of the rebalancer.

    ``threshold``: rebalance when the max/mean per-shard window load
    exceeds this factor (the ``shard_scaling`` hotspot runs reach ~4x on a
    4-shard grid).
    """

    section = "rebalance"

    threshold: float = default("rebalance", "threshold")

    def should_trigger(self, window: ShardLoadMonitor, rebalances: int) -> bool:
        """Evidence and skew check against a rebalancer's *window*."""
        if window.total_operations() < self.evidence_required(rebalances):
            return False
        return window.imbalance() > self.threshold


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
# The controller
# ---------------------------------------------------------------------------


@dataclass
class RebalancePlan:
    """A planned boundary adjustment: the new partition plus the moves it needs.

    ``buckets`` groups the moves by ``(source shard, source leaf)`` — the
    unit :meth:`~repro.shard.index.ShardedIndex.migrate_leaf_group` moves
    in bulk.  Every move has a leaf: ``validate()`` holds each shard's
    position table equal to its hash index.
    """

    partitioner: BoundaryPartitioner
    moves: List[int]
    buckets: List[Tuple[int, int, List[int]]]


@dataclass
class RebalanceReport:
    """Outcome of one :meth:`ShardedIndex.rebalance` call."""

    triggered: bool
    imbalance_before: float = 1.0
    imbalance_after: float = 1.0
    moves: int = 0

    def describe(self) -> str:
        if not self.triggered:
            return "rebalance: not triggered"
        return (
            f"rebalance: moves={self.moves} "
            f"imbalance {self.imbalance_before:.2f} -> {self.imbalance_after:.2f}"
        )


class ShardRebalancer(MaintenanceController[RebalancePolicy]):
    """Feedback loop: watch shard load, re-cut boundaries, migrate objects.

    Once attached, the auto-trigger hooks — the engine's maintenance
    interleave for live sessions, the batch epilogue for serial batches —
    consult :meth:`should_rebalance` and execute :meth:`plan`: scheduled on
    the maintenance queue under a session, directly otherwise.
    ``rebalances`` counts completed boundary changes and survives
    checkpoints.
    """

    section = "rebalance"
    gate = RebalancePolicy
    state_keys = ("rebalances",)

    def __init__(
        self,
        num_shards: int,
        policy: Optional[RebalancePolicy] = None,
        rebalances: int = 0,
    ) -> None:
        super().__init__(num_shards, policy or RebalancePolicy())
        read(self.section, {"rebalances": rebalances})
        self.rebalances = rebalances

    def restart(self, shards: Sequence[Any]) -> None:
        """Open the window at the current counts and physical I/O."""
        self.monitor.sample_io(shards)
        super().restart(shards)

    # -- trigger ---------------------------------------------------------
    def should_rebalance(self, sharded: "ShardedIndex") -> bool:
        """Sample I/O and evaluate the policy against the window.

        The cheap operation-count gate runs first: this method is polled
        before every engine operation draw, and the per-shard I/O sampling
        is only worth paying once enough evidence has accumulated for a
        trigger to be possible at all.
        """
        if sharded.num_shards <= 1:
            return False
        recorded = self.monitor.total_operations() - self._mark.total_operations()
        if recorded < self.policy.evidence_required(self.rebalances):
            return False
        self.monitor.sample_io(sharded.shards)
        return self.policy.should_trigger(self.window(), self.rebalances)

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
        loads = self.window().loads()
        populations = sharded.shard_populations()
        weights = [
            loads[shard_id] / populations[shard_id] if populations[shard_id] else 0.0
            for shard_id in range(sharded.num_shards)
        ]
        if not any(weights):
            if not force:
                return None
            weights = [1.0] * sharded.num_shards
        records: List[Tuple[int, Point, int]] = sorted(
            (
                (oid, position, shard_id)
                for shard_id, shard in enumerate(sharded.shards)
                for oid, position in shard._positions.items()
            ),
            key=lambda record: record[0],
        )
        partitioner = plan_boundaries(
            [(position, weights[shard_id]) for _oid, position, shard_id in records],
            sharded.num_shards,
        )
        moves: List[int] = []
        by_shard: Dict[int, List[int]] = {}
        for oid, position, shard_id in records:
            if partitioner.shard_of(position) == shard_id:
                continue
            moves.append(oid)
            by_shard.setdefault(shard_id, []).append(oid)
        if not moves:
            return None
        # Resolve leaf ownership in one batched (uncharged) lookup per shard
        # rather than one hash probe per object — under the process backend
        # each shard's batch is a single worker round-trip.
        grouped: Dict[Tuple[int, int], List[int]] = {}
        for shard_id, oids in by_shard.items():
            pages = sharded.leaf_pages_of(shard_id, oids)
            for oid, leaf_page in zip(oids, pages):
                assert leaf_page is not None, f"object {oid} is not indexed"
                grouped.setdefault((shard_id, leaf_page), []).append(oid)
        return RebalancePlan(
            partitioner=partitioner,
            moves=moves,
            buckets=[
                (shard_id, leaf_page, members)
                for (shard_id, leaf_page), members in sorted(grouped.items())
            ],
        )

    # -- bookkeeping -----------------------------------------------------
    def committed(self, sharded: "ShardedIndex") -> None:
        """Record a completed boundary change and restart the evidence window."""
        self.rebalances += 1
        self.restart(sharded.shards)


__all__ = [
    "RebalancePlan",
    "RebalancePolicy",
    "RebalanceReport",
    "ShardRebalancer",
    "plan_boundaries",
]
