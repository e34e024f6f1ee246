"""Cost-model-driven per-shard update-strategy selection.

The paper's Section 4 cost formulas say *when* each update strategy should
win; a live sharded index can act on them.  This module closes that loop the
same way :mod:`repro.shard.rebalance` closes the load-skew loop, on the same
observation and gating layer (:mod:`repro.shard.control`):

* the index's one :class:`~repro.shard.control.ShardLoadMonitor` counts
  every routed operation and in-shard move per shard; the controller's
  window on it gives each shard's update/query mix and mean move distance;
* the shared :class:`~repro.shard.control.EvidenceGate` holds a shard back
  until its window has ``min_ops`` operations before its first switch and
  ``cooldown`` operations between later ones;
* :class:`AdaptiveStrategyController` evaluates the Section 4 models —
  :class:`~repro.cost.model.TopDownCostModel` and
  :class:`~repro.cost.model.BottomUpCostModel` against the live
  :class:`~repro.cost.model.TreeShape` of each shard — weighted by that
  shard's observed mix, and proposes the cost-minimising strategy; the
  sharded index executes the proposal through
  :meth:`~repro.shard.index.ShardedIndex.set_strategy` (a hot swap, no
  rebuild).

The models give expected **node accesses**; what a deployment pays is
**disk transfers**.  The controller bridges the two with each shard's
observed buffer hit ratio: tree-page accesses are discounted by the hit
ratio, while the secondary-index probe every bottom-up update issues is
charged in full (the paper's Section 4.2 accounting — a hash probe is a
disk read the buffer pool never absorbs).  This is exactly the trade-off
the calibration benchmark measures: a shard whose working set is hot in
the buffer favours top-down (its descents are nearly free, the probes are
not), while a buffer-thrashing query-heavy shard favours GBU (the summary
answers window queries from leaf accesses alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.cost.model import (
    BottomUpCostModel,
    TopDownCostModel,
    TreeShape,
    expected_query_node_accesses,
    window_overlap_probability,
)
from repro.api.schema import SPEC_KEYS, read
from repro.shard.control import EvidenceGate, MaintenanceController, UpdateQueryMix

if TYPE_CHECKING:  # runtime-import free: shard.index imports this module
    from repro.shard.index import ShardedIndex

#: Query window edge assumed by the selection rule when ranking strategies
#: (the paper's experiments use windows of about 1 % of the unit square).
DEFAULT_QUERY_EXTENT = 0.1

#: Movement distance assumed before a shard has reported any moves.
DEFAULT_MOVE_DISTANCE = 0.05

#: The candidate strategies, in the factory's canonical order (ties in the
#: cost ranking resolve towards the front, after preferring the incumbent).
CANDIDATE_STRATEGIES: Tuple[str, ...] = SPEC_KEYS["config"]["strategy"].choices


def leaf_level_query_accesses(
    shape: TreeShape, query_width: float, query_height: float
) -> float:
    """Theorem 1 restricted to the leaf level.

    A summary-guided window query (GBU with ``use_summary_for_queries``)
    prunes internal levels in main memory and reads only the qualifying
    leaves, so its expected node accesses are the leaf terms of the
    Theorem 1 sum.
    """
    if not shape.node_extents:
        return 0.0
    return sum(
        window_overlap_probability(width, height, query_width, query_height)
        for width, height in shape.node_extents[0]
    )


def strategy_costs(
    shape: TreeShape,
    mix: UpdateQueryMix,
    *,
    miss_ratio: float,
    distance: float,
    query_extent: float = DEFAULT_QUERY_EXTENT,
    use_summary_for_queries: bool = True,
    epsilon: float = 0.003,
) -> Dict[str, float]:
    """Expected disk transfers of the observed mix under each strategy.

    Per-operation costs come from the Section 4 models; tree-page accesses
    are scaled by *miss_ratio* (the shard's observed buffer miss fraction),
    while bottom-up hash probes are charged in full — the probe bypasses the
    buffer pool.  The returned mapping has
    one non-negative total per candidate strategy.
    """
    miss = max(0.0, min(1.0, miss_ratio))
    probe = 1.0  # one unbuffered hash probe per bottom-up update

    query_plain = expected_query_node_accesses(shape, query_extent, query_extent)
    query_summary = leaf_level_query_accesses(shape, query_extent, query_extent)

    top_down = TopDownCostModel(shape)
    update_td = top_down.update_cost()

    # The bottom-up constants fold the hash probe into COST_IN_PLACE (probe +
    # leaf read + leaf write); peel it off so it can be charged unbuffered.
    localized = BottomUpCostModel(
        shape, epsilon=epsilon, use_direct_access_table=False
    )
    generalized = BottomUpCostModel(
        shape, epsilon=epsilon, use_direct_access_table=True
    )
    update_lbu_tree = max(0.0, localized.update_cost(distance) - 1.0)
    update_gbu_tree = max(0.0, generalized.update_cost(distance) - 1.0)

    # NAIVE (Section 3.1 strawman): probe + leaf read, update in place when
    # the leaf MBR still covers the new position, otherwise fall back to a
    # full top-down update with the probe and read wasted.
    p_in_place = generalized.probability_within_leaf(distance)
    update_naive_tree = 1.0 + p_in_place * 1.0 + (1.0 - p_in_place) * update_td

    per_update = {
        "TD": update_td * miss,
        "NAIVE": probe + update_naive_tree * miss,
        "LBU": probe + update_lbu_tree * miss,
        "GBU": probe + update_gbu_tree * miss,
    }
    per_query = {
        "TD": query_plain * miss,
        "NAIVE": query_plain * miss,
        "LBU": query_plain * miss,
        "GBU": (query_summary if use_summary_for_queries else query_plain) * miss,
    }
    return {
        name: mix.updates * per_update[name] + mix.queries * per_query[name]
        for name in CANDIDATE_STRATEGIES
    }


@dataclass(frozen=True)
class StrategyDecision:
    """One shard's proposed strategy switch, with the ranking that chose it."""

    shard_id: int
    strategy: str
    current: str
    costs: Dict[str, float] = field(compare=False)


class AdaptiveStrategyController(MaintenanceController[EvidenceGate]):
    """Feedback loop: observe each shard's mix, switch it to the cheapest strategy.

    Once attached, the auto-trigger hooks — the engine's maintenance
    interleave for live sessions, the batch epilogue for serial batches —
    call :meth:`~repro.shard.index.ShardedIndex.auto_adapt`, which executes
    the :meth:`decide` proposals as hot swaps.  Each shard has its own
    evidence window, restarted by its switch.  ``switches`` counts
    completed switches across all shards and ``shard_switches`` per shard;
    both survive checkpoints.
    """

    section = "adaptive"
    state_keys = ("switches", "shard_switches")

    def __init__(
        self,
        num_shards: int,
        policy: Optional[EvidenceGate] = None,
        switches: int = 0,
        shard_switches: Optional[List[int]] = None,
    ) -> None:
        super().__init__(num_shards, policy or EvidenceGate())
        read(self.section, {"switches": switches, "shard_switches": shard_switches})
        if shard_switches is None:
            shard_switches = [0] * num_shards
        if len(shard_switches) != num_shards:
            raise ValueError(
                f"shard_switches must hold {num_shards} counts, got {shard_switches!r}"
            )
        self.switches = switches
        self.shard_switches = list(shard_switches)

    # -- observation -----------------------------------------------------
    def evidence_required(self, shard_id: int) -> int:
        """Operations the shard's window needs before a switch is considered."""
        return self.policy.evidence_required(self.shard_switches[shard_id])

    def observed_distance(self, shard_id: int) -> float:
        """Mean movement distance in the shard's window (default when idle)."""
        window = self.window()
        if window.moves[shard_id] == 0:
            return DEFAULT_MOVE_DISTANCE
        return window.move_distance[shard_id] / window.moves[shard_id]

    @staticmethod
    def miss_ratio(shard: Any) -> float:
        """The shard's observed buffer miss fraction (1.0 before any reads)."""
        stats = shard.stats
        logical = stats.logical_reads
        if logical <= 0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - stats.buffer_hits / logical))

    # -- selection -------------------------------------------------------
    def decide(self, sharded: "ShardedIndex") -> List[StrategyDecision]:
        """Rank the candidates per shard; propose every beneficial switch.

        A shard is ranked only once its window holds
        :meth:`evidence_required` operations, so the tree-shape measurement
        is paid only where a switch is possible.  The incumbent strategy
        wins ties, so an idle ranking never churns.
        """
        decisions: List[StrategyDecision] = []
        mixes = self.window().update_query_mix()
        for shard_id, shard in enumerate(sharded.shards):
            mix = mixes[shard_id]
            if mix.total < self.evidence_required(shard_id):
                continue
            shape = sharded.tree_shape(shard_id)
            if not shape.node_extents or not shape.node_extents[0]:
                continue  # empty shard: nothing to rank
            costs = strategy_costs(
                shape,
                mix,
                miss_ratio=self.miss_ratio(shard),
                distance=self.observed_distance(shard_id),
                use_summary_for_queries=shard.config.use_summary_for_queries,
                epsilon=shard.config.params.epsilon,
            )
            current = str(shard.active_strategy)
            winner = min(
                CANDIDATE_STRATEGIES,
                key=lambda name: (costs[name], name != current),
            )
            if winner != current:
                decisions.append(
                    StrategyDecision(
                        shard_id=shard_id,
                        strategy=winner,
                        current=current,
                        costs=costs,
                    )
                )
        return decisions

    # -- bookkeeping -----------------------------------------------------
    def committed(self, shard_id: int) -> None:
        """Record a completed switch and restart that shard's evidence window."""
        self.switches += 1
        self.shard_switches[shard_id] += 1
        self._mark.copy_shard(self.monitor, shard_id)

    def describe(self, sharded: "ShardedIndex") -> str:
        return f" strategies={sharded.active_strategies()}" + super().describe(sharded)


__all__ = [
    "AdaptiveStrategyController",
    "CANDIDATE_STRATEGIES",
    "DEFAULT_MOVE_DISTANCE",
    "DEFAULT_QUERY_EXTENT",
    "StrategyDecision",
    "leaf_level_query_accesses",
    "strategy_costs",
]
