"""Sharded index layer: spatial partition routing over independent shards.

The paper's bottom-up strategies win because most moving-object updates are
local; the same locality argument says a fleet of objects partitions cleanly
across **spatial shards**.  This package provides:

* :mod:`repro.shard.partitioner` — the spatial partitioners: a uniform
  :class:`GridPartitioner` and the pluggable-boundary
  :class:`BoundaryPartitioner`, both serialisable to plain-dict specs;
* :mod:`repro.shard.index` — :class:`ShardedIndex`, the one
  :class:`~repro.core.protocol.SpatialIndexFacade` (a single index is its
  one-shard case), which routes every operation to one of N independent
  :class:`~repro.core.index.MovingObjectIndex` shards, migrates objects
  across shard boundaries, fans queries out to only the intersecting
  shards, and composes per-shard DGL lock scopes under the online
  concurrent operation engine;
* :mod:`repro.shard.control` — what both feedback loops share: the one
  per-shard :class:`ShardLoadMonitor` an index feeds while any controller
  is attached, the :class:`EvidenceGate` (``min_ops``/``cooldown``) each
  controller's window must pass before it acts, and the
  :class:`MaintenanceController` base with the spec codec of the
  ``rebalance`` and ``adaptive`` sections;
* :mod:`repro.shard.rebalance` — the online :class:`ShardRebalancer`: an
  imbalance trigger on the gate, a weighted boundary-adjustment planner,
  and conflict-scheduled migration batches that re-cut the partition under
  hotspot drift;
* :mod:`repro.shard.adaptive` — the cost-model-driven
  :class:`AdaptiveStrategyController`: reads each shard's update/query
  mix and movement distances from the monitor and its buffer hit ratio,
  ranks the four update strategies with the Section 4 cost models and
  hot-swaps any shard whose workload favours a different one;
* :mod:`repro.shard.parallel` — the shard executors every shard-local step
  goes through as a picklable command: in-process (``serial``) or
  long-lived worker processes (``process``) — one interpreter, so identical
  answers and I/O counters.
"""

from repro.shard.adaptive import (
    AdaptiveStrategyController,
    StrategyDecision,
    strategy_costs,
)
from repro.shard.control import (
    EvidenceGate,
    MaintenanceController,
    ShardLoadMonitor,
    UpdateQueryMix,
)
from repro.shard.index import MigrationOperation, ShardedIndex
from repro.shard.parallel import (
    BACKENDS,
    ProcessBackend,
    ShardBackend,
    make_backend,
)
from repro.shard.partitioner import (
    BoundaryPartitioner,
    GridPartitioner,
    Partitioner,
    QuantileGridPartitioner,
    near_square_factoring,
    partitioner_from_spec,
)
from repro.shard.rebalance import (
    RebalanceGroupMigration,
    RebalanceMigration,
    RebalancePlan,
    RebalancePolicy,
    RebalanceReport,
    ShardRebalancer,
    plan_boundaries,
)

__all__ = [
    "AdaptiveStrategyController",
    "StrategyDecision",
    "strategy_costs",
    "EvidenceGate",
    "MaintenanceController",
    "ShardLoadMonitor",
    "UpdateQueryMix",
    "ShardedIndex",
    "MigrationOperation",
    "BACKENDS",
    "ShardBackend",
    "ProcessBackend",
    "make_backend",
    "Partitioner",
    "GridPartitioner",
    "BoundaryPartitioner",
    "QuantileGridPartitioner",
    "near_square_factoring",
    "partitioner_from_spec",
    "RebalanceGroupMigration",
    "RebalanceMigration",
    "RebalancePlan",
    "RebalancePolicy",
    "RebalanceReport",
    "ShardRebalancer",
    "plan_boundaries",
]
