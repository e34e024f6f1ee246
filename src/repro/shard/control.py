"""The observation and gating layer both shard feedback loops share.

The online rebalancer (:mod:`repro.shard.rebalance`) and the adaptive
strategy controller (:mod:`repro.shard.adaptive`) have one loop shape: count
the work each shard does, wait for enough evidence, act, count afresh.  A
:class:`~repro.shard.index.ShardedIndex` with any controller attached feeds
one cumulative :class:`ShardLoadMonitor`; each controller keeps a snapshot
of it as its *mark* and reads its evidence window as the difference (the way
:meth:`IOStatistics.snapshot <repro.storage.stats.IOStatistics.snapshot>`
windows page counters), and one :class:`EvidenceGate` decides when a window
holds enough evidence to act on.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Generic,
    List,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.api.schema import default, read

#: The per-shard counter columns of a :class:`ShardLoadMonitor`.
_COLUMNS = ("updates", "queries", "physical_io", "moves", "move_distance")


@dataclass(frozen=True)
class UpdateQueryMix:
    """One shard's operation mix over an evidence window.

    The adaptive strategy controller weights its cost-model comparison by
    this mix.
    """

    updates: int
    queries: int

    @property
    def total(self) -> int:
        """Recorded operations on the shard (updates + query visits)."""
        return self.updates + self.queries


class ShardLoadMonitor:
    """Per-shard counters: updates, query visits, moves and physical I/O.

    The index's monitor only counts up; a controller's mark
    (:meth:`snapshot`) and window (:meth:`since`) are monitors too.
    :meth:`sample_io` folds in the physical page transfers each shard's
    :class:`~repro.storage.stats.IOStatistics` accumulated since the last
    sample (under the online engine those are the transfers the scheduler
    charges to virtual clients — the same counters, viewed per shard).
    ``load = updates + queries + physical I/O`` per shard, so an I/O-heavy
    shard reads as hot even at moderate operation counts.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.updates: List[int] = [0] * num_shards
        self.queries: List[int] = [0] * num_shards
        self.physical_io: List[int] = [0] * num_shards
        self.moves: List[int] = [0] * num_shards
        self.move_distance: List[float] = [0.0] * num_shards
        self._io_marks: List[int] = [0] * num_shards

    def record_update(self, shard_id: int, count: int = 1) -> None:
        """Count *count* update-side operations (insert/update/delete) on a shard."""
        self.updates[shard_id] += count

    def record_query(self, shard_id: int, count: int = 1) -> None:
        """Count *count* query-side visits (range/kNN fan-out) on a shard."""
        self.queries[shard_id] += count

    def record_move(self, shard_id: int, distance: float) -> None:
        """Count one in-shard object move of *distance*."""
        self.moves[shard_id] += 1
        self.move_distance[shard_id] += distance

    def sample_io(self, shards: Sequence[Any]) -> None:
        """Fold in each shard's physical I/O delta since the last sample."""
        for shard_id, shard in enumerate(shards):
            current = shard.total_physical_io()
            delta = current - self._io_marks[shard_id]
            if delta > 0:
                self.physical_io[shard_id] += delta
            self._io_marks[shard_id] = current

    def exclude_io(self, shard_id: int, amount: int) -> None:
        """Skip *amount* of a shard's physical I/O in the next sample.

        Maintenance work (rebalance migrations, strategy switches) must not
        read as load, or a re-cut's migration burst would refill the window
        the cut just restarted and storm.
        """
        self._io_marks[shard_id] += amount

    # -- windows ---------------------------------------------------------
    def snapshot(self) -> "ShardLoadMonitor":
        """A copy of every counter: a controller's mark."""
        return self.since(ShardLoadMonitor(self.num_shards))

    def since(self, mark: "ShardLoadMonitor") -> "ShardLoadMonitor":
        """The counts accumulated after *mark* was taken."""
        window = ShardLoadMonitor(self.num_shards)
        for name in _COLUMNS:
            now, then = getattr(self, name), getattr(mark, name)
            setattr(window, name, [a - b for a, b in zip(now, then)])
        return window

    def copy_shard(self, source: "ShardLoadMonitor", shard_id: int) -> None:
        """Set one shard's counters to *source*'s (restarts one shard's window)."""
        for name in _COLUMNS:
            getattr(self, name)[shard_id] = getattr(source, name)[shard_id]

    # -- derived views ---------------------------------------------------
    def loads(self) -> List[float]:
        """Combined per-shard load (operations + queries + physical I/O)."""
        return [
            float(self.updates[i] + self.queries[i] + self.physical_io[i])
            for i in range(self.num_shards)
        ]

    def total_operations(self) -> int:
        """Recorded operations (updates + query visits) over all shards."""
        return sum(self.updates) + sum(self.queries)

    def update_query_mix(self) -> List[UpdateQueryMix]:
        """Per-shard update/query mix."""
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


@dataclass(kw_only=True)
class EvidenceGate:
    """How much evidence a controller's window needs before it acts.

    ``min_ops`` recorded operations before the *first* action (a handful of
    early operations is no trend); ``max(min_ops, cooldown)`` between later
    ones, so a fresh partition or strategy gets time to prove itself.
    """

    #: The spec section whose keys give the fields' defaults and rules.
    section: ClassVar[str] = "adaptive"

    cooldown: int = default("adaptive", "cooldown")
    min_ops: int = default("adaptive", "min_ops")

    def __post_init__(self) -> None:
        read(self.section, dataclasses.asdict(self))

    def evidence_required(self, actions: int) -> int:
        """Operations a window needs after *actions* earlier actions."""
        return self.min_ops if actions == 0 else max(self.min_ops, self.cooldown)

    def to_spec(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe): the policy keys of a spec section."""
        return dataclasses.asdict(self)


GateT = TypeVar("GateT", bound=EvidenceGate)
ControllerT = TypeVar("ControllerT", bound="MaintenanceController[Any]")


class MaintenanceController(Generic[GateT]):
    """A gate, a mark on the index's monitor, and a spec section codec.

    Until :meth:`ShardedIndex.attach <repro.shard.index.ShardedIndex.attach>`
    hands it the index's monitor, a controller watches a private one that
    nothing feeds.  The checkpoint form of its section adds the runtime
    counters named by ``state_keys`` to the gate's keys.
    """

    #: The spec section this controller is built from and saved to.
    section: ClassVar[str]
    #: The gate class the section decodes into.
    gate: ClassVar[Type[EvidenceGate]] = EvidenceGate
    #: Runtime counters (attributes) the checkpoint form adds.
    state_keys: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, num_shards: int, policy: GateT) -> None:
        self.policy = policy
        self.monitor = ShardLoadMonitor(num_shards)
        self._mark = self.monitor.snapshot()

    def restart(self, shards: Sequence[Any]) -> None:
        """Open every shard's window at the monitor's current counts."""
        self._mark = self.monitor.snapshot()

    def window(self) -> ShardLoadMonitor:
        """The counts recorded since this controller's mark."""
        return self.monitor.since(self._mark)

    def describe(self, sharded: Any) -> str:
        """This controller's part of the index's one-line description."""
        return "".join(f" {key}={getattr(self, key)}" for key in self.state_keys)

    def to_spec(self) -> Dict[str, Any]:
        """The declarative (policy-only) spec section, JSON-round-trippable."""
        return self.policy.to_spec()

    def state_to_spec(self) -> Dict[str, Any]:
        """Checkpoint form: the policy spec plus the runtime counters."""
        state = {key: copy.copy(getattr(self, key)) for key in self.state_keys}
        return {**self.to_spec(), **state}

    @classmethod
    def from_spec(cls: Type[ControllerT], spec: Any, num_shards: int) -> ControllerT:
        """Rebuild a controller from its spec section or checkpoint form, read
        against :data:`repro.api.schema.SPEC_KEYS`."""
        data = read(cls.section, spec)
        state = {key: data.pop(key) for key in cls.state_keys if key in data}
        return cls(num_shards, cls.gate(**data), **state)


__all__ = [
    "EvidenceGate",
    "MaintenanceController",
    "ShardLoadMonitor",
    "UpdateQueryMix",
]
