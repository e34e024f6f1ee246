"""I/O accounting.

The experiments in the paper report *average disk I/O per operation*; this
module provides the counters all other components write into.  A single
:class:`IOStatistics` instance is shared by the disk manager, the buffer
pool, the secondary hash index and the update strategy (which counts each
update's class in :attr:`IOStatistics.extra`) so that one object tells the
whole story of an experiment run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Tuple


@dataclass
class IOStatistics:
    """Mutable set of I/O counters.

    Attributes
    ----------
    physical_reads / physical_writes:
        Page transfers that actually hit the simulated disk.  These are the
        numbers the paper's "Avg Disk I/O" axes report.
    logical_reads / logical_writes:
        Page requests issued by the index code, regardless of whether the
        buffer pool absorbed them.
    buffer_hits:
        Logical reads satisfied from the buffer pool.
    dirty_evictions:
        Dirty pages written back to disk because they were evicted (these are
        also counted in ``physical_writes``).
    hash_index_reads:
        Probes of the secondary object-ID index that were charged as disk
        reads (the paper's cost model charges one I/O per probe).
    over_capacity_peak:
        High-water mark of frames a buffer pool has held *beyond* its
        configured capacity.  Nonzero only when every frame was pinned at
        admission time (the pool runs over rather than deadlock); the pool
        shrinks back as pins release.  Aggregations (:meth:`merge`) take
        the maximum — a peak is a level, not a flow.
    """

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    logical_writes: int = 0
    buffer_hits: int = 0
    dirty_evictions: int = 0
    hash_index_reads: int = 0
    over_capacity_peak: int = 0
    # Labelled counters beside the page counters: the update strategies count
    # each update's class here (``UpdateOutcome`` values), so the classes
    # snapshot, delta, merge, reset and travel with the page counters.
    extra: Dict[str, int] = field(default_factory=dict)

    # -- derived metrics ---------------------------------------------------
    @property
    def total_physical_io(self) -> int:
        """Physical reads + physical writes + charged hash-index probes."""
        return self.physical_reads + self.physical_writes + self.hash_index_reads

    @property
    def hit_ratio(self) -> float:
        """Buffer hit ratio over logical reads (0.0 when nothing was read)."""
        if self.logical_reads == 0:
            return 0.0
        return self.buffer_hits / self.logical_reads

    def total(self) -> int:
        """Alias of :attr:`total_physical_io` as a callable convenience."""
        return self.total_physical_io

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "IOStatistics") -> "IOStatistics":
        """Add *other*'s counters into this instance in place; returns ``self``.

        This is how cross-shard counters aggregate: a sharded index merges
        its shards' snapshots into one set of counters.
        """
        mine, theirs = self.__dict__, other.__dict__
        for name in _FLOWS:
            mine[name] += theirs[name]
        self.over_capacity_peak = max(self.over_capacity_peak, other.over_capacity_peak)
        extra = self.extra
        for key, value in other.extra.items():
            extra[key] = extra.get(key, 0) + value
        return self

    def __add__(self, other: "IOStatistics") -> "IOStatistics":
        """A new instance holding the element-wise sum of two counter sets."""
        if not isinstance(other, IOStatistics):
            return NotImplemented
        return self.snapshot().merge(other)

    @classmethod
    def sum(cls, parts: "Iterable[IOStatistics]") -> "IOStatistics":
        """Merge an iterable of counter sets into one fresh instance."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined

    # -- bookkeeping ---------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the labelled counter *name* in :attr:`extra`."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def snapshot(self) -> "IOStatistics":
        """Return an independent copy of the current counter values."""
        copy = IOStatistics.__new__(IOStatistics)
        copy.assign(self)
        return copy

    def assign(self, source: "IOStatistics") -> None:
        """Overwrite every counter in place with *source*'s values.

        The disk manager, buffer pool, hash index and update strategy of a
        shard all hold its counters by reference, so counters synced from
        elsewhere (a worker's reply, a handover) are assigned, not swapped.
        """
        self.__dict__.update(source.__dict__)
        self.extra = dict(source.extra)

    def delta_since(self, earlier: "IOStatistics") -> "IOStatistics":
        """The counters moved since an *earlier* snapshot (unmoved labels left out)."""
        delta = IOStatistics.__new__(IOStatistics)
        mine, theirs, into = self.__dict__, earlier.__dict__, delta.__dict__
        for name in _FLOWS:
            into[name] = mine[name] - theirs[name]
        # A peak is a level, not a flow: the delta reports how far the
        # high-water mark rose over the interval (never negative).
        delta.over_capacity_peak = max(
            0, self.over_capacity_peak - earlier.over_capacity_peak
        )
        now, then = self.extra, earlier.extra
        delta.extra = {
            key: moved
            for key in {**now, **then}
            if (moved := now.get(key, 0) - then.get(key, 0))
        }
        return delta

    def reset(self) -> None:
        """Zero every counter in place, the labelled ones included."""
        self.assign(IOStatistics())

    def as_dict(self) -> Dict[str, int]:
        """The page counters and their total, without the labelled counters."""
        result = {name: value for name, value in self.__dict__.items() if name != "extra"}
        result["total_physical_io"] = self.total_physical_io
        return result


#: The counters that accumulate: every field but the level ``over_capacity_peak``
#: (merged by maximum) and the labelled ``extra``.
_FLOWS: Tuple[str, ...] = tuple(
    spec.name
    for spec in fields(IOStatistics)
    if spec.name not in ("over_capacity_peak", "extra")
)
