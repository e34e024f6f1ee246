"""I/O accounting.

The experiments in the paper report *average disk I/O per operation*; this
module provides the counters all other components write into.  A single
:class:`IOStatistics` instance is shared by the disk manager, the buffer
pool, and the secondary hash index so that one object tells the whole story
of an experiment run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable


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
    # Optional labelled counters for ad-hoc instrumentation (e.g. per update
    # kind).  Not part of the core metrics but handy in tests and ablations.
    extra: Dict[str, int] = field(default_factory=dict)

    # -- derived metrics ---------------------------------------------------
    @property
    def total_physical_io(self) -> int:
        """Physical reads + physical writes + charged hash-index probes."""
        return self.physical_reads + self.physical_writes + self.hash_index_reads

    @property
    def total_logical_io(self) -> int:
        return self.logical_reads + self.logical_writes

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
        its shards' snapshots into one set of counters instead of summing
        each field by hand.
        """
        self.physical_reads += other.physical_reads
        self.physical_writes += other.physical_writes
        self.logical_reads += other.logical_reads
        self.logical_writes += other.logical_writes
        self.buffer_hits += other.buffer_hits
        self.dirty_evictions += other.dirty_evictions
        self.hash_index_reads += other.hash_index_reads
        self.over_capacity_peak = max(self.over_capacity_peak, other.over_capacity_peak)
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value
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
        copy = IOStatistics(
            physical_reads=self.physical_reads,
            physical_writes=self.physical_writes,
            logical_reads=self.logical_reads,
            logical_writes=self.logical_writes,
            buffer_hits=self.buffer_hits,
            dirty_evictions=self.dirty_evictions,
            hash_index_reads=self.hash_index_reads,
            over_capacity_peak=self.over_capacity_peak,
        )
        copy.extra = dict(self.extra)
        return copy

    def delta_since(self, earlier: "IOStatistics") -> "IOStatistics":
        """Return the difference between this snapshot and an *earlier* one."""
        delta = IOStatistics(
            physical_reads=self.physical_reads - earlier.physical_reads,
            physical_writes=self.physical_writes - earlier.physical_writes,
            logical_reads=self.logical_reads - earlier.logical_reads,
            logical_writes=self.logical_writes - earlier.logical_writes,
            buffer_hits=self.buffer_hits - earlier.buffer_hits,
            dirty_evictions=self.dirty_evictions - earlier.dirty_evictions,
            hash_index_reads=self.hash_index_reads - earlier.hash_index_reads,
            # A peak is a level, not a flow: the delta reports how far the
            # high-water mark rose over the interval (never negative).
            over_capacity_peak=max(
                0, self.over_capacity_peak - earlier.over_capacity_peak
            ),
        )
        keys = set(self.extra) | set(earlier.extra)
        delta.extra = {
            key: self.extra.get(key, 0) - earlier.extra.get(key, 0) for key in keys
        }
        return delta

    def reset(self) -> None:
        """Zero every counter in place."""
        self.physical_reads = 0
        self.physical_writes = 0
        self.logical_reads = 0
        self.logical_writes = 0
        self.buffer_hits = 0
        self.dirty_evictions = 0
        self.hash_index_reads = 0
        self.over_capacity_peak = 0
        self.extra.clear()

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary view used by the benchmark reporting layer."""
        result = {
            "physical_reads": self.physical_reads,
            "physical_writes": self.physical_writes,
            "logical_reads": self.logical_reads,
            "logical_writes": self.logical_writes,
            "buffer_hits": self.buffer_hits,
            "dirty_evictions": self.dirty_evictions,
            "hash_index_reads": self.hash_index_reads,
            "over_capacity_peak": self.over_capacity_peak,
            "total_physical_io": self.total_physical_io,
        }
        result.update(self.extra)
        return result
