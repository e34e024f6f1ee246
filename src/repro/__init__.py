"""repro — reproduction of "Supporting Frequent Updates in R-Trees: A Bottom-Up
Approach" (Lee, Hsu, Jensen, Cui, Teo; VLDB 2003).

The package provides a complete, pure-Python implementation of the paper's
system stack:

* :mod:`repro.geometry` — points and MBRs;
* :mod:`repro.storage` — simulated paged disk, LRU buffer pool, I/O counters;
* :mod:`repro.rtree` — the disk-based R-tree (splits, reinsertion, queries,
  bulk loading, validation);
* :mod:`repro.secondary` — the secondary object-ID hash index;
* :mod:`repro.summary` — the main-memory summary structure (direct access
  table + leaf bit vector) and summary-assisted queries;
* :mod:`repro.update` — the update strategies: top-down (TD), naive
  bottom-up, localized bottom-up (LBU, Algorithm 1) and generalized
  bottom-up (GBU, Algorithm 2);
* :mod:`repro.workload` — GSTD-style moving-object workload generation;
* :mod:`repro.concurrency` — Dynamic Granular Locking and the online
  concurrent operation engine (deterministic multi-client scheduling);
* :mod:`repro.shard` — the sharded index layer: spatial partition routing
  over N independent shards, cross-shard migration, fan-out queries, and
  per-shard lock namespaces under the engine;
* :mod:`repro.cost` — the analytical cost model of Section 4;
* :mod:`repro.bench` — the experiment harness reproducing every figure;
* :mod:`repro.core` — the :class:`~repro.core.index.MovingObjectIndex`
  facade tying everything together;
* :mod:`repro.api` — the typed public surface (API v2): first-class
  :class:`~repro.api.operations.Operation` dataclasses, the structured
  error taxonomy, streaming :class:`~repro.api.results.QueryCursor`\\ s,
  and the declarative :func:`~repro.api.builder.open_index` entry point.

Quick start::

    import repro
    from repro import Point, Rect
    from repro.api import RangeQuery, Update

    index = repro.open_index({"config": {"strategy": "GBU"}})
    index.load([(0, Point(0.1, 0.1)), (1, Point(0.2, 0.8))])
    index.execute(Update(0, Point(0.12, 0.11)))
    print(index.execute(RangeQuery(Rect(0.0, 0.0, 0.5, 0.5))).cursor().all())
"""

from repro.api import index_spec, open_index
from repro.core import IndexConfig, MovingObjectIndex, SpatialIndexFacade
from repro.geometry import Point, Rect
from repro.shard import GridPartitioner, ShardedIndex
from repro.update import TuningParameters, UpdateOutcome

__version__ = "2.0.0"

__all__ = [
    "IndexConfig",
    "MovingObjectIndex",
    "SpatialIndexFacade",
    "ShardedIndex",
    "GridPartitioner",
    "Point",
    "Rect",
    "TuningParameters",
    "UpdateOutcome",
    "open_index",
    "index_spec",
    "__version__",
]
