"""Concurrency control and the online operation engine.

Section 3.2.2 of the paper argues that bottom-up updates fit naturally into
Dynamic Granular Locking (DGL, Chakrabarti & Mehrotra): the lockable granules
are the leaf-level MBRs (plus external granules for space not covered by any
leaf), top-down operations acquire locks on every overlapping granule, and a
bottom-up update acquires the locks of the leaves it touches, so the two
interleave consistently.  Section 5.4 measures throughput with 50 concurrent
clients and varying update/query mixes (Figure 8).

This package provides:

* :mod:`repro.concurrency.locks` — a generic multi-granularity lock manager
  (S / X / IS / IX modes);
* :mod:`repro.concurrency.dgl` — the DGL protocol layer: granule identities
  (leaf pages, the external granule, the coarse tree granule), the
  ``(granule, mode)`` request pair the strategies' ``lock_scope()`` hooks
  predict and the lock manager takes, and the helpers that merge and
  namespace request sets;
* :mod:`repro.concurrency.scheduler` — the deterministic logical-clock
  scheduler of N virtual clients (real OS threads would be serialised by
  the Python interpreter's global lock and distort the measurement) and
  its one unit of work, :class:`VirtualOperation`: a ``kind`` label, a
  lock-scope callable and a work callable;
* :mod:`repro.concurrency.engine` — the online operation engine: live
  operations predict their lock scope through the strategies'
  ``lock_scope()`` hooks, execute for real under the scheduler, and block
  on conflict; shared by single operations, conflict-aware batch group
  scheduling, multi-client session streams and the Figure 8 throughput
  runner of :mod:`repro.bench.figures`.  Batch buckets, migrations and
  rebalance moves are :class:`VirtualOperation` values the facade builds.
"""

from repro.concurrency.dgl import (
    EXTERNAL_GRANULE,
    TREE_GRANULE,
    GranuleLockRequest,
    merge_requests,
    namespace_pairs,
)
from repro.concurrency.engine import (
    BatchScheduleResult,
    ConcurrentSession,
    OnlineOperationEngine,
    PreparedBatch,
)
from repro.concurrency.locks import LockManager, LockMode
from repro.concurrency.scheduler import (
    ClientReport,
    OperationScheduler,
    ScheduleResult,
    VirtualOperation,
)

__all__ = [
    "LockManager",
    "LockMode",
    "GranuleLockRequest",
    "merge_requests",
    "EXTERNAL_GRANULE",
    "TREE_GRANULE",
    "OperationScheduler",
    "ScheduleResult",
    "ClientReport",
    "VirtualOperation",
    "OnlineOperationEngine",
    "ConcurrentSession",
    "BatchScheduleResult",
    "PreparedBatch",
    "namespace_pairs",
]
