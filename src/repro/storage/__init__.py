"""Paged-storage substrate.

The paper measures update and query cost in **disk I/Os** on a paged store
with an LRU buffer pool sized as a percentage of the database size.  This
package recreates that substrate:

* :class:`~repro.storage.stats.IOStatistics` — counters for logical and
  physical reads/writes, buffer hits and dirty evictions.
* :class:`~repro.storage.disk.DiskManager` — an in-memory simulated disk of
  fixed-size pages.  Every physical access is counted.
* :class:`~repro.storage.buffer.BufferPool` — an LRU buffer pool in front of
  the disk manager.  All R-tree node accesses go through the pool so that the
  physical-I/O counters reflect exactly what the paper measures.
* :class:`~repro.storage.sizing.PageLayout` — translates a page size (the
  paper uses 1 KB pages) into node fan-out for leaf and internal nodes.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, PageNotFoundError
from repro.storage.sizing import PageLayout
from repro.storage.stats import IOStatistics

__all__ = [
    "BufferPool",
    "DiskManager",
    "PageNotFoundError",
    "PageLayout",
    "IOStatistics",
]
