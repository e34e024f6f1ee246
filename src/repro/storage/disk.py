"""Simulated paged disk.

The paper's implementation stores R-tree nodes on fixed-size disk pages
(1 KB in the experiments) and reports the number of pages read and written.
:class:`DiskManager` recreates that storage layer in memory: it allocates
page identifiers, stores one Python object per page, and counts every
physical access in a shared :class:`~repro.storage.stats.IOStatistics`.

The disk never caches — caching is the buffer pool's job — so "one call to
:meth:`DiskManager.read_page`" is exactly "one physical read" in the metrics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.storage.stats import IOStatistics


class PageNotFoundError(KeyError):
    """Raised when a page identifier does not exist on the simulated disk."""


class DiskManager:
    """An in-memory page store with physical-I/O accounting.

    Parameters
    ----------
    page_size:
        Size of a page in bytes.  The disk manager does not serialise the
        stored objects; the page size is carried so that the
        :class:`~repro.storage.sizing.PageLayout` and the reporting layer can
        derive fan-outs and database sizes from it (the paper uses 1024-byte
        pages).
    stats:
        Shared I/O counters.  A fresh instance is created when omitted.
    """

    def __init__(self, page_size: int = 1024, stats: Optional[IOStatistics] = None) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStatistics()
        self._pages: Dict[int, Any] = {}
        self._next_page_id = 0
        self._free_list: List[int] = []

    # -- allocation -------------------------------------------------------
    def allocate_page(self) -> int:
        """Reserve and return a new page identifier.

        Identifiers from deallocated pages are recycled first, mirroring a
        free-space map, so long update runs do not grow the address space
        without bound.
        """
        if self._free_list:
            page_id = self._free_list.pop()
        else:
            page_id = self._next_page_id
            self._next_page_id += 1
        self._pages[page_id] = None
        return page_id

    def deallocate_page(self, page_id: int) -> None:
        """Release *page_id* back to the free list."""
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        del self._pages[page_id]
        self._free_list.append(page_id)

    # -- physical access ----------------------------------------------------
    def read_page(self, page_id: int) -> Any:
        """Read the object stored on *page_id* (counted as one physical read)."""
        try:
            payload = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        self.stats.physical_reads += 1
        return payload

    def write_page(self, page_id: int, payload: Any) -> None:
        """Write *payload* to *page_id* (counted as one physical write)."""
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        self.stats.physical_writes += 1
        self._pages[page_id] = payload

    # -- inspection (not counted as I/O) --------------------------------------
    def peek(self, page_id: int) -> Any:
        """Return the stored object without counting I/O.

        Only test code and structural validators use this; index algorithms
        must go through the buffer pool.
        """
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None

    def contains(self, page_id: int) -> bool:
        return page_id in self._pages

    def __contains__(self, page_id: int) -> bool:
        return self.contains(page_id)

    def __len__(self) -> int:
        """Number of allocated pages (the database size in pages)."""
        return len(self._pages)

    def page_ids(self) -> Iterator[int]:
        """Iterate over all allocated page identifiers (no I/O charged)."""
        return iter(list(self._pages.keys()))
