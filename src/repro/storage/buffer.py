"""LRU buffer pool.

The paper runs every experiment with a buffer whose capacity is a percentage
of the database size (1 % by default, varied from 0 % to 10 % in the
buffering experiment, Figures 6(g)-(h)).  :class:`BufferPool` implements that
layer: an LRU cache of pages in front of the :class:`~repro.storage.disk.DiskManager`,
with write-back semantics and full hit/miss accounting.

All R-tree node access in this repository goes through a buffer pool, so the
"Avg Disk I/O" metric of the benchmarks is the number of *physical* page
transfers after the buffer has absorbed whatever it can — exactly what the
paper measures.

Frames hold what callers read and write (live R-tree nodes).  With a page
codec — the index always passes one — the disk holds binary page images, and
the codec runs at the pool's **disk boundary** only: one decode per physical
read (and per uncharged peek of a non-resident page), one encode per physical
write.  A buffer hit hands back the resident node itself.  Without a codec
(the generic pool, as the storage tests use it) payloads go to the disk as
they are.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Protocol, Set

from repro.storage.disk import DiskManager
from repro.storage.stats import IOStatistics

#: Sentinel distinguishing "frame absent" from any real payload.
_MISSING = object()


class PageCodec(Protocol):
    """What the pool needs of a page codec (see ``NodeCodec``)."""

    def encode(self, payload: Any) -> bytes: ...

    def decode(self, page_id: int, data: bytes) -> Any: ...


class BufferPool:
    """Write-back LRU buffer pool over a :class:`DiskManager`.

    Parameters
    ----------
    disk:
        The underlying simulated disk.
    capacity:
        Maximum number of pages held in the pool.  A capacity of ``0``
        disables buffering entirely (every access is physical), which is how
        the paper's "0 % buffer" configuration is modelled.
    stats:
        Shared I/O counters; defaults to the disk manager's counters so a
        single :class:`IOStatistics` describes the whole storage stack.
    codec:
        When given, the disk holds ``codec.encode(payload)`` images while
        frames keep holding the payloads themselves: every physical read
        (and every :meth:`peek` of a non-resident page) decodes once, every
        physical write — dirty eviction, :meth:`flush`, unbuffered
        :meth:`write` — encodes once, and buffer hits touch no codec.  A
        dirty frame is encoded when it leaves the pool, so the image is the
        payload's state at that moment.  ``None`` (default) stores the
        payloads on the disk as they are.  The codec never changes which
        pages are touched: every I/O counter is the same either way.
    """

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = 0,
        stats: Optional[IOStatistics] = None,
        codec: Optional[PageCodec] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.disk = disk
        self.capacity = capacity
        self.stats = stats if stats is not None else disk.stats
        self.codec = codec
        # page_id -> payload; insertion order is LRU order (oldest first).
        self._frames: "OrderedDict[int, Any]" = OrderedDict()
        self._dirty: Set[int] = set()
        # page_id -> pin count; pinned pages are exempt from eviction (a leaf
        # bucket of several updates pins its leaf so interleaved reads cannot
        # push it out of the pool mid-bucket).
        self._pins: Dict[int, int] = {}

    # -- sizing helpers -----------------------------------------------------
    @classmethod
    def capacity_for_percentage(
        cls, percent_of_database: float, database_pages: int
    ) -> int:
        """Pool capacity (in pages) for a buffer of *percent_of_database* %.

        This is the paper's buffer sizing rule ("buffer that is 1 % of the
        database size") as a pure computation: the capacity is rounded down,
        and a non-zero percentage on a non-empty database always yields at
        least one page.
        """
        if percent_of_database < 0:
            raise ValueError("percent_of_database must be non-negative")
        capacity = int(database_pages * percent_of_database / 100.0)
        if percent_of_database > 0 and database_pages > 0:
            capacity = max(capacity, 1)
        return capacity

    # -- core API -----------------------------------------------------------
    def read(self, page_id: int) -> Any:
        """Return the payload of *page_id*, reading from disk on a miss."""
        stats = self.stats
        stats.logical_reads += 1
        capacity = self.capacity
        frames = self._frames
        if capacity > 0:
            payload = frames.get(page_id, _MISSING)
            if payload is not _MISSING:
                stats.buffer_hits += 1
                frames.move_to_end(page_id)
                return payload
        codec = self.codec
        payload = self.disk.read_page(page_id)
        if codec is not None and payload is not None:
            payload = codec.decode(page_id, payload)
        pins = self._pins
        if (
            len(frames) != capacity
            or capacity == 0
            or (pins and next(iter(frames)) in pins)
        ):
            self._admit(page_id, payload)
            return payload
        # The steady-state miss, in this frame: the pool is exactly full and
        # its LRU head is not pinned, so the head makes room — the victim
        # _evict_one would pick, pins held elsewhere or not (a leaf bucket
        # pins its leaf, which it has just read: the MRU end).  _admit and
        # _evict_one keep every other case.
        victim_id, victim = frames.popitem(last=False)
        if victim_id in self._dirty:
            self.disk.write_page(
                victim_id, victim if codec is None else codec.encode(victim)
            )
            self._dirty.discard(victim_id)
            stats.dirty_evictions += 1
        frames[page_id] = payload
        return payload

    def write(self, page_id: int, payload: Any) -> None:
        """Write *payload* to *page_id*.

        With buffering enabled the write is absorbed by the pool (write-back)
        and only reaches the disk when the frame is evicted or flushed.
        Without buffering it is an immediate physical write — the paper's
        algorithms phrase this as "write out leaf node".
        """
        self.stats.logical_writes += 1
        if self.capacity == 0:
            self._write_through(page_id, payload)
            return
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self._frames[page_id] = payload
        else:
            self._admit(page_id, payload)
        self._dirty.add(page_id)

    def peek(self, page_id: int) -> Any:
        """Uncharged read: the buffered frame when resident, else the disk copy.

        Under write-back caching the freshest version of a dirty page lives
        only in the pool, so planning and validation code that bypasses the
        I/O accounting must still look here first — peeking the disk alone
        would return a stale (or not-yet-materialised) payload.  Never
        counts I/O and never disturbs LRU order.
        """
        if page_id in self._frames:
            return self._frames[page_id]
        stored = self.disk.peek(page_id)
        if self.codec is None or stored is None:  # None: allocated, never written
            return stored
        return self.codec.decode(page_id, stored)

    def resident(self, page_id: int) -> Any:
        """The frame of *page_id*, ``None`` when not resident (uncharged, LRU untouched)."""
        return self._frames.get(page_id)

    def pin(self, page_id: int) -> None:
        """Exempt *page_id* from eviction until a matching :meth:`unpin`.

        Pins nest (a pin count is kept per page).  While pages are pinned the
        pool may temporarily exceed its capacity: when every frame is pinned,
        admission stops evicting rather than deadlock; the overrun is
        recorded in :attr:`IOStatistics.over_capacity_peak` and the excess
        frames are evicted as soon as :meth:`unpin` releases a pin.
        """
        self._pins[page_id] = self._pins.get(page_id, 0) + 1

    def unpin(self, page_id: int) -> None:
        """Release one pin on *page_id* (no-op when the page is not pinned).

        Releasing a pin also shrinks an over-capacity pool back towards its
        configured capacity: frames admitted while every frame was pinned
        (see :meth:`pin`) are evicted here, LRU-first, rather than lingering
        until some later admission happens to reclaim them.
        """
        count = self._pins.get(page_id, 0)
        if count <= 1:
            self._pins.pop(page_id, None)
        else:
            self._pins[page_id] = count - 1
        while len(self._frames) > self.capacity:
            if not self._evict_one():
                break  # the remaining excess frames are all still pinned

    def is_pinned(self, page_id: int) -> bool:
        """Introspection for the pin-accounting tests (no engine caller)."""
        return page_id in self._pins

    def discard(self, page_id: int) -> None:
        """Drop *page_id* from the pool without writing it back.

        Used when a page is deallocated (e.g. a node merged away) so a stale
        dirty frame is not flushed to a freed page later.
        """
        self._frames.pop(page_id, None)
        self._dirty.discard(page_id)

    def flush(self) -> int:
        """Write back every dirty frame; return the number of pages written."""
        written = 0
        for page_id in list(self._frames.keys()):
            if page_id in self._dirty:
                self._write_through(page_id, self._frames[page_id])
                self._dirty.discard(page_id)
                written += 1
        return written

    def clear(self) -> None:
        """Flush and empty the pool (used between experiment phases)."""
        self.flush()
        self._frames.clear()
        self._dirty.clear()

    # -- internals ------------------------------------------------------------
    def _write_through(self, page_id: int, payload: Any) -> None:
        """One physical write of *payload* (its page image under a codec)."""
        if self.codec is not None:
            payload = self.codec.encode(payload)
        self.disk.write_page(page_id, payload)

    def _admit(self, page_id: int, payload: Any) -> None:
        if self.capacity == 0:
            return
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self._frames[page_id] = payload
            return
        while len(self._frames) >= self.capacity:
            if not self._evict_one():
                break  # every frame is pinned; run over capacity for now
        self._frames[page_id] = payload
        overflow = len(self._frames) - self.capacity
        if overflow > 0:
            # Pinned frames forced the pool over capacity: record the
            # high-water mark (unpin() shrinks the pool back).
            self.stats.over_capacity_peak = max(
                self.stats.over_capacity_peak, overflow
            )

    def _evict_one(self) -> bool:
        """Evict the least recently used unpinned frame; ``False`` if none."""
        if not self._pins:
            # Fast path: no pins, so the LRU head is always the victim.
            victim_id = next(iter(self._frames), None)
        else:
            victim_id = next(
                (page_id for page_id in self._frames if page_id not in self._pins),
                None,
            )
        if victim_id is None:
            return False
        payload = self._frames.pop(victim_id)
        if victim_id in self._dirty:
            self._write_through(victim_id, payload)
            self._dirty.discard(victim_id)
            self.stats.dirty_evictions += 1
        return True

    # -- introspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    @property
    def dirty_count(self) -> int:
        """Introspection for the write-back work-bound tests (no engine caller)."""
        return len(self._dirty)

    def resident_pages(self) -> List[int]:
        """Page ids currently buffered, oldest first.

        Introspection for the LRU and work-bound tests (no engine caller).
        """
        return list(self._frames.keys())
