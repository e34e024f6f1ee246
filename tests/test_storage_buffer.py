"""Unit tests for :class:`repro.storage.buffer.BufferPool`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BufferPool, DiskManager, IOStatistics

from tests.conftest import recorded_accesses


def make_stack(capacity: int):
    stats = IOStatistics()
    disk = DiskManager(page_size=128, stats=stats)
    pool = BufferPool(disk, capacity=capacity, stats=stats)
    return stats, disk, pool


class TestUnbuffered:
    def test_every_access_is_physical(self):
        stats, disk, pool = make_stack(capacity=0)
        page = disk.allocate_page()
        pool.write(page, "a")
        pool.read(page)
        pool.read(page)
        assert stats.physical_writes == 1
        assert stats.physical_reads == 2
        assert stats.buffer_hits == 0

    def test_write_is_immediately_visible_on_disk(self):
        _, disk, pool = make_stack(capacity=0)
        page = disk.allocate_page()
        pool.write(page, "payload")
        assert disk.peek(page) == "payload"


class TestBuffered:
    def test_repeated_reads_hit_the_buffer(self):
        stats, disk, pool = make_stack(capacity=4)
        page = disk.allocate_page()
        disk.write_page(page, "a")
        pool.read(page)
        pool.read(page)
        pool.read(page)
        assert stats.physical_reads == 1
        assert stats.buffer_hits == 2

    def test_writes_are_absorbed_until_eviction(self):
        stats, disk, pool = make_stack(capacity=2)
        page = disk.allocate_page()
        disk.write_page(page, "original")
        physical_writes_before = stats.physical_writes
        pool.write(page, "updated")
        assert stats.physical_writes == physical_writes_before  # write-back
        assert pool.read(page) == "updated"  # served from the pool

    def test_dirty_eviction_writes_back(self):
        stats, disk, pool = make_stack(capacity=1)
        a, b = disk.allocate_page(), disk.allocate_page()
        disk.write_page(a, "a0")
        disk.write_page(b, "b0")
        pool.write(a, "a1")     # dirty frame for a
        pool.read(b)            # evicts a, forcing the write-back
        assert disk.peek(a) == "a1"
        assert stats.dirty_evictions == 1

    def test_lru_eviction_order(self):
        _, disk, pool = make_stack(capacity=2)
        a, b, c = (disk.allocate_page() for _ in range(3))
        for page, value in ((a, "a"), (b, "b"), (c, "c")):
            disk.write_page(page, value)
        pool.read(a)
        pool.read(b)
        pool.read(a)          # a is now most recently used
        pool.read(c)          # evicts b
        assert set(pool.resident_pages()) == {a, c}

    def test_flush_writes_all_dirty_frames(self):
        _, disk, pool = make_stack(capacity=4)
        pages = [disk.allocate_page() for _ in range(3)]
        for page in pages:
            disk.write_page(page, "orig")
            pool.write(page, f"new{page}")
        written = pool.flush()
        assert written == 3
        for page in pages:
            assert disk.peek(page) == f"new{page}"

    def test_clear_empties_the_pool(self):
        _, disk, pool = make_stack(capacity=4)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        pool.read(page)
        pool.clear()
        assert len(pool) == 0

    def test_discard_drops_dirty_frame_without_writeback(self):
        _, disk, pool = make_stack(capacity=4)
        page = disk.allocate_page()
        disk.write_page(page, "original")
        pool.write(page, "doomed")
        pool.discard(page)
        pool.flush()
        assert disk.peek(page) == "original"

    def test_negative_capacity_rejected(self):
        stats = IOStatistics()
        disk = DiskManager(stats=stats)
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=-1)

    def test_dirty_count(self):
        _, disk, pool = make_stack(capacity=4)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        assert pool.dirty_count == 0
        pool.write(page, "y")
        assert pool.dirty_count == 1


def pool_for_percentage(percent, database_pages):
    stats = IOStatistics()
    disk = DiskManager(stats=stats)
    capacity = BufferPool.capacity_for_percentage(percent, database_pages)
    return BufferPool(disk, capacity=capacity, stats=stats)


class TestSizing:
    def test_for_percentage_computes_capacity(self):
        assert pool_for_percentage(10.0, database_pages=200).capacity == 20

    def test_for_percentage_rounds_up_to_one_page(self):
        assert pool_for_percentage(1.0, database_pages=10).capacity == 1

    def test_for_percentage_zero_disables_buffering(self):
        assert pool_for_percentage(0.0, database_pages=1000).capacity == 0

    def test_for_percentage_negative_rejected(self):
        with pytest.raises(ValueError):
            pool_for_percentage(-1.0, database_pages=10)


class TestAccessLog:
    """The test-side access recorder the bucket-of-one and admit-only comparisons use."""

    def test_accesses_recorded_only_inside_the_context(self):
        _, disk, pool = make_stack(capacity=2)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        with recorded_accesses(pool) as log:
            pool.read(page)
            pool.write(page, "y")
        pool.read(page)  # after the block: not recorded
        assert log == [("read", page), ("write", page)]

    def test_log_detached_even_on_exception(self):
        _, disk, pool = make_stack(capacity=2)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        with pytest.raises(RuntimeError):
            with recorded_accesses(pool) as log:
                pool.read(page)
                raise RuntimeError("boom")
        assert "read" not in vars(pool) and "write" not in vars(pool)
        pool.read(page)
        assert log == [("read", page)]

    def test_nested_logs_see_only_their_own_accesses(self):
        _, disk, pool = make_stack(capacity=2)
        first = disk.allocate_page()
        second = disk.allocate_page()
        disk.write_page(first, "a")
        disk.write_page(second, "b")
        with recorded_accesses(pool) as outer:
            pool.read(first)
            with recorded_accesses(pool) as inner:
                pool.read(second)
            pool.read(first)  # the outer log records again once the inner one closes
        assert outer == [("read", first), ("read", first)]
        assert inner == [("read", second)]


class TestPeek:
    def test_peek_sees_writeback_frames_before_the_disk_does(self):
        _, disk, pool = make_stack(capacity=2)
        page = disk.allocate_page()
        pool.write(page, "buffered-only")
        assert disk.peek(page) is None  # write-back: not on disk yet
        assert pool.peek(page) == "buffered-only"

    def test_peek_falls_back_to_disk(self):
        _, disk, pool = make_stack(capacity=2)
        page = disk.allocate_page()
        disk.write_page(page, "on-disk")
        assert pool.peek(page) == "on-disk"


class TestPinOverrun:
    def test_fully_pinned_pool_runs_over_and_records_the_peak(self):
        stats, disk, pool = make_stack(capacity=2)
        pages = [disk.allocate_page() for _ in range(3)]
        for page in pages:
            disk.write_page(page, f"p{page}")
        pool.read(pages[0])
        pool.read(pages[1])
        pool.pin(pages[0])
        pool.pin(pages[1])
        # Every frame is pinned: admitting one more must not deadlock and
        # must not evict a pinned frame — the pool runs over capacity.
        pool.read(pages[2])
        assert len(pool) == 3
        assert pool.resident_pages()[:2] == [pages[0], pages[1]]
        assert stats.over_capacity_peak == 1

    def test_unpin_shrinks_the_pool_back_to_capacity(self):
        stats, disk, pool = make_stack(capacity=2)
        pages = [disk.allocate_page() for _ in range(3)]
        for page in pages:
            disk.write_page(page, f"p{page}")
        pool.read(pages[0])
        pool.read(pages[1])
        pool.pin(pages[0])
        pool.pin(pages[1])
        pool.read(pages[2])
        assert len(pool) == 3
        pool.unpin(pages[0])
        # The release itself reclaims the excess frame (LRU-first among the
        # unpinned), instead of waiting for some later admission.
        assert len(pool) == 2
        assert not pool.is_pinned(pages[0])

    def test_unpin_shrink_writes_back_dirty_overflow(self):
        stats, disk, pool = make_stack(capacity=1)
        a, b = disk.allocate_page(), disk.allocate_page()
        disk.write_page(a, "a0")
        disk.write_page(b, "b0")
        pool.write(a, "a1")
        pool.pin(a)
        pool.write(b, "b1")  # over capacity: a is pinned
        assert len(pool) == 2
        assert stats.over_capacity_peak == 1
        pool.unpin(a)
        assert len(pool) == 1
        assert disk.peek(a) == "a1"  # the dirty evictee was written back

    def test_nested_pins_keep_the_page_protected(self):
        stats, disk, pool = make_stack(capacity=1)
        a, b = disk.allocate_page(), disk.allocate_page()
        disk.write_page(a, "a0")
        disk.write_page(b, "b0")
        pool.read(a)
        pool.pin(a)
        pool.pin(a)
        pool.read(b)
        pool.unpin(a)  # still pinned once: the overflow frame b is evicted
        assert len(pool) == 1
        assert pool.resident_pages() == [a]
        pool.unpin(a)
        assert not pool.is_pinned(a)


class RecordingDisk(DiskManager):
    """Keeps the sequence of physical writes, payloads included."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.written = []

    def write_page(self, page_id, payload):
        super().write_page(page_id, payload)
        self.written.append((page_id, payload))


class AdmitOnlyPool(BufferPool):
    """The reference: every miss goes through ``_admit`` / ``_evict_one``."""

    def read(self, page_id):
        self.stats.logical_reads += 1
        if self.capacity > 0 and page_id in self._frames:
            self.stats.buffer_hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        payload = self.disk.read_page(page_id)
        if self.codec is not None and payload is not None:
            payload = self.codec.decode(page_id, payload)
        self._admit(page_id, payload)
        return payload


class CountingPool(BufferPool):
    """The pool under test, counting the misses that leave the straight line."""

    admits = 0

    def _admit(self, page_id, payload):
        self.admits += 1
        super()._admit(page_id, payload)


PAGES = 8
POOL_OPS = st.lists(
    st.tuples(
        st.sampled_from(("read", "read", "read", "write", "pin", "unpin", "discard")),
        st.integers(0, PAGES - 1),
    ),
    min_size=12,
    max_size=80,
)


def observable_state(pool, log):
    return (
        pool.resident_pages(),
        set(pool._dirty),
        dict(pool._pins),
        pool.stats.as_dict(),
        list(log),
        list(pool.disk.written),
    )


class TestStraightLineMiss:
    """``read``'s in-frame miss is ``_admit`` + ``_evict_one`` whenever it runs."""

    def make(self, pool_class, capacity):
        stats = IOStatistics()
        disk = RecordingDisk(page_size=128, stats=stats)
        for page in range(PAGES):
            assert disk.allocate_page() == page
            disk.write_page(page, f"disk{page}")
        return pool_class(disk, capacity=capacity, stats=stats)

    def test_any_sequence_matches_the_admit_only_reference(self):
        pinned_straight_misses = 0

        @settings(max_examples=120, deadline=None, derandomize=True)
        @given(capacity=st.integers(1, 6), ops=POOL_OPS)
        def run(capacity, ops):
            nonlocal pinned_straight_misses
            subject = self.make(CountingPool, capacity)
            reference = self.make(AdmitOnlyPool, capacity)
            with recorded_accesses(subject) as log, recorded_accesses(reference) as ref_log:
                for step, (verb, page) in enumerate(ops):
                    if verb == "write":
                        subject.write(page, f"w{step}")
                        reference.write(page, f"w{step}")
                    elif verb == "read":
                        misses, admits = subject.stats.physical_reads, subject.admits
                        assert subject.read(page) == reference.read(page)
                        if (
                            subject.stats.physical_reads > misses
                            and subject.admits == admits
                            and subject._pins
                        ):
                            pinned_straight_misses += 1
                    else:
                        getattr(subject, verb)(page)
                        getattr(reference, verb)(page)
                    assert observable_state(subject, log) == observable_state(
                        reference, ref_log
                    )

        run()
        assert pinned_straight_misses > 0

    def test_miss_under_a_pin_stays_on_the_straight_line(self):
        pool = self.make(CountingPool, capacity=3)
        for page in (0, 1, 2):
            pool.write(page, f"w{page}")
        pool.pin(2)  # what a group pass holds: the page it has just touched
        admits = pool.admits
        pool.read(3)
        assert pool.admits == admits  # exactly full, LRU head 0 is not pinned
        assert pool.resident_pages() == [1, 2, 3]
        assert pool.disk.written[-1] == (0, "w0")

    def test_pinned_head_under_and_over_capacity_go_through_admit(self):
        pool = self.make(CountingPool, capacity=2)
        pool.read(0)  # under capacity
        assert pool.admits == 1
        pool.read(1)
        pool.pin(0)  # the LRU head itself
        pool.read(2)  # evicts 1, the first unpinned frame
        assert pool.admits == 3 and pool.resident_pages() == [0, 2]
        pool.pin(2)
        pool.read(3)  # every frame pinned: over capacity
        assert pool.admits == 4 and len(pool) == 3
        pool.read(4)  # over capacity, head pinned
        assert pool.admits == 5
