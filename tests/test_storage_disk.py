"""Unit tests for :class:`repro.storage.disk.DiskManager`."""

import pytest

from repro.storage import DiskManager, IOStatistics, PageNotFoundError


class TestAllocation:
    def test_allocate_returns_distinct_ids(self):
        disk = DiskManager()
        ids = {disk.allocate_page() for _ in range(10)}
        assert len(ids) == 10

    def test_deallocated_ids_are_recycled(self):
        disk = DiskManager()
        first = disk.allocate_page()
        disk.deallocate_page(first)
        assert disk.allocate_page() == first

    def test_deallocate_unknown_page_raises(self):
        disk = DiskManager()
        with pytest.raises(PageNotFoundError):
            disk.deallocate_page(99)

    def test_len_reports_allocated_pages(self):
        disk = DiskManager()
        pages = [disk.allocate_page() for _ in range(5)]
        disk.deallocate_page(pages[0])
        assert len(disk) == 4

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            DiskManager(page_size=0)


class TestReadWrite:
    def test_write_then_read_round_trips(self):
        disk = DiskManager()
        page = disk.allocate_page()
        disk.write_page(page, {"hello": "world"})
        assert disk.read_page(page) == {"hello": "world"}

    def test_read_unknown_page_raises(self):
        disk = DiskManager()
        with pytest.raises(PageNotFoundError):
            disk.read_page(123)

    def test_write_unknown_page_raises(self):
        disk = DiskManager()
        with pytest.raises(PageNotFoundError):
            disk.write_page(123, "data")

    def test_reads_and_writes_are_counted(self):
        stats = IOStatistics()
        disk = DiskManager(stats=stats)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        disk.read_page(page)
        disk.read_page(page)
        assert stats.physical_writes == 1
        assert stats.physical_reads == 2

    def test_peek_is_not_counted(self):
        stats = IOStatistics()
        disk = DiskManager(stats=stats)
        page = disk.allocate_page()
        disk.write_page(page, "x")
        before = stats.physical_reads
        assert disk.peek(page) == "x"
        assert stats.physical_reads == before

    def test_contains(self):
        disk = DiskManager()
        page = disk.allocate_page()
        assert page in disk
        assert 999 not in disk

    def test_page_ids_iterates_allocated_pages(self):
        disk = DiskManager()
        pages = {disk.allocate_page() for _ in range(4)}
        assert set(disk.page_ids()) == pages
