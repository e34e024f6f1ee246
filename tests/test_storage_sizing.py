"""Unit tests for :class:`repro.storage.sizing.PageLayout`."""

import struct

import pytest

from repro.storage import PageLayout


class TestCapacities:
    def test_default_layout_matches_paper_page_size(self):
        layout = PageLayout()
        assert layout.page_size == 1024
        # entry = 4 coords * 4 bytes + 4-byte pointer = 20 bytes;
        # (1024 - 32-byte header) / 20 = 49 entries.
        assert layout.entry_size == 20
        assert layout.leaf_capacity() == 49
        assert layout.internal_capacity == 49

    def test_parent_pointer_costs_leaf_capacity(self):
        layout = PageLayout(page_size=256)
        with_pointer = layout.leaf_capacity(with_parent_pointer=True)
        without_pointer = layout.leaf_capacity(with_parent_pointer=False)
        assert with_pointer <= without_pointer

    def test_min_entries_respects_fill_factor(self):
        layout = PageLayout(page_size=1024, min_fill_factor=0.4)
        assert layout.min_entries(50) == 20
        assert layout.min_entries(1) == 1  # never below one entry

    def test_larger_page_means_larger_fanout(self):
        small = PageLayout(page_size=512)
        large = PageLayout(page_size=4096)
        assert large.leaf_capacity() > small.leaf_capacity()

    def test_4kb_page_fanout_is_paper_scale(self):
        # The paper quotes a fanout of roughly 204 for a 4 KB page.
        layout = PageLayout(page_size=4096)
        assert 190 <= layout.internal_capacity <= 210


# The paper's node format, spelled out independently of PageLayout's
# arithmetic: a header (level, entry count, parent pointer, flags, ε-enlarged
# MBR) and one row per entry (MBR, id), at 4- or 8-byte coordinates.
NODE_FORMATS = {4: ("<HHIB4f", "<4fI"), 8: ("<HHIB4d", "<4dI")}


@pytest.mark.parametrize("page_size", [1024, 4096])
@pytest.mark.parametrize("coordinate_size", [4, 8])
@pytest.mark.parametrize("node", ["leaf", "LBU leaf", "internal"])
def test_a_full_node_fits_its_page(page_size, coordinate_size, node):
    """The fan-out PageLayout promises is what a page of that size can hold."""
    layout = PageLayout(page_size=page_size, coordinate_size=coordinate_size)
    header, entry = NODE_FORMATS[coordinate_size]
    capacity = {
        "leaf": layout.leaf_capacity(),
        "LBU leaf": layout.leaf_capacity(with_parent_pointer=True),
        "internal": layout.internal_capacity,
    }[node]
    assert struct.calcsize(entry) == layout.entry_size
    header_size = max(struct.calcsize(header), layout.header_size)
    assert header_size + capacity * struct.calcsize(entry) <= page_size


class TestValidation:
    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=40)

    def test_zero_page_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=0)

    def test_bad_fill_factor_rejected(self):
        with pytest.raises(ValueError):
            PageLayout(min_fill_factor=0.9)
        with pytest.raises(ValueError):
            PageLayout(min_fill_factor=0.0)


class TestSummarySizing:
    def test_direct_access_entry_much_smaller_than_page(self):
        layout = PageLayout(page_size=1024)
        # The paper reports the table entry at roughly 20 % of the node size
        # (and far less for large pages); it must at least be well under half.
        assert layout.direct_access_entry_size < 0.25 * layout.page_size
