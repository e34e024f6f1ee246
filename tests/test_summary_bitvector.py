"""Tests for the leaf-fullness bit vector."""

from repro.summary import LeafBitVector


class TestBitVector:
    def test_set_and_query_fullness(self):
        bits = LeafBitVector()
        bits.set_fullness(4, True)
        bits.set_fullness(7, False)
        assert bits.is_full(4)
        assert not bits.is_full(7)

    def test_unknown_leaf_is_reported_full(self):
        # Conservative default: GBU must never pick an untracked sibling.
        assert LeafBitVector().is_full(123)

    def test_is_tracked(self):
        bits = LeafBitVector()
        assert not bits.is_tracked(1)
        bits.set_fullness(1, False)
        assert bits.is_tracked(1)

    def test_forget_removes_leaf(self):
        bits = LeafBitVector()
        bits.set_fullness(3, False)
        bits.forget(3)
        assert not bits.is_tracked(3)
        assert bits.is_full(3)  # back to the conservative default

    def test_forget_unknown_leaf_is_silent(self):
        LeafBitVector().forget(55)  # must not raise

    def test_len_and_iteration(self):
        bits = LeafBitVector()
        for page in (1, 2, 3):
            bits.set_fullness(page, page == 2)
        assert len(bits) == 3
        assert sorted(bits) == [1, 2, 3]

    def test_updates_overwrite_previous_state(self):
        bits = LeafBitVector()
        bits.set_fullness(9, True)
        bits.set_fullness(9, False)
        assert not bits.is_full(9)
        assert len(bits) == 1

    def test_size_is_one_bit_per_leaf(self):
        bits = LeafBitVector()
        for page in range(16):
            bits.set_fullness(page, False)
        assert bits.size_bytes() == 2
        bits.set_fullness(16, False)
        assert bits.size_bytes() == 3

    def test_empty_size(self):
        assert LeafBitVector().size_bytes() == 0
