"""Unit tests for :class:`repro.storage.stats.IOStatistics`."""

import pytest

from repro.storage import IOStatistics


class TestCounters:
    def test_counters_start_at_zero(self):
        stats = IOStatistics()
        assert stats.total_physical_io == 0
        assert stats.hit_ratio == 0.0

    def test_total_physical_io_includes_hash_probes(self):
        stats = IOStatistics(physical_reads=3, physical_writes=2, hash_index_reads=4)
        assert stats.total_physical_io == 9

    def test_hit_ratio(self):
        stats = IOStatistics(logical_reads=10, buffer_hits=4)
        assert stats.hit_ratio == pytest.approx(0.4)

    def test_bump_labelled_counter(self):
        stats = IOStatistics()
        stats.bump("splits")
        stats.bump("splits", 2)
        assert stats.extra["splits"] == 3


class TestSnapshotAndDelta:
    def test_snapshot_is_independent_copy(self):
        stats = IOStatistics(physical_reads=1)
        snap = stats.snapshot()
        stats.physical_reads += 5
        assert snap.physical_reads == 1

    def test_snapshot_copies_extra_counters(self):
        stats = IOStatistics()
        stats.bump("splits")
        snap = stats.snapshot()
        stats.bump("splits")
        assert snap.extra["splits"] == 1

    def test_delta_since(self):
        stats = IOStatistics(physical_reads=2, physical_writes=1)
        before = stats.snapshot()
        stats.physical_reads += 3
        stats.hash_index_reads += 1
        delta = stats.delta_since(before)
        assert delta.physical_reads == 3
        assert delta.physical_writes == 0
        assert delta.hash_index_reads == 1
        assert delta.total_physical_io == 4

    def test_delta_of_extra_counters(self):
        stats = IOStatistics()
        stats.bump("splits", 2)
        before = stats.snapshot()
        stats.bump("splits", 3)
        stats.bump("merges", 1)
        delta = stats.delta_since(before)
        assert delta.extra == {"splits": 3, "merges": 1}


class TestAggregation:
    def test_merge_adds_in_place_and_returns_self(self):
        stats = IOStatistics(physical_reads=2, buffer_hits=1)
        stats.bump("splits", 2)
        other = IOStatistics(physical_reads=3, physical_writes=4, hash_index_reads=1)
        other.bump("splits")
        other.bump("merges", 5)
        returned = stats.merge(other)
        assert returned is stats
        assert stats.physical_reads == 5
        assert stats.physical_writes == 4
        assert stats.buffer_hits == 1
        assert stats.hash_index_reads == 1
        assert stats.extra == {"splits": 3, "merges": 5}

    def test_add_returns_new_instance(self):
        a = IOStatistics(physical_reads=1, logical_reads=2)
        b = IOStatistics(physical_reads=4, dirty_evictions=1)
        total = a + b
        assert total.physical_reads == 5
        assert total.logical_reads == 2
        assert total.dirty_evictions == 1
        # the operands are untouched
        assert a.physical_reads == 1
        assert b.physical_reads == 4

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            IOStatistics() + 3

    def test_sum_merges_many(self):
        parts = [IOStatistics(physical_reads=i) for i in (1, 2, 3)]
        combined = IOStatistics.sum(parts)
        assert combined.physical_reads == 6
        assert all(part.physical_reads == i for part, i in zip(parts, (1, 2, 3)))

    def test_total_is_total_physical_io(self):
        stats = IOStatistics(physical_reads=3, physical_writes=2, hash_index_reads=4)
        assert stats.total() == stats.total_physical_io == 9


class TestResetAndExport:
    def test_reset_zeroes_everything(self):
        stats = IOStatistics(physical_reads=5, logical_writes=2)
        stats.bump("splits")
        stats.reset()
        assert stats.physical_reads == 0
        assert stats.logical_writes == 0
        assert stats.extra == {}

    def test_as_dict_holds_the_page_counters_only(self):
        stats = IOStatistics(physical_reads=1, physical_writes=2, hash_index_reads=3)
        stats.bump("splits", 7)
        exported = stats.as_dict()
        assert exported["physical_reads"] == 1
        assert exported["total_physical_io"] == 6
        assert "splits" not in exported
        assert list(exported) == [
            "physical_reads",
            "physical_writes",
            "logical_reads",
            "logical_writes",
            "buffer_hits",
            "dirty_evictions",
            "hash_index_reads",
            "over_capacity_peak",
            "total_physical_io",
        ]

    def test_assign_overwrites_in_place(self):
        stats = IOStatistics(physical_reads=5)
        stats.bump("in_place", 2)
        source = IOStatistics(physical_writes=3, over_capacity_peak=1)
        source.bump("top_down")
        stats.assign(source)
        assert stats == source
        source.bump("top_down")
        assert stats.extra == {"top_down": 1}  # a copy, not the source's dict

    def test_delta_leaves_out_labels_that_did_not_move(self):
        stats = IOStatistics()
        stats.bump("in_place", 2)
        before = stats.snapshot()
        stats.bump("top_down")
        assert stats.delta_since(before).extra == {"top_down": 1}


class TestOverCapacityPeak:
    def test_merge_takes_the_maximum_not_the_sum(self):
        from repro.storage import IOStatistics

        a = IOStatistics(over_capacity_peak=3)
        b = IOStatistics(over_capacity_peak=5)
        assert a.merge(b).over_capacity_peak == 5
        assert IOStatistics.sum(
            [IOStatistics(over_capacity_peak=2), IOStatistics(over_capacity_peak=1)]
        ).over_capacity_peak == 2

    def test_delta_reports_the_rise_and_never_goes_negative(self):
        from repro.storage import IOStatistics

        earlier = IOStatistics(over_capacity_peak=2)
        later = IOStatistics(over_capacity_peak=5)
        assert later.delta_since(earlier).over_capacity_peak == 3
        assert earlier.delta_since(later).over_capacity_peak == 0

    def test_snapshot_reset_and_dict_roundtrip(self):
        from repro.storage import IOStatistics

        stats = IOStatistics(over_capacity_peak=4)
        assert stats.snapshot().over_capacity_peak == 4
        assert stats.as_dict()["over_capacity_peak"] == 4
        stats.reset()
        assert stats.over_capacity_peak == 0


class TestPicklability:
    def test_statistics_round_trip_through_pickle(self):
        """Worker processes report their counters by pickling them back."""
        import pickle

        from repro.storage import IOStatistics

        stats = IOStatistics(
            physical_reads=3,
            physical_writes=2,
            logical_reads=9,
            logical_writes=4,
            buffer_hits=6,
            dirty_evictions=1,
            hash_index_reads=5,
            over_capacity_peak=2,
        )
        stats.bump("splits", 3)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.as_dict() == stats.as_dict()
        # The clone is independent state, not a shared reference.
        clone.physical_reads += 1
        clone.bump("splits")
        assert stats.physical_reads == 3
        assert stats.extra["splits"] == 3
