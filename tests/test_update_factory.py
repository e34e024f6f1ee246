"""Tests for the strategy factory and the shared strategy interface."""

import pytest

from repro.rtree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.summary import SummaryStructure
from repro.update import (
    GeneralizedBottomUpUpdate,
    LocalizedBottomUpUpdate,
    NaiveBottomUpUpdate,
    TopDownUpdate,
    TuningParameters,
    UpdateOutcome,
    make_strategy,
    outcome_fractions,
    strategy_names,
)
from repro.update.factory import strategy_requires_parent_pointers

from tests.conftest import SMALL_PAGE_SIZE, make_points


def make_tree(store_parent_pointers=False):
    stats = IOStatistics()
    disk = DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)
    tree = RTree(
        BufferPool(disk, 0, stats),
        layout=PageLayout(page_size=SMALL_PAGE_SIZE),
        store_parent_pointers=store_parent_pointers,
    )
    for oid, point in make_points(200):
        tree.insert(oid, point)
    return tree


class TestFactory:
    def test_strategy_names(self):
        assert strategy_names() == ["TD", "NAIVE", "LBU", "GBU"]

    def test_parent_pointer_requirement(self):
        assert strategy_requires_parent_pointers("LBU")
        assert strategy_requires_parent_pointers("lbu")
        assert not strategy_requires_parent_pointers("GBU")
        assert not strategy_requires_parent_pointers("TD")

    def test_builds_each_strategy_type(self):
        assert isinstance(make_strategy("TD", make_tree()), TopDownUpdate)
        assert isinstance(make_strategy("NAIVE", make_tree()), NaiveBottomUpUpdate)
        assert isinstance(
            make_strategy("LBU", make_tree(store_parent_pointers=True)), LocalizedBottomUpUpdate
        )
        assert isinstance(make_strategy("GBU", make_tree()), GeneralizedBottomUpUpdate)

    def test_strategy_name_is_case_insensitive(self):
        assert isinstance(make_strategy("gbu", make_tree()), GeneralizedBottomUpUpdate)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("BOTTOMS-UP", make_tree())

    def test_auxiliary_structures_are_created_when_missing(self):
        strategy = make_strategy("GBU", make_tree())
        assert strategy.hash_index is not None
        assert strategy.summary is not None

    def test_supplied_structures_are_reused(self):
        tree = make_tree()
        hash_index = ObjectHashIndex.build_from_tree(tree)
        summary = SummaryStructure.build_from_tree(tree)
        strategy = make_strategy("GBU", tree, hash_index=hash_index, summary=summary)
        assert strategy.hash_index is hash_index
        assert strategy.summary is summary

    def test_params_are_passed_through(self):
        params = TuningParameters(epsilon=0.02, distance_threshold=0.5)
        strategy = make_strategy("GBU", make_tree(), params=params)
        assert strategy.params.epsilon == 0.02
        assert strategy.params.distance_threshold == 0.5


class TestSharedInterface:
    def test_outcome_counts_land_in_the_stats(self):
        tree = make_tree()
        strategy = make_strategy("TD", tree)
        from repro.geometry import Point

        positions = dict(make_points(200))
        strategy.update(1, positions[1], Point(0.2, 0.2))
        strategy.update(2, positions[2], Point(0.35, 0.3))
        assert strategy.stats.extra == {"top_down": 2}
        assert outcome_fractions(strategy.stats) == {"top_down": 1.0}
        assert strategy.outcome_counts[UpdateOutcome.TOP_DOWN] == 2

    def test_counts_reset_with_the_stats(self):
        tree = make_tree()
        strategy = make_strategy("TD", tree)
        from repro.geometry import Point

        positions = dict(make_points(200))
        strategy.update(1, positions[1], Point(0.2, 0.2))
        strategy.stats.reset()
        assert outcome_fractions(strategy.stats) == {}
        assert sum(strategy.outcome_counts.values()) == 0

    def test_update_of_unknown_object_inserts_it(self):
        tree = make_tree()
        strategy = make_strategy("GBU", tree)
        from repro.geometry import Point

        outcome = strategy.update(99_999, Point(0.5, 0.5), Point(0.5, 0.5))
        assert outcome == UpdateOutcome.INSERTED_NEW
        assert 99_999 in tree.point_query(Point(0.5, 0.5))

    def test_insert_and_delete_shared_helpers(self):
        tree = make_tree()
        strategy = make_strategy("GBU", tree)
        from repro.geometry import Point

        strategy.insert(50_000, Point(0.42, 0.42))
        assert 50_000 in tree.point_query(Point(0.42, 0.42))
        assert strategy.delete(50_000, Point(0.42, 0.42))
        assert 50_000 not in tree.point_query(Point(0.42, 0.42))

    def test_a_new_strategy_on_the_same_stats_continues_the_counts(self):
        tree = make_tree()
        strategy = make_strategy("TD", tree)
        from repro.geometry import Point

        positions = dict(make_points(200))
        strategy.update(1, positions[1], Point(0.2, 0.2))
        successor = make_strategy("NAIVE", tree, stats=strategy.stats)
        successor.update(1, Point(0.2, 0.2), Point(0.2, 0.2))
        assert successor.outcome_counts[UpdateOutcome.TOP_DOWN] == 1
        assert sum(successor.outcome_counts.values()) == 2
