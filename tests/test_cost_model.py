"""Tests for the Section 4 analytical cost model."""

import math

import pytest

from repro.core import IndexConfig, MovingObjectIndex
from repro.cost import (
    BottomUpCostModel,
    TopDownCostModel,
    TreeShape,
    expected_query_node_accesses,
    window_overlap_probability,
)

from tests.conftest import SMALL_PAGE_SIZE, make_points


def measured_shape(count=800):
    index = MovingObjectIndex(IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE))
    index.load(make_points(count))
    return TreeShape.from_tree(index.tree), index


class TestLemmas:
    def test_lemma2_probability_formula(self):
        assert window_overlap_probability(0.1, 0.1, 0.2, 0.2) == pytest.approx(0.09)

    def test_lemma2_capped_at_one(self):
        assert window_overlap_probability(0.9, 0.9, 0.9, 0.9) == 1.0

    def test_lemma2_zero_windows(self):
        assert window_overlap_probability(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_lemma2_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            window_overlap_probability(-0.1, 0.1, 0.1, 0.1)

    def test_lemma2_monotone_in_window_size(self):
        small = window_overlap_probability(0.05, 0.05, 0.1, 0.1)
        large = window_overlap_probability(0.2, 0.2, 0.1, 0.1)
        assert large > small


class TestTreeShape:
    def test_shape_from_tree_counts_levels_and_nodes(self):
        shape, index = measured_shape()
        assert shape.height == index.tree.height
        counts = index.tree.node_count()
        assert shape.nodes_at_level(0) == counts["leaf"]
        assert sum(shape.nodes_at_level(level) for level in range(1, shape.height)) == counts[
            "internal"
        ]

    def test_average_leaf_extent_is_positive_and_small(self):
        shape, _ = measured_shape()
        width, height = shape.average_leaf_extent()
        assert 0 < width < 0.5
        assert 0 < height < 0.5

    def test_nodes_at_missing_level_is_zero(self):
        shape, _ = measured_shape()
        assert shape.nodes_at_level(99) == 0


class TestQueryCost:
    def test_expected_accesses_grow_with_window_size(self):
        shape, _ = measured_shape()
        small = expected_query_node_accesses(shape, 0.01, 0.01)
        large = expected_query_node_accesses(shape, 0.3, 0.3)
        assert large > small

    def test_expected_accesses_at_least_one_path(self):
        shape, _ = measured_shape()
        assert expected_query_node_accesses(shape, 0.05, 0.05) >= shape.height - 1

    def test_analytical_query_cost_tracks_measurement(self):
        """Theorem 1's estimate should be within a factor ~2.5 of the actual
        node accesses of a real query workload on the measured tree."""
        shape, index = measured_shape()
        import random

        from repro.geometry import Rect

        rng = random.Random(4)
        side = 0.1
        measured_reads = []
        for _ in range(60):
            cx, cy = rng.random(), rng.random()
            window = Rect(
                max(0, cx - side / 2),
                max(0, cy - side / 2),
                min(1, cx + side / 2),
                min(1, cy + side / 2),
            )
            before = index.stats.physical_reads
            index.tree.range_query(window)
            measured_reads.append(index.stats.physical_reads - before)
        measured_average = sum(measured_reads) / len(measured_reads)
        predicted = expected_query_node_accesses(shape, side, side)
        assert predicted / 2.5 <= measured_average <= predicted * 2.5


class TestUpdateCostModels:
    def test_top_down_best_case_formula(self):
        shape, _ = measured_shape()
        model = TopDownCostModel(shape)
        assert model.best_case_cost() == 2 * shape.height + 1

    def test_top_down_expected_cost_at_least_best_case_minus_overlap(self):
        shape, _ = measured_shape()
        model = TopDownCostModel(shape)
        assert model.update_cost() >= shape.height + 1

    def test_bottom_up_cost_increases_with_distance(self):
        shape, _ = measured_shape()
        model = BottomUpCostModel(shape)
        costs = [model.update_cost(d) for d in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert all(later >= earlier - 1e-9 for earlier, later in zip(costs, costs[1:]))

    def test_bottom_up_cost_bounded_by_constants(self):
        shape, _ = measured_shape()
        model = BottomUpCostModel(shape)
        assert model.update_cost(0.0) == pytest.approx(model.COST_IN_PLACE)
        assert model.update_cost(math.sqrt(2)) <= model.COST_ASCEND_WITH_TABLE

    def test_paper_bound_bottom_up_worst_below_top_down_best(self):
        """Section 4's conclusion: the bottom-up worst case does not exceed
        the top-down best case for trees of height >= 3."""
        shape, _ = measured_shape()
        if shape.height < 3:
            pytest.skip("tree too shallow for the paper's bound")
        bottom_up = BottomUpCostModel(shape)
        top_down = TopDownCostModel(shape)
        assert bottom_up.worst_case_cost() <= top_down.best_case_cost()

    def test_uncharged_hash_io_restores_the_paper_ranking(self):
        # The bottom-up constants fold one hash probe into COST_IN_PLACE.
        # With the probe free (the paper's logical accounting), a short move
        # under LBU (no direct access table) or GBU costs fewer node
        # accesses than a top-down update.
        index = MovingObjectIndex(IndexConfig(strategy="TD", page_size=SMALL_PAGE_SIZE))
        index.load(make_points(400, seed=3))
        shape = TreeShape.from_tree(index.tree)
        top_down = TopDownCostModel(shape).update_cost()
        for use_direct_access_table in (False, True):
            bottom_up = BottomUpCostModel(
                shape, epsilon=0.003, use_direct_access_table=use_direct_access_table
            )
            assert bottom_up.update_cost(0.005) - 1.0 < top_down

    def test_without_direct_access_table_ascent_costs_scale_with_height(self):
        shape, _ = measured_shape()
        with_table = BottomUpCostModel(shape, use_direct_access_table=True)
        without_table = BottomUpCostModel(shape, use_direct_access_table=False)
        assert without_table.update_cost(1.0) >= with_table.update_cost(1.0)

    def test_probability_within_leaf_decreases_with_distance(self):
        shape, _ = measured_shape()
        model = BottomUpCostModel(shape)
        probabilities = [model.probability_within_leaf(d) for d in (0.0, 0.01, 0.05, 0.3)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(probabilities, probabilities[1:]))
        assert probabilities[0] == 1.0

    def test_probability_extendable_scales_with_epsilon(self):
        shape, _ = measured_shape()
        tight = BottomUpCostModel(shape, epsilon=0.001)
        loose = BottomUpCostModel(shape, epsilon=0.05)
        assert loose.probability_extendable(0.05) >= tight.probability_extendable(0.05)

    def test_cost_curve_shape(self):
        shape, _ = measured_shape()
        model = BottomUpCostModel(shape)
        curve = model.cost_curve([0.01, 0.05, 0.1])
        assert [d for d, _ in curve] == [0.01, 0.05, 0.1]
        assert all(cost > 0 for _, cost in curve)

    def test_measured_gbu_update_cost_within_model_envelope(self):
        """The measured average GBU update I/O must land between the model's
        in-place floor and the top-down best case for local movement."""
        shape, index = measured_shape()
        import random

        from repro.geometry import Point

        model = BottomUpCostModel(shape)
        top_down = TopDownCostModel(shape)
        rng = random.Random(5)
        index.reset_statistics()
        updates = 400
        for _ in range(updates):
            oid = rng.randrange(len(index))
            p = index.position_of(oid)
            index.update(oid, Point(
                min(1, max(0, p.x + rng.uniform(-0.02, 0.02))),
                min(1, max(0, p.y + rng.uniform(-0.02, 0.02))),
            ))
        measured = index.stats.total_physical_io / updates
        assert model.COST_IN_PLACE - 0.5 <= measured <= top_down.best_case_cost() + 2
