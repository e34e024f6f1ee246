"""Tests for the spatial partitioners."""

import pytest

from repro.geometry import Point, Rect
from repro.shard import (
    BoundaryPartitioner,
    GridPartitioner,
    partitioner_from_spec,
)


class TestGridPartitioner:
    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            GridPartitioner(0, 2)
        with pytest.raises(ValueError):
            GridPartitioner(2, -1)

    def test_for_shards_builds_near_square_grids(self):
        assert (GridPartitioner.for_shards(1).columns, GridPartitioner.for_shards(1).rows) == (1, 1)
        assert (GridPartitioner.for_shards(2).columns, GridPartitioner.for_shards(2).rows) == (2, 1)
        assert (GridPartitioner.for_shards(4).columns, GridPartitioner.for_shards(4).rows) == (2, 2)
        assert (GridPartitioner.for_shards(6).columns, GridPartitioner.for_shards(6).rows) == (3, 2)
        assert (GridPartitioner.for_shards(8).columns, GridPartitioner.for_shards(8).rows) == (4, 2)
        assert GridPartitioner.for_shards(7).num_shards == 7
        with pytest.raises(ValueError):
            GridPartitioner.for_shards(0)

    def test_every_position_lies_inside_its_shard_boundary(self):
        import random

        partitioner = GridPartitioner(4, 3)
        rng = random.Random(7)
        for _ in range(500):
            point = Point(rng.random(), rng.random())
            shard = partitioner.shard_of(point)
            assert partitioner.boundary(shard).contains_point(point)

    def test_boundaries_tile_the_unit_square(self):
        partitioner = GridPartitioner(3, 2)
        boundaries = partitioner.boundaries()
        assert len(boundaries) == 6
        total_area = sum(rect.area() for rect in boundaries)
        assert total_area == pytest.approx(1.0)

    def test_out_of_square_positions_clamp_to_edge_cells(self):
        partitioner = GridPartitioner(2, 2)
        assert partitioner.shard_of(Point(-0.5, -0.5)) == 0
        assert partitioner.shard_of(Point(1.5, 1.5)) == 3
        # exactly 1.0 belongs to the last cell
        assert partitioner.shard_of(Point(1.0, 1.0)) == 3

    def test_shards_intersecting_window(self):
        partitioner = GridPartitioner(2, 2)
        # a window inside the lower-left quadrant
        assert partitioner.shards_intersecting(Rect(0.1, 0.1, 0.3, 0.3)) == [0]
        # a window straddling the vertical boundary
        assert partitioner.shards_intersecting(Rect(0.4, 0.1, 0.6, 0.2)) == [0, 1]
        # the whole space touches every shard
        assert partitioner.shards_intersecting(Rect.unit()) == [0, 1, 2, 3]

    def test_boundary_rejects_out_of_range_shard(self):
        with pytest.raises(IndexError):
            GridPartitioner(2, 2).boundary(4)

    def test_spec_round_trip(self):
        partitioner = GridPartitioner(5, 3)
        rebuilt = partitioner_from_spec(partitioner.to_spec())
        assert isinstance(rebuilt, GridPartitioner)
        assert rebuilt.columns == 5 and rebuilt.rows == 3


class TestBoundaryPartitioner:
    def halves(self):
        return BoundaryPartitioner(
            [Rect(0.0, 0.0, 0.5, 1.0), Rect(0.5, 0.0, 1.0, 1.0)]
        )

    def test_requires_at_least_one_boundary(self):
        with pytest.raises(ValueError):
            BoundaryPartitioner([])

    def test_first_matching_boundary_wins(self):
        partitioner = self.halves()
        assert partitioner.shard_of(Point(0.2, 0.5)) == 0
        assert partitioner.shard_of(Point(0.8, 0.5)) == 1
        # the shared edge belongs to the first rectangle listing it
        assert partitioner.shard_of(Point(0.5, 0.5)) == 0

    def test_boundaries_that_leave_a_gap_are_rejected(self):
        with pytest.raises(ValueError, match="must cover the unit square"):
            BoundaryPartitioner([Rect(0.0, 0.0, 0.4, 0.4)])
        # Covered in every x-slab but one, where a sliver of y is missing.
        with pytest.raises(ValueError, match="0.5 < x < 1.0"):
            BoundaryPartitioner(
                [Rect(0.0, 0.0, 0.5, 1.0), Rect(0.5, 0.0, 1.0, 0.6), Rect(0.5, 0.61, 1.0, 1.0)]
            )

    def test_overlapping_and_overhanging_tiles_are_accepted(self):
        partitioner = BoundaryPartitioner(
            [Rect(-1.0, -1.0, 0.6, 2.0), Rect(0.4, 0.0, 1.0, 0.5), Rect(0.4, 0.5, 2.0, 1.0)]
        )
        assert partitioner.shard_of(Point(0.9, 0.9)) == 2

    def test_spec_round_trip(self):
        partitioner = self.halves()
        rebuilt = partitioner_from_spec(partitioner.to_spec())
        assert isinstance(rebuilt, BoundaryPartitioner)
        assert rebuilt.boundaries() == partitioner.boundaries()

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ValueError):
            partitioner_from_spec({"kind": "voronoi"})


class TestQuantileGridPartitioner:
    def build(self):
        from repro.shard import QuantileGridPartitioner

        return QuantileGridPartitioner(
            [0.0, 0.3, 0.7, 1.0],
            [[0.0, 0.5, 1.0], [0.0, 0.2, 1.0], [0.0, 0.8, 1.0]],
        )

    def test_is_a_boundary_partitioner_with_bisect_routing(self):
        from repro.shard import BoundaryPartitioner

        partitioner = self.build()
        assert isinstance(partitioner, BoundaryPartitioner)
        assert partitioner.num_shards == 6

    def test_routing_matches_first_containing_rectangle(self):
        """The bisect fast path must agree with the base class's linear scan
        for every point — including points exactly on interior cuts."""
        from repro.shard import BoundaryPartitioner

        partitioner = self.build()
        reference = BoundaryPartitioner(partitioner.boundaries())
        coords = [0.0, 0.1, 0.2, 0.3, 0.44, 0.5, 0.7, 0.8, 0.99, 1.0]
        for x in coords:
            for y in coords:
                point = Point(x, y)
                assert partitioner.shard_of(point) == reference.shard_of(point)

    def test_degenerate_zero_width_columns_route_like_the_scan(self):
        from repro.shard import BoundaryPartitioner, QuantileGridPartitioner

        partitioner = QuantileGridPartitioner(
            [0.0, 0.5, 0.5, 1.0],
            [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        )
        reference = BoundaryPartitioner(partitioner.boundaries())
        for x in (0.0, 0.4999, 0.5, 0.5001, 1.0):
            point = Point(x, 0.5)
            assert partitioner.shard_of(point) == reference.shard_of(point)

    def test_spec_round_trip(self):
        from repro.shard import QuantileGridPartitioner, partitioner_from_spec

        partitioner = self.build()
        spec = partitioner.to_spec()
        assert spec["kind"] == "quantile_grid"
        restored = partitioner_from_spec(spec)
        assert isinstance(restored, QuantileGridPartitioner)
        assert restored.to_spec() == spec
        assert restored.boundaries() == partitioner.boundaries()

    def test_invalid_shapes_rejected(self):
        from repro.shard import QuantileGridPartitioner

        with pytest.raises(ValueError):
            QuantileGridPartitioner([0.0], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            QuantileGridPartitioner([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            QuantileGridPartitioner([0.0, 0.5, 1.0], [[0.0, 1.0], [0.0, 0.5, 1.0]])

    @pytest.mark.parametrize(
        "x_cuts, y_cuts",
        [
            ([0.1, 1.0], [[0.0, 1.0]]),  # does not start at 0.0
            ([0.0, 0.9], [[0.0, 1.0]]),  # does not end at 1.0
            ([0.0, 0.6, 0.4, 1.0], [[0.0, 1.0]] * 3),  # decreases
            ([0.0, 1.0], [[0.0, 0.7, 0.5, 1.0]]),  # a column's y-cuts decrease
            ([0.0, 1.0], [[0.0, 0.5]]),  # a column stops short of the top
        ],
    )
    def test_cuts_that_do_not_tile_the_square_are_rejected(self, x_cuts, y_cuts):
        from repro.shard import QuantileGridPartitioner

        with pytest.raises(ValueError, match="must start at 0.0, end at 1.0"):
            QuantileGridPartitioner(x_cuts, y_cuts)
