"""Cross-strategy equivalence: all update strategies must index the same data.

The paper's strategies differ only in *how* the index is maintained, never in
*what* it answers: after applying an identical update stream, TD, NAIVE, LBU
and GBU must return identical answers to every query.  This is the single
most important integration property of the reproduction, because every
performance comparison is meaningless if a cheaper strategy silently loses or
misplaces objects.
"""

import random

import pytest

from repro.geometry import Point, Rect
from repro.update import outcome_fractions
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import build_index


STRATEGIES = ["TD", "NAIVE", "LBU", "GBU"]


def apply_workload(index, spec_seed=77, num_updates=800, max_distance=0.05):
    spec = WorkloadSpec(
        num_objects=len(index),
        num_updates=num_updates,
        num_queries=0,
        max_distance=max_distance,
        seed=spec_seed,
    )
    generator = WorkloadGenerator(spec)
    for oid, _old, new in generator.updates():
        index.update(oid, new)
    return generator


class TestQueryEquivalence:
    @pytest.mark.parametrize("max_distance", [0.01, 0.05, 0.15])
    def test_all_strategies_answer_queries_identically(self, max_distance):
        indexes = {name: build_index(name, num_objects=350, seed=31) for name in STRATEGIES}
        for index in indexes.values():
            apply_workload(index, num_updates=700, max_distance=max_distance)

        rng = random.Random(5)
        windows = []
        for _ in range(40):
            cx, cy, s = rng.random(), rng.random(), rng.uniform(0, 0.25)
            windows.append(
                Rect(max(0, cx - s), max(0, cy - s), min(1, cx + s), min(1, cy + s))
            )
        reference = indexes["TD"]
        for window in windows:
            expected = sorted(reference.range_query(window))
            for name, index in indexes.items():
                assert sorted(index.range_query(window)) == expected, name

    def test_all_strategies_track_identical_positions(self):
        indexes = {name: build_index(name, num_objects=300, seed=13) for name in STRATEGIES}
        for index in indexes.values():
            apply_workload(index, num_updates=600)
        reference = indexes["TD"]
        for oid in range(300):
            expected = reference.position_of(oid)
            for name, index in indexes.items():
                assert index.position_of(oid) == expected, name

    def test_every_strategy_remains_structurally_valid(self):
        for name in STRATEGIES:
            index = build_index(name, num_objects=300, seed=3)
            apply_workload(index, num_updates=900, max_distance=0.1)
            index.validate()

    def test_knn_equivalence_after_updates(self):
        indexes = {name: build_index(name, num_objects=250, seed=23) for name in STRATEGIES}
        for index in indexes.values():
            apply_workload(index, num_updates=500)
        probe = Point(0.4, 0.6)
        reference = [oid for _, oid in indexes["TD"].knn(probe, 10)]
        for name, index in indexes.items():
            assert [oid for _, oid in index.knn(probe, 10)] == reference, name


class TestIOOrderingExpectations:
    """The headline comparative claims of the paper, at test scale."""

    def test_bottom_up_strategies_beat_top_down_on_update_io(self):
        io = {}
        for name in ("TD", "LBU", "GBU"):
            index = build_index(name, num_objects=400, seed=41, buffer_percent=1.0)
            apply_workload(index, num_updates=800, max_distance=0.03)
            io[name] = index.stats.total_physical_io
        assert io["GBU"] < io["TD"]
        assert io["LBU"] < io["TD"]

    def test_gbu_falls_back_to_top_down_least_often(self):
        fractions = {}
        for name in ("NAIVE", "LBU", "GBU"):
            index = build_index(name, num_objects=400, seed=41)
            apply_workload(index, num_updates=800, max_distance=0.05)
            fractions[name] = outcome_fractions(index.stats).get("top_down", 0.0)
        assert fractions["GBU"] <= fractions["LBU"] <= fractions["NAIVE"]
