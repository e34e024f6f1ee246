"""Tests for the experiment runner."""

import pytest

from repro.bench.experiment import run_experiment, run_figure_point
from repro.core import IndexConfig
from repro.workload import WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE

QUICK_SPEC = WorkloadSpec(num_objects=400, num_updates=500, num_queries=60, seed=2)
QUICK_CONFIG = IndexConfig(strategy="GBU", page_size=SMALL_PAGE_SIZE)


class TestRunExperiment:
    def test_produces_phase_metrics(self):
        result = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        assert result.update_phase.operations == QUICK_SPEC.num_updates
        assert result.query_phase.operations == QUICK_SPEC.num_queries
        assert result.avg_update_io > 0
        assert result.avg_query_io > 0
        assert result.update_phase.cpu_seconds >= 0

    def test_outcome_fractions_present_for_bottom_up(self):
        result = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        assert sum(result.outcome_fractions.values()) == pytest.approx(1.0)

    def test_tree_stats_reported(self):
        result = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        assert result.tree_stats["leaf"] > 0
        assert result.tree_stats["height"] >= 2

    def test_summary_ratio_only_for_gbu(self):
        gbu = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        td = run_experiment(QUICK_CONFIG.with_overrides(strategy="TD"), QUICK_SPEC)
        assert gbu.summary_size_ratio is not None and gbu.summary_size_ratio > 0
        assert td.summary_size_ratio is None

    def test_validation_can_be_enabled(self):
        run_experiment(QUICK_CONFIG, QUICK_SPEC, validate=True)

    def test_query_result_sink_collects_counts(self):
        sink = []
        run_experiment(QUICK_CONFIG, QUICK_SPEC, query_result_sink=sink)
        assert len(sink) == QUICK_SPEC.num_queries
        assert all(count >= 0 for count in sink)

    def test_same_spec_and_config_reproduce_identical_io(self):
        first = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        second = run_experiment(QUICK_CONFIG, QUICK_SPEC)
        assert first.update_phase.physical_io == second.update_phase.physical_io
        assert first.query_phase.physical_io == second.query_phase.physical_io


class TestRunFigurePoint:
    def test_config_overrides_applied(self):
        result = run_figure_point(
            "TD", QUICK_SPEC, config_overrides={"page_size": SMALL_PAGE_SIZE, "buffer_percent": 0.0}
        )
        assert result.config.buffer_percent == 0.0
        assert result.config.page_size == SMALL_PAGE_SIZE

    def test_param_overrides_applied(self):
        result = run_figure_point(
            "GBU",
            QUICK_SPEC,
            config_overrides={"page_size": SMALL_PAGE_SIZE},
            param_overrides={"epsilon": 0.05, "level_threshold": 1},
        )
        assert result.config.params.epsilon == 0.05
        assert result.config.params.level_threshold == 1

    def test_strategies_see_identical_workloads(self):
        """Query answers must match across strategies for the same spec."""
        sinks = {}
        for strategy in ("TD", "GBU"):
            sink = []
            config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE)
            run_experiment(config, QUICK_SPEC, query_result_sink=sink)
            sinks[strategy] = sink
        assert sinks["TD"] == sinks["GBU"]


class TestStrategyComparison:
    def test_gbu_update_io_at_most_td(self):
        results = {
            strategy: run_figure_point(
                strategy, QUICK_SPEC, config_overrides={"page_size": SMALL_PAGE_SIZE}
            )
            for strategy in ("TD", "GBU")
        }
        assert results["GBU"].avg_update_io <= results["TD"].avg_update_io
