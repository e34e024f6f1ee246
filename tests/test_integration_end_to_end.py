"""End-to-end integration tests: the full pipeline the benchmarks use.

These tests run miniature versions of the paper's experiments through the
public API only — exactly what a downstream user would do — and check the
qualitative findings that the paper's evaluation is built on.
"""

import pytest

from repro.bench.experiment import run_figure_point
from repro.bench.reporting import pivot_by_strategy
from repro.concurrency import OnlineOperationEngine
from repro.core import IndexConfig
from repro.geometry import Rect
from repro.shard import ShardedIndex
from repro.workload import WorkloadGenerator, WorkloadSpec

from tests.conftest import SMALL_PAGE_SIZE


SPEC = WorkloadSpec(num_objects=900, num_updates=1800, num_queries=150, seed=7)
OVERRIDES = {"page_size": SMALL_PAGE_SIZE}


@pytest.fixture(scope="module")
def three_strategy_results():
    """One shared run of TD / LBU / GBU on an identical workload."""
    return {
        strategy: run_figure_point(strategy, SPEC, config_overrides=OVERRIDES)
        for strategy in ("TD", "LBU", "GBU")
    }


class TestHeadlineFindings:
    def test_bottom_up_beats_top_down_on_update_io(self, three_strategy_results):
        results = three_strategy_results
        assert results["GBU"].avg_update_io < results["TD"].avg_update_io
        assert results["LBU"].avg_update_io < results["TD"].avg_update_io

    def test_gbu_queries_do_not_degrade(self, three_strategy_results):
        results = three_strategy_results
        assert results["GBU"].avg_query_io <= results["TD"].avg_query_io * 1.1

    def test_lbu_queries_slightly_worse_than_td(self, three_strategy_results):
        """The paper's Figure 5(b): LBU's all-direction enlargement costs
        query performance relative to TD."""
        results = three_strategy_results
        assert results["LBU"].avg_query_io >= results["TD"].avg_query_io * 0.95

    def test_gbu_rarely_needs_top_down(self, three_strategy_results):
        gbu = three_strategy_results["GBU"]
        assert gbu.outcome_fractions.get("top_down", 0.0) < 0.1

    def test_summary_structure_is_tiny(self, three_strategy_results):
        gbu = three_strategy_results["GBU"]
        assert gbu.summary_size_ratio < 0.05

    def test_trees_have_paper_like_height(self, three_strategy_results):
        for result in three_strategy_results.values():
            assert 3 <= result.tree_stats["height"] <= 6


class TestBufferEffect:
    def test_buffering_reduces_update_io_for_every_strategy(self):
        small_spec = SPEC.with_overrides(num_updates=800, num_queries=50)
        for strategy in ("TD", "LBU", "GBU"):
            unbuffered = run_figure_point(
                strategy, small_spec, config_overrides=dict(OVERRIDES, buffer_percent=0.0)
            )
            buffered = run_figure_point(
                strategy, small_spec, config_overrides=dict(OVERRIDES, buffer_percent=10.0)
            )
            assert buffered.avg_update_io < unbuffered.avg_update_io


class TestThroughputIntegration:
    def test_gbu_throughput_advantage_grows_with_update_fraction(self):
        ratios = []
        for fraction in (0.25, 1.0):
            tps = {}
            for strategy in ("TD", "GBU"):
                spec = WorkloadSpec(
                    num_objects=800, num_updates=0, num_queries=0, seed=3, query_max_side=0.15
                )
                generator = WorkloadGenerator(spec)
                index = ShardedIndex(
                    IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
                    num_shards=1,
                )
                index.load(generator.initial_objects())
                engine = OnlineOperationEngine(index, num_clients=8)
                result = engine.run(generator.operations(250, fraction))
                tps[strategy] = result.throughput
            ratios.append(tps["GBU"] / tps["TD"])
        assert ratios[-1] > 1.0
        assert ratios[-1] >= ratios[0] * 0.9  # the advantage does not collapse


class TestQueryAgreementAcrossStrategies:
    def test_query_answers_identical(self):
        sinks = {}
        for strategy in ("TD", "LBU", "GBU"):
            sink = []
            from repro.bench.experiment import run_experiment

            run_experiment(
                IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE),
                SPEC.with_overrides(num_updates=600, num_queries=80),
                query_result_sink=sink,
            )
            sinks[strategy] = sink
        assert sinks["TD"] == sinks["LBU"] == sinks["GBU"]
