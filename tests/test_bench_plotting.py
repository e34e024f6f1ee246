"""Tests for the ASCII chart rendering of experiment series."""

import pytest

from repro.bench import MetricRow
from repro.bench.plotting import chart_all_metrics, horizontal_bar_chart


def io_rows():
    return [
        MetricRow("epsilon", 0.003, "TD", avg_update_io=12.0, avg_query_io=6.0),
        MetricRow("epsilon", 0.003, "GBU", avg_update_io=6.0, avg_query_io=4.0),
        MetricRow("epsilon", 0.03, "TD", avg_update_io=12.0, avg_query_io=6.0),
        MetricRow("epsilon", 0.03, "GBU", avg_update_io=4.0, avg_query_io=5.0),
    ]


def throughput_rows():
    return [
        MetricRow("fraction", 0.5, "TD", throughput=100.0),
        MetricRow("fraction", 0.5, "GBU", throughput=200.0),
    ]


class TestHorizontalBarChart:
    def test_contains_every_strategy_and_value(self):
        chart = horizontal_bar_chart(io_rows(), metric="avg_update_io")
        assert "TD" in chart and "GBU" in chart
        assert "12" in chart and "4" in chart

    def test_bar_lengths_scale_with_values(self):
        chart = horizontal_bar_chart(io_rows(), metric="avg_update_io", width=40)
        lines = [line for line in chart.splitlines() if "|" in line]
        td_bar = next(line for line in lines if "TD" in line).split("|")[1]
        gbu_bar = next(line for line in lines if "GBU" in line).split("|")[1]
        assert td_bar.count("#") > gbu_bar.count("#")
        # The largest value fills (approximately) the full width.
        assert td_bar.count("#") == 40

    def test_missing_metric_yields_empty_string(self):
        assert horizontal_bar_chart(io_rows(), metric="throughput") == ""

    def test_explicit_strategy_selection(self):
        chart = horizontal_bar_chart(io_rows(), metric="avg_update_io", strategies=["GBU"])
        assert "GBU" in chart and "TD" not in chart

    def test_narrow_width_rejected(self):
        with pytest.raises(ValueError):
            horizontal_bar_chart(io_rows(), width=5)

    def test_chart_mentions_metric_label(self):
        chart = horizontal_bar_chart(io_rows(), metric="avg_query_io")
        assert "query" in chart


class TestChartAllMetrics:
    def test_combines_available_metrics(self):
        combined = chart_all_metrics(io_rows())
        assert "update" in combined and "query" in combined
        assert "throughput" not in combined

    def test_throughput_only_rows(self):
        combined = chart_all_metrics(throughput_rows())
        assert "throughput" in combined
        assert "update" not in combined

    def test_empty_rows(self):
        assert chart_all_metrics([]) == ""


class TestCliIntegration:
    def test_chart_flag_appends_charts(self):
        from repro.bench.cli import render_report

        output = render_report({"naive_fallback": (io_rows(), 0.0)}, scale=1.0, chart=True)
        assert "avg disk I/O per update" in output
        assert "#" in output
