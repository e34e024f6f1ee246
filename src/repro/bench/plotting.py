"""ASCII charts for experiment series.

The paper presents its results as line charts; the harness reports exact
numbers as tables (:mod:`repro.bench.reporting`), and this module adds a
terminal-friendly chart so the *shape* of a figure — who is on top, where
lines cross — can be seen at a glance without a plotting stack.

Charts are deliberately simple: one row per (x value, strategy), a horizontal
bar scaled to the maximum of the plotted metric, and the numeric value at the
end of the bar.  ``rtree-bottomup-bench <figure> --chart`` appends them to the
textual report.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench.metrics import MetricRow, pivot_by_strategy

#: Metrics that can be charted, with their human-readable axis label.
CHARTABLE_METRICS = {
    "avg_update_io": "avg disk I/O per update",
    "avg_query_io": "avg disk I/O per query",
    "throughput": "throughput (tps)",
}


def horizontal_bar_chart(
    rows: Sequence[MetricRow],
    metric: str = "avg_update_io",
    width: int = 40,
    strategies: Optional[Sequence[str]] = None,
) -> str:
    """Render *metric* across the rows as a horizontal bar chart.

    Returns an empty string when no row carries the metric (e.g. asking for
    throughput on an I/O figure), so callers can simply concatenate the
    result.
    """
    if width < 10:
        raise ValueError("width must be at least 10 characters")
    pivot = pivot_by_strategy(rows, metric)
    if not pivot:
        return ""

    if strategies is None:
        seen: List[str] = []
        for values in pivot.values():
            for name in values:
                if name not in seen:
                    seen.append(name)
        strategies = seen

    maximum = max(
        value
        for values in pivot.values()
        for name, value in values.items()
        if name in strategies
    )
    if maximum <= 0:
        return ""

    label = CHARTABLE_METRICS.get(metric, metric)
    x_width = max(len(str(x)) for x in pivot) + 2
    name_width = max(len(name) for name in strategies) + 1

    lines = [f"[{label}]  (full bar = {maximum:g})"]
    for x_value in pivot:
        values = pivot[x_value]
        for position, name in enumerate(strategies):
            if name not in values:
                continue
            value = values[name]
            bar = "#" * max(1, round(width * value / maximum))
            x_label = str(x_value) if position == 0 else ""
            lines.append(
                f"{x_label:<{x_width}}{name:<{name_width}}|{bar:<{width}} {value:g}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def chart_all_metrics(rows: Sequence[MetricRow], width: int = 40) -> str:
    """Concatenate charts for every chartable metric present in *rows*."""
    sections: List[str] = []
    for metric in CHARTABLE_METRICS:
        chart = horizontal_bar_chart(rows, metric=metric, width=width)
        if chart:
            sections.append(chart)
    return "\n".join(sections)
