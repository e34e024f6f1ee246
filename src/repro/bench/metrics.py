"""Measured quantities of an experiment run.

The paper reports, per experimental point:

* **Avg Disk I/O (update)** — physical page transfers per update (Figures
  5(a), 5(e), 5(g), 6(a), 6(c), 6(e), 6(g), 7(a));
* **Avg Disk I/O (query)** — physical page transfers per query (the matching
  right-hand figures);
* **Total CPU time** — Figures 5(c)-(d);
* **Throughput (tps)** — Figure 8.

:class:`MetricRow` is one row of a result table: an x-value (the swept
parameter), the strategy, and its measured metrics.  Rows are plain data so
the reporting layer and the figure predicates can both consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


@dataclass
class MetricRow:
    """One (x value, strategy) measurement."""

    x_label: str
    x_value: object
    strategy: str
    avg_update_io: Optional[float] = None
    avg_query_io: Optional[float] = None
    update_cpu_seconds: Optional[float] = None
    query_cpu_seconds: Optional[float] = None
    throughput: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary used by the reporting layer and JSON output."""
        row: Dict[str, object] = {
            "x_label": self.x_label,
            "x": self.x_value,
            "strategy": self.strategy,
        }
        if self.avg_update_io is not None:
            row["update_io"] = round(self.avg_update_io, 3)
        if self.avg_query_io is not None:
            row["query_io"] = round(self.avg_query_io, 3)
        if self.update_cpu_seconds is not None:
            row["update_cpu_s"] = round(self.update_cpu_seconds, 4)
        if self.query_cpu_seconds is not None:
            row["query_cpu_s"] = round(self.query_cpu_seconds, 4)
        if self.throughput is not None:
            row["throughput_tps"] = round(self.throughput, 1)
        for key, value in self.extras.items():
            row[key] = round(value, 4) if isinstance(value, float) else value
        return row


def pivot_by_strategy(
    rows: Sequence[MetricRow], metric: str = "avg_update_io"
) -> Dict[object, Dict[str, float]]:
    """Pivot rows into ``{x_value: {strategy: metric}}`` for predicates and charts."""
    table: Dict[object, Dict[str, float]] = {}
    for row in rows:
        value = getattr(row, metric, None)
        if value is None:
            value = row.extras.get(metric)
        if value is None:
            continue
        table.setdefault(row.x_value, {})[row.strategy] = value
    return table
