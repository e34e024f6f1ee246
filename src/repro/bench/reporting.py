"""Text rendering of experiment results.

The paper presents its evaluation as plots; this harness prints the same
series as aligned text tables — one row per (x value, strategy) — so that the
shape of every figure (who wins, by how much, where the crossovers are) can
be read off a terminal or a CI log without plotting.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.bench.figures import FigureDefinition
from repro.bench.metrics import MetricRow, pivot_by_strategy  # noqa: F401 (re-export)

#: MetricRow fields that measure time: they differ run to run, so
#: ``FIGURES.json`` leaves them out.
TIMING_FIELDS = ("update_cpu_seconds", "query_cpu_seconds")


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = None) -> str:
    """Render dictionaries as an aligned text table.

    Columns default to the union of keys across rows, in first-seen order.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {column: len(str(column)) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for column in columns:
            value = row.get(column, "")
            text = f"{value:g}" if isinstance(value, float) else str(value)
            widths[column] = max(widths[column], len(text))
            rendered.append(text)
        rendered_rows.append(rendered)

    def line(cells: Iterable[str]) -> str:
        return "  ".join(cell.ljust(widths[column]) for cell, column in zip(cells, columns))

    header = line(str(column) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    body = "\n".join(line(cells) for cells in rendered_rows)
    return "\n".join([header, separator, body])


def rows_to_dicts(rows: Sequence[MetricRow]) -> List[Dict[str, object]]:
    """Convert metric rows to flat dictionaries for :func:`format_table`."""
    return [row.as_dict() for row in rows]


def render_figure_result(
    definition: FigureDefinition, rows: Sequence[MetricRow]
) -> str:
    """Render one figure's full report: header, expectations, and the table."""
    lines = [
        f"=== {definition.paper_reference}: {definition.title} ===",
    ]
    if definition.expected_shape:
        lines.append(f"expected shape: {definition.expected_shape}")
    if definition.notes:
        lines.append(f"note: {definition.notes}")
    lines.append("")
    lines.append(format_table(rows_to_dicts(rows)))
    return "\n".join(lines)


def row_record(row: MetricRow) -> Dict[str, object]:
    """The non-timing columns of *row*, extras flattened in, as recorded."""
    record = {
        name: value
        for name, value in vars(row).items()
        if name != "extras" and name not in TIMING_FIELDS and value is not None
    }
    record.update(row.extras)
    return record


def render_figures_json(
    results: Mapping[str, Sequence[MetricRow]], scale: float, seed: int
) -> str:
    """The ``FIGURES.json`` table: every figure's records, one row per line."""
    blocks = [
        f"    {json.dumps(key)}: [\n"
        + ",\n".join("      " + json.dumps(row_record(row)) for row in rows)
        + "\n    ]"
        for key, rows in results.items()
    ]
    return (
        "{\n"
        f'  "scale": {json.dumps(scale)},\n'
        f'  "seed": {json.dumps(seed)},\n'
        '  "figures": {\n' + ",\n".join(blocks) + "\n  }\n}\n"
    )
