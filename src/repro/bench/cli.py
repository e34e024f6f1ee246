"""Command-line front end: ``rtree-bottomup-bench``.

Examples::

    # list the available experiments
    rtree-bottomup-bench --list

    # reproduce Figure 5(a)-(d) at the default (quick) scale
    rtree-bottomup-bench fig5_epsilon

    # reproduce the throughput figure at 4x scale with a fixed seed
    rtree-bottomup-bench fig8_throughput --scale 4 --seed 7

    # run everything and write the combined report to a file
    rtree-bottomup-bench all --output results.txt

    # re-record the checked-in figure table (a .json output path writes
    # every figure's non-timing columns instead of the text report)
    rtree-bottomup-bench all --scale 0.05 --output FIGURES.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.figures import DEFAULT_SEED, all_figures, get_figure
from repro.bench.metrics import MetricRow
from repro.bench.reporting import render_figure_result, render_figures_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtree-bottomup-bench",
        description=(
            "Reproduce the evaluation figures of 'Supporting Frequent Updates in "
            "R-Trees: A Bottom-Up Approach' (VLDB 2003)."
        ),
    )
    parser.add_argument(
        "figure",
        nargs="?",
        default=None,
        help="figure key to run (e.g. fig5_epsilon), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale multiplier (1.0 = quick laptop scale)",
    )
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help=(
            "write the report to this file as well; a .json path gets the "
            "figure table (non-timing columns, the FIGURES.json format)"
        ),
    )
    parser.add_argument(
        "--report-dir",
        type=str,
        default=None,
        help=(
            "also write one report file per figure (<key>.txt) into this "
            "directory, creating it if needed"
        ),
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append ASCII bar charts of the measured series to the report",
    )
    return parser


def list_figures() -> str:
    lines = ["available experiments:"]
    for definition in all_figures():
        lines.append(f"  {definition.key:18s} {definition.paper_reference:18s} {definition.title}")
    return "\n".join(lines)


Results = Dict[str, Tuple[List[MetricRow], float]]


def run_figures(figure_key: str, scale: float, seed: Optional[int]) -> Results:
    """Run one experiment (or 'all'): each figure's rows and wall-clock seconds."""
    keys = [d.key for d in all_figures()] if figure_key == "all" else [figure_key]
    results: Results = {}
    for key in keys:
        started = time.time()
        results[key] = (get_figure(key).run(scale=scale, seed=seed), time.time() - started)
    return results


def render_report(
    results: Results, scale: float, chart: bool = False, report_dir: Optional[str] = None
) -> str:
    """Render the report of :func:`run_figures`.

    With *report_dir*, each figure's report is additionally written to
    ``<report_dir>/<figure_key>.txt`` so individual figures can be inspected
    (and uploaded as CI artifacts) without splitting the combined report.
    """
    directory: Optional[Path] = None
    if report_dir is not None:
        directory = Path(report_dir)
        directory.mkdir(parents=True, exist_ok=True)
    reports: List[str] = []
    for key, (rows, elapsed) in results.items():
        rendered_figure = render_figure_result(get_figure(key), rows)
        reports.append(rendered_figure)
        if chart:
            from repro.bench.plotting import chart_all_metrics

            rendered = chart_all_metrics(rows)
            if rendered:
                reports.append(rendered)
        if directory is not None:
            (directory / f"{key}.txt").write_text(
                rendered_figure + "\n", encoding="utf-8"
            )
        reports.append(f"(wall clock: {elapsed:.1f}s at scale {scale:g})\n")
    return "\n".join(reports)


def run(
    figure_key: str,
    scale: float,
    seed: Optional[int],
    chart: bool = False,
    report_dir: Optional[str] = None,
) -> str:
    """Run one experiment (or 'all') and return the rendered report."""
    return render_report(run_figures(figure_key, scale, seed), scale, chart, report_dir)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or args.figure is None:
        print(list_figures())
        return 0

    try:
        results = run_figures(args.figure, scale=args.scale, seed=args.seed)
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2

    report = render_report(results, args.scale, args.chart, args.report_dir)
    print(report)
    if args.output:
        if args.output.endswith(".json"):
            seed = DEFAULT_SEED if args.seed is None else args.seed
            rows = {key: key_rows for key, (key_rows, _) in results.items()}
            report = render_figures_json(rows, args.scale, seed)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
