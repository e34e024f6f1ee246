"""Experiment harness.

This package regenerates every table and figure of the paper's evaluation
(Section 5) at a configurable scale:

* :mod:`repro.bench.metrics` — the measured quantities (average disk I/O per
  update and per query, CPU time, throughput, update-outcome mix);
* :mod:`repro.bench.experiment` — runs one (index configuration, workload)
  pair through the load / update / query phases and collects metrics;
* :mod:`repro.bench.figures` — the figure table: one row per paper figure
  (Figures 5(a)-(h), 6(a)-(h), 7, 8, Table 1, the Section 4 cost analysis,
  the Section 3.1 naive-fallback observation and the engine figures), each
  with its runner and its paper-shape predicate;
* :mod:`repro.bench.reporting` — renders results as aligned text tables, the
  same rows/series the paper plots, and as the ``FIGURES.json`` table;
* :mod:`repro.bench.cli` — ``rtree-bottomup-bench``, a command-line front end.

``FIGURES.json`` at the repository root records every row's non-timing
columns at scale 0.05; the tier-1 suite regenerates and compares them, and
``benchmarks/bench_figures.py`` checks every predicate at bench scale.
"""

from repro.bench.experiment import ExperimentResult, PhaseMetrics, run_experiment, run_figure_point
from repro.bench.figures import FigureDefinition, all_figures, get_figure
from repro.bench.metrics import MetricRow
from repro.bench.reporting import format_table, render_figure_result

__all__ = [
    "ExperimentResult",
    "PhaseMetrics",
    "run_experiment",
    "run_figure_point",
    "FigureDefinition",
    "all_figures",
    "get_figure",
    "MetricRow",
    "format_table",
    "render_figure_result",
]
