"""Shared fixtures for the benchmark suite.

``bench_figures.py`` runs every row of the figure table
(:mod:`repro.bench.figures`) once through pytest-benchmark and checks the
row's paper-shape predicate.

Workload scale
--------------
The paper's experiments run millions of objects and updates; the figure
benchmarks default to a scale that finishes in about a minute on a laptop.
Set the ``REPRO_BENCH_SCALE`` environment variable to grow every workload
proportionally (and ``REPRO_BENCH_SEED`` to change the workload seed), e.g.::

    REPRO_BENCH_SCALE=4 pytest benchmarks/bench_figures.py

Reports
-------
Each figure is rendered as a text table (the same series the paper plots)
and written to ``benchmarks/reports/<figure>.txt``, which is not tracked:
``FIGURES.json`` at the repository root is the checked-in record.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# The paper-shape predicates live in the library; rewrite their asserts so a
# failing one reports the values it compared.
pytest.register_assert_rewrite("repro.bench.figures")

from repro.bench import get_figure, render_figure_result  # noqa: E402

#: Default scale of the benchmark workloads (1.0 = the quick scale used by
#: the CLI; the recorded table uses 0.05).
DEFAULT_SCALE = 0.5

REPORT_DIRECTORY = Path(__file__).parent / "reports"


def bench_scale() -> float:
    """Scale multiplier for the benchmark workloads."""
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", ""))
    except ValueError:  # unset or not a number
        scale = DEFAULT_SCALE
    return max(scale, 0.05)


def bench_seed() -> int:
    """Workload seed (override with REPRO_BENCH_SEED)."""
    try:
        return int(os.environ.get("REPRO_BENCH_SEED", "1"))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def seed() -> int:
    return bench_seed()


@pytest.fixture
def figure_runner(benchmark, scale, seed):
    """Run a figure definition once under pytest-benchmark and report it.

    Returns the list of :class:`~repro.bench.metrics.MetricRow` produced, so
    the calling benchmark can check the figure's paper shape.
    """

    def _run(figure_key: str):
        definition = get_figure(figure_key)
        rows = benchmark.pedantic(
            definition.run,
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        report = render_figure_result(definition, rows)
        REPORT_DIRECTORY.mkdir(exist_ok=True)
        report_path = REPORT_DIRECTORY / f"{figure_key}.txt"
        report_path.write_text(report + "\n", encoding="utf-8")
        print()
        print(report)
        return rows

    return _run
