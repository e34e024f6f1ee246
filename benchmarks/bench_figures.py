"""Every figure of the paper at bench scale, checked against its paper shape.

One test per row of the figure table (:mod:`repro.bench.figures`): run the
figure once, write its report to ``benchmarks/reports/<key>.txt`` and call
the row's paper-shape predicate ("GBU below TD at every ε", ...).  The
predicates need bench-scale workloads; the numbers themselves are pinned at
scale 0.05 by ``FIGURES.json`` and the tier-1 suite.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -q -k fig6_buffers
"""

import pytest

from repro.bench import all_figures, get_figure


@pytest.mark.parametrize("key", [definition.key for definition in all_figures()])
def test_figure_has_paper_shape(figure_runner, key):
    get_figure(key).check(figure_runner(key))
