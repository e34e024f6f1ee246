"""Analytical cost model (Section 4 of the paper).

The paper compares the worst-case cost of a bottom-up update with the
best-case cost of a top-down update and concludes that the former is bounded
by the latter.  :mod:`repro.cost.model` implements those formulas so that the
benchmark harness can place the analytical curves next to the measured
averages (the ``cost_model`` figure).
"""

from repro.cost.model import (
    BottomUpCostModel,
    TopDownCostModel,
    TreeShape,
    expected_query_node_accesses,
    window_overlap_probability,
)

__all__ = [
    "TreeShape",
    "TopDownCostModel",
    "BottomUpCostModel",
    "expected_query_node_accesses",
    "window_overlap_probability",
]
