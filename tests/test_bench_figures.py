"""Tests for the figure table.

The registry checks are cheap.  The gate runs every figure once at the scale
and seed ``FIGURES.json`` records and compares every non-timing column with
the file; the paper-shape predicates need bench-scale workloads and run in
``benchmarks/bench_figures.py``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.bench import all_figures, get_figure
from repro.bench.figures import TABLE1_PARAMETERS
from repro.bench.reporting import row_record

FIGURES_JSON = Path(__file__).resolve().parents[1] / "FIGURES.json"
RECORD = json.loads(FIGURES_JSON.read_text(encoding="utf-8"))
RERECORD = (
    "PYTHONPATH=src python -m repro.bench.cli all "
    f"--scale {RECORD['scale']:g} --seed {RECORD['seed']} --output FIGURES.json"
)
KEYS = [definition.key for definition in all_figures()]


class TestRegistry:
    def test_all_registered_figures_have_unique_keys(self):
        assert len(KEYS) == len(set(KEYS))

    def test_every_paper_figure_is_covered(self):
        references = " ".join(definition.paper_reference for definition in all_figures())
        for expected in (
            "Table 1",
            "Figure 5(a)-(d)",
            "Figure 5(e)-(f)",
            "Figure 5(g)-(h)",
            "Figure 6(a)-(b)",
            "Figure 6(c)-(d)",
            "Figure 6(e)-(f)",
            "Figure 6(g)-(h)",
            "Figure 7",
            "Figure 8",
            "Section 4",
            "Section 3.1",
        ):
            assert expected in references

    def test_get_figure_unknown_key(self):
        with pytest.raises(KeyError):
            get_figure("fig99_nonexistent")

    def test_table1_lists_paper_parameters(self):
        assert "epsilon" in TABLE1_PARAMETERS
        assert 0.003 in TABLE1_PARAMETERS["epsilon"]
        assert "max_distance_moved" in TABLE1_PARAMETERS

    @pytest.mark.parametrize("key", KEYS)
    def test_invalid_scale_rejected(self, key):
        with pytest.raises(ValueError):
            get_figure(key).run(scale=0.0)

    def test_every_figure_has_a_recorded_result(self):
        assert list(RECORD["figures"]) == KEYS


def _same(recorded, observed) -> bool:
    numbers = (int, float)
    if isinstance(recorded, numbers) and isinstance(observed, numbers):
        return math.isclose(recorded, observed, rel_tol=1e-9)
    return recorded == observed


@pytest.mark.parametrize("key", KEYS)
def test_figure_matches_record(key):
    """The figure reproduces every non-timing column ``FIGURES.json`` holds.

    Counts and ratios of counts compare exactly under the tolerance; it
    absorbs a last-digit change in a compensated float ``sum()``.
    """
    recorded = RECORD["figures"].get(key, [])
    observed = [
        row_record(row)
        for row in get_figure(key).run(scale=RECORD["scale"], seed=RECORD["seed"])
    ]
    problems = []
    if len(observed) != len(recorded):
        problems.append(f"{len(observed)} rows, FIGURES.json records {len(recorded)}")
    for old, new in zip(recorded, observed):
        for column in dict.fromkeys([*old, *new]):
            if not _same(old.get(column), new.get(column)):
                problems.append(
                    f"x={new.get('x_value')!r} series={new.get('strategy')!r} "
                    f"column {column!r}: recorded {old.get(column)!r}, "
                    f"observed {new.get(column)!r}"
                )
    assert not problems, (
        f"figure {key!r} moved from FIGURES.json:\n  "
        + "\n  ".join(problems)
        + f"\nIf the change is intended, re-record the table and put a "
        f"before/after table in CHANGES.md:\n  {RERECORD}"
    )
