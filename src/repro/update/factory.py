"""Strategy factory.

Experiments refer to update strategies by the short names the paper uses
("TD", "LBU", "GBU", plus "NAIVE" for the Section 3.1 strawman).  The factory
wires together whatever auxiliary structures each strategy needs:

* TD    — just the tree;
* NAIVE — tree + secondary hash index;
* LBU   — tree (built with parent pointers) + secondary hash index;
* GBU   — tree + secondary hash index + summary structure.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api.schema import SPEC_KEYS
from repro.rtree.tree import RTree
from repro.secondary import ObjectHashIndex
from repro.storage.stats import IOStatistics
from repro.summary import SummaryStructure
from repro.update.base import UpdateStrategy
from repro.update.generalized import GeneralizedBottomUpUpdate
from repro.update.localized import LocalizedBottomUpUpdate
from repro.update.naive import NaiveBottomUpUpdate
from repro.update.params import TuningParameters
from repro.update.topdown import TopDownUpdate


def strategy_names() -> List[str]:
    """Names accepted by :func:`make_strategy`: the ``config.strategy`` choices."""
    return list(SPEC_KEYS["config"]["strategy"].choices)


def strategy_requires_parent_pointers(name: str) -> bool:
    """``True`` when the named strategy needs leaf-level parent pointers."""
    return name.upper() == "LBU"


def make_strategy(
    name: str,
    tree: RTree,
    params: Optional[TuningParameters] = None,
    stats: Optional[IOStatistics] = None,
    hash_index: Optional[ObjectHashIndex] = None,
    summary: Optional[SummaryStructure] = None,
    use_summary_for_queries: bool = True,
) -> UpdateStrategy:
    """Build the update strategy *name* over *tree*.

    Auxiliary structures are created (and bootstrapped from the tree) when
    not supplied.  ``params`` defaults to the paper's Table 1 values.
    """
    key = name.upper()
    stats = stats if stats is not None else tree.disk.stats
    params = params if params is not None else TuningParameters.paper_defaults()

    if key == "TD":
        return TopDownUpdate(tree, stats=stats)

    if hash_index is None:
        hash_index = ObjectHashIndex.build_from_tree(tree, stats=stats)

    if key == "NAIVE":
        return NaiveBottomUpUpdate(tree, hash_index, stats=stats)
    if key == "LBU":
        return LocalizedBottomUpUpdate(tree, hash_index, params=params, stats=stats)
    if key == "GBU":
        if summary is None:
            summary = SummaryStructure.build_from_tree(tree)
        return GeneralizedBottomUpUpdate(
            tree,
            hash_index,
            summary,
            params=params,
            stats=stats,
            use_summary_for_queries=use_summary_for_queries,
        )
    raise ValueError(f"unknown strategy {name!r}; expected one of {strategy_names()}")
