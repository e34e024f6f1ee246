"""Update strategies — the paper's primary contribution.

* :class:`~repro.update.topdown.TopDownUpdate` (**TD**) — the traditional
  R-tree update: a top-down delete traversal followed by a top-down insert.
* :class:`~repro.update.naive.NaiveBottomUpUpdate` (**NAIVE**) — the
  preliminary idea at the start of Section 3.1: in place, or give up and go
  top-down (~82 % of its updates on uniform data degrade to top-down).
* :class:`~repro.update.localized.LocalizedBottomUpUpdate` (**LBU**) —
  Algorithm 1: reach the leaf through the secondary object-ID hash index,
  update in place, enlarge the leaf MBR by ε (bounded by the parent MBR,
  reached through a leaf-level parent pointer), shift to a sibling, or fall
  back to top-down.
* :class:`~repro.update.generalized.GeneralizedBottomUpUpdate` (**GBU**) —
  Algorithm 2: driven by the main-memory summary structure, with directional
  ε-extension (``iExtendMBR``, Algorithm 4), sibling shifting with
  piggybacking, and bounded ascent (``FindParent``, Algorithm 3).

All implement :class:`~repro.update.base.UpdateStrategy` and are built by
:func:`~repro.update.factory.make_strategy`.  Each bottom-up strategy writes
its algorithm once, as a ladder over a leaf bucket of n ≥ 1 requests
(``update_group``); a per-operation ``update`` is the bucket of one, and
:mod:`repro.update.batch` groups operation streams into buckets.  Lock-scope
prediction for the concurrent engine (:mod:`repro.concurrency.engine`)
follows the same ladder: ``lock_scope`` is the bucket of one of
``group_lock_scope``.  The top-down baseline locks every leaf its descents
may visit; the bottom-up strategies lock the object's leaf, candidate shift
siblings and the adjusted ancestors — the Section 3.2.2 asymmetry.
"""

from repro.update.base import BatchUpdate, UpdateOutcome, UpdateStrategy, outcome_fractions
from repro.update.batch import BatchExecutor, DeleteOp
from repro.update.factory import make_strategy, strategy_names
from repro.update.generalized import GeneralizedBottomUpUpdate
from repro.update.localized import LocalizedBottomUpUpdate
from repro.update.naive import NaiveBottomUpUpdate
from repro.update.params import TuningParameters
from repro.update.topdown import TopDownUpdate

__all__ = [
    "BatchExecutor",
    "BatchUpdate",
    "DeleteOp",
    "UpdateOutcome",
    "UpdateStrategy",
    "TuningParameters",
    "TopDownUpdate",
    "NaiveBottomUpUpdate",
    "LocalizedBottomUpUpdate",
    "GeneralizedBottomUpUpdate",
    "make_strategy",
    "outcome_fractions",
    "strategy_names",
]
