"""Disk-based R-tree.

This package implements the index structure the paper builds on: a Guttman
R-tree stored on the simulated paged disk, with

* leaf entries ``(oid, rect)`` and internal entries ``(ptr, rect)``
  (:mod:`repro.rtree.node`),
* Guttman's quadratic node split (:mod:`repro.rtree.split`),
* top-down insertion and deletion with Guttman's CondenseTree re-insertion
  (:mod:`repro.rtree.tree`),
* window (range) queries and a kNN extension (:mod:`repro.rtree.tree`),
* STR bulk loading used to build the initial index for experiments
  (:mod:`repro.rtree.bulk`),
* structural invariant checking used heavily by the test suite
  (:mod:`repro.rtree.validation`).

Observers (:mod:`repro.rtree.observers`) let the secondary object-ID index
and the main-memory summary structure track the tree without the tree
knowing about them.
"""

from repro.rtree.node import Entry, Node
from repro.rtree.observers import TreeObserver
from repro.rtree.split import QuadraticSplit
from repro.rtree.tree import RTree
from repro.rtree.bulk import bulk_load_str
from repro.rtree.validation import ValidationError, validate_tree

__all__ = [
    "Entry",
    "Node",
    "TreeObserver",
    "QuadraticSplit",
    "RTree",
    "bulk_load_str",
    "validate_tree",
    "ValidationError",
]
