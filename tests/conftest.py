"""Shared pytest fixtures.

The fixtures build small instances of every layer of the stack — a paged
disk, a buffered R-tree, loaded indexes for each update strategy — so
individual test modules can focus on behaviour instead of wiring.  All
randomness is seeded; tests are deterministic.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, kernels
from repro.rtree import RTree
from repro.storage import BufferPool, DiskManager, IOStatistics, PageLayout
from repro.workload import WorkloadGenerator, WorkloadSpec


# A page layout small enough that trees of a few hundred objects have
# multiple levels, which is what most structural tests need.
SMALL_PAGE_SIZE = 256


@pytest.fixture
def stats() -> IOStatistics:
    return IOStatistics()


@pytest.fixture
def disk(stats: IOStatistics) -> DiskManager:
    return DiskManager(page_size=SMALL_PAGE_SIZE, stats=stats)


@pytest.fixture
def unbuffered(disk: DiskManager, stats: IOStatistics) -> BufferPool:
    return BufferPool(disk, capacity=0, stats=stats)


@pytest.fixture
def small_layout() -> PageLayout:
    return PageLayout(page_size=SMALL_PAGE_SIZE)


@pytest.fixture
def empty_tree(unbuffered: BufferPool, small_layout: PageLayout) -> RTree:
    return RTree(unbuffered, layout=small_layout)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20030915)  # VLDB 2003 conference date


@contextmanager
def using_backend(name: str):
    """Run the block under kernel backend *name*, then restore the previous one."""
    previous = kernels.get_backend()
    kernels.set_backend(name)
    try:
        yield
    finally:
        kernels.set_backend(previous)


def make_points(count: int, seed: int = 7) -> list:
    generator = random.Random(seed)
    return [(oid, Point(generator.random(), generator.random())) for oid in range(count)]


@pytest.fixture
def populated_tree(empty_tree: RTree) -> RTree:
    """A tree with 400 uniformly distributed points inserted one by one."""
    for oid, point in make_points(400):
        empty_tree.insert(oid, point)
    return empty_tree


def build_index(strategy: str, num_objects: int = 600, seed: int = 11, **config_overrides):
    """Build and load a MovingObjectIndex for the given strategy."""
    config = IndexConfig(strategy=strategy, page_size=SMALL_PAGE_SIZE, **config_overrides)
    index = MovingObjectIndex(config)
    index.load(make_points(num_objects, seed=seed))
    return index


@pytest.fixture(params=["TD", "NAIVE", "LBU", "GBU"])
def any_strategy_index(request) -> MovingObjectIndex:
    """A loaded index, parameterised over every update strategy."""
    return build_index(request.param)


@pytest.fixture
def gbu_index() -> MovingObjectIndex:
    return build_index("GBU")


@pytest.fixture
def workload_generator() -> WorkloadGenerator:
    spec = WorkloadSpec(num_objects=300, num_updates=600, num_queries=50, seed=5)
    return WorkloadGenerator(spec)
