"""GSTD-style workload generator.

:class:`WorkloadGenerator` realises a :class:`~repro.workload.spec.WorkloadSpec`:
it produces the initial object placement, a reproducible stream of update
requests (object id, old position, new position), and the query windows.
Every stream is driven by the spec's seed, so two generators built from the
same spec produce identical workloads — the property that lets the benchmark
harness run TD, LBU and GBU on byte-identical inputs, as the paper does.

The generator keeps track of each object's current position: updates are
"move object *o* from where it is to a new nearby position", which is exactly
the semantics of the paper's monitoring applications (the new position
depends on the previous one through the movement model).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Tuple

import repro.api.operations as api_ops
from repro.geometry import Point, Rect
from repro.workload.distributions import initial_positions
from repro.workload.movement import MovementModel
from repro.workload.queries import QueryWorkload
from repro.workload.spec import WorkloadSpec

UpdateRequest = Tuple[int, Point, Point]  # (oid, old_position, new_position)


def _chunks(items: Iterable, batch_size: int) -> Iterator[List]:
    """Yield *items* in lists of *batch_size* (the last one may be shorter)."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batch: List = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


class WorkloadGenerator:
    """Produces the initial data, update stream and query stream of a spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._movement = MovementModel(
            max_distance=spec.max_distance, seed=random.Random(spec.seed + 1)
        )
        self._queries = QueryWorkload(
            max_side=spec.query_max_side,
            min_side=spec.query_min_side,
            seed=random.Random(spec.seed + 2),
        )
        distribution_kwargs = {}
        if spec.distribution.lower() == "hotspot":
            distribution_kwargs = {
                "cells": spec.hotspot_cells,
                "exponent": spec.hotspot_exponent,
            }
        self._positions: List[Point] = initial_positions(
            spec.distribution,
            spec.num_objects,
            seed=random.Random(spec.seed),
            **distribution_kwargs,
        )

    # ------------------------------------------------------------------
    # Initial data
    # ------------------------------------------------------------------
    def initial_objects(self) -> List[Tuple[int, Point]]:
        """``(oid, position)`` pairs for the initial index load."""
        return list(enumerate(self._positions))

    def current_position(self, oid: int) -> Point:
        """The generator's view of where *oid* currently is."""
        return self._positions[oid]

    # ------------------------------------------------------------------
    # Update stream
    # ------------------------------------------------------------------
    def updates(self, count: int = None) -> Iterator[UpdateRequest]:
        """Yield *count* update requests (default: the spec's ``num_updates``).

        Objects are picked uniformly at random; each request moves the picked
        object one movement-model step from its current position.  The
        generator's own position table advances as requests are produced, so
        consuming the stream twice requires two generators (by design — a
        workload is a single reproducible sequence).
        """
        if count is None:
            count = self.spec.num_updates
        for _ in range(count):
            oid = self._rng.randrange(self.spec.num_objects)
            old = self._positions[oid]
            new = self._movement.next_position(oid, old)
            self._positions[oid] = new
            yield oid, old, new

    # ------------------------------------------------------------------
    # Batched update stream (batch execution engine)
    # ------------------------------------------------------------------
    def update_batches(
        self, batch_size: int, count: int = None
    ) -> Iterator[List[UpdateRequest]]:
        """Yield the update stream chopped into lists of *batch_size*.

        The concatenation of the yielded batches is exactly the sequence
        :meth:`updates` would produce from the same generator state (the
        last batch may be shorter), so per-operation and batched executions
        of one spec consume byte-identical workloads — the property the
        batch-vs-per-op benchmark relies on.
        """
        return _chunks(self.updates(count), batch_size)

    # ------------------------------------------------------------------
    # Query stream
    # ------------------------------------------------------------------
    def queries(self, count: int = None) -> Iterator[Rect]:
        """Yield *count* query windows (default: the spec's ``num_queries``)."""
        if count is None:
            count = self.spec.num_queries
        return self._queries.iter_windows(count)

    # ------------------------------------------------------------------
    # Mixed stream (throughput experiment, Figure 8)
    # ------------------------------------------------------------------
    def operations(
        self, count: int, update_fraction: float
    ) -> Iterator["api_ops.Operation"]:
        """Yield *count* typed operations, a fraction of which are updates.

        Each item is an :class:`~repro.api.operations.Update` (one
        :meth:`updates` step) or a :class:`~repro.api.operations.RangeQuery`,
        ready for ``index.execute``/``execute_many`` or an engine session.
        The interleaving is random but reproducible, mirroring the 50-client
        mixed workload of the throughput study.
        """
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update_fraction must be in [0, 1]")
        update_stream = self.updates(count)  # drawn lazily; at most `count` are consumed
        for _ in range(count):
            if self._rng.random() < update_fraction:
                oid, _old, new = next(update_stream)
                yield api_ops.Update(oid, new)
            else:
                yield api_ops.RangeQuery(self._queries.next_window())

    def client_streams(
        self, num_clients: int, count: int, update_fraction: float
    ) -> List[List["api_ops.Operation"]]:
        """The typed mixed stream dealt round-robin onto *num_clients* streams.

        The concatenation of the streams, interleaved client by client, is
        exactly the sequence :meth:`operations` would produce from the same
        generator state, so a multi-client engine run consumes the
        byte-identical workload a shared-stream run would — only the
        assignment of operations to virtual clients differs.  Streams are
        materialised lists: the engine draws from them as clients go idle.
        """
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        streams: List[List["api_ops.Operation"]] = [[] for _ in range(num_clients)]
        for position, operation in enumerate(
            self.operations(count, update_fraction)
        ):
            streams[position % num_clients].append(operation)
        return streams

    def mixed_operation_batches(
        self, count: int, update_fraction: float, batch_size: int
    ) -> Iterator[List["api_ops.Operation"]]:
        """The typed :meth:`operations` stream chopped into *batch_size* lists.

        Batches respect the stream order, so feeding each batch to
        ``execute_many`` (queries act as barriers) yields the same query
        answers as driving the unbatched stream through per-op calls.
        """
        return _chunks(self.operations(count, update_fraction), batch_size)
