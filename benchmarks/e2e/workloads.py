"""Seeded call streams, the brute-force oracle, and the four workload definitions.

Self-contained on purpose: the generator depends only on the operation types
of :mod:`repro.api` and on ``Point``/``Rect`` — not on :mod:`repro.workload`,
whose RNG draw order a refactor may change.  The program under test receives
only the generated operations; the oracle is a plain ``dict[oid -> Point]``
advanced as the stream is generated.

Draws are strictly sequential, so a stream generated with ``fraction=0.25``
is exactly the first quarter of the full stream for the same seed and scale
(the traced pass relies on this).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.api import KNN, RangeQuery, Update
from repro.geometry import Point, Rect

#: ``--seconds`` value that maps to scale 1.0 (three ≈5 s passes on the
#: reference sandbox); keep equal to ``run_seconds`` in ``BENCHMARK.json``.
FULL_SCALE_SECONDS = 15

# Paper Table 1 defaults, shared by every workload.
OBJECTS = 50_000
MAX_DISTANCE = 0.03
MAX_WINDOW_SIDE = 0.1
NEIGHBOURS = 10
#: Post-stream probes of each kind checked against the oracle.
PROBES = 50
#: One round of a batch workload: an ``execute_many`` of ``BATCH_UPDATES``
#: updates with ``BATCH_BARRIERS`` range queries at seeded positions, then
#: ``ROUND_QUERIES`` per-op range queries and as many per-op kNN queries.
BATCH_UPDATES = 245
BATCH_BARRIERS = 5
ROUND_QUERIES = 15

# Call kinds of the timed stream.
UPDATE, RANGE, KNN_CALL, BATCH = "update", "range", "knn", "batch"

#: One timed call: ``(kind, payload, operations)`` where *payload* is one
#: operation, or the operation list of one ``execute_many`` call.
Call = Tuple[str, Any, int]

COMMON_CONFIG = {
    "strategy": "GBU",
    "page_size": 1024,
    "node_layout": "packed",
    "page_store": "binary",
}


@dataclass(frozen=True)
class Workload:
    """One workload: an index spec plus the shape of its call stream."""

    name: str
    why: str
    #: ``open_index`` spec; a ``durability`` section gets its ``dir`` (a
    #: fresh directory per pass) from the harness.
    spec: Dict[str, Any]
    #: Per-op stream: number of ``execute`` calls at scale 1 and the shares
    #: of updates and range queries (the rest are kNN).  Zero for batch
    #: workloads.
    calls: int = 0
    update_share: float = 0.0
    range_share: float = 0.0
    #: Batch stream: rounds at scale 1 (see ``BATCH_UPDATES``).
    rounds: int = 0

    @property
    def durable(self) -> bool:
        return "durability" in self.spec


def _config(buffer_percent: float) -> Dict[str, Any]:
    return dict(COMMON_CONFIG, buffer_percent=buffer_percent)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="update_heavy",
            why=(
                "paper monitoring scenario: 90% per-op updates, pool 1% of the "
                "data, so strategy, hash index, summary, buffer evictions and "
                "page codec do the work"
            ),
            spec={"kind": "single", "config": _config(1.0)},
            calls=60_000,
            update_share=0.90,
            range_share=0.05,
        ),
        Workload(
            name="query_heavy",
            why=(
                "same index, data fits the pool, 90% range/kNN: read descent "
                "and kernels dominate, so an update-path gain must leave it flat"
            ),
            spec={"kind": "single", "config": _config(100.0)},
            calls=30_000,
            update_share=0.10,
            range_share=0.45,
        ),
        Workload(
            name="durable_batch",
            why=(
                "4 serial shards with group-commit WAL, 250-op execute_many "
                "ticks with in-batch barriers: WAL encode+fsync, batch "
                "grouping and shard routing are on the path"
            ),
            spec={
                "kind": "sharded",
                "shards": 4,
                "config": _config(1.0),
                "durability": {"sync": "group", "group_size": 64},
            },
            rounds=100,
        ),
        Workload(
            name="process_batch",
            why=(
                "same stream as durable_batch on 2 worker processes, no WAL: "
                "the only workload paying pickling, pipe round trips and "
                "worker hydration"
            ),
            spec={
                "kind": "sharded",
                "shards": 4,
                "config": _config(1.0),
                "parallel": {"backend": "process", "workers": 2},
            },
            rounds=100,
        ),
    )
}


@dataclass
class StreamData:
    """Everything one pass needs: inputs for the index, expectations for the check."""

    objects: List[Tuple[int, Point]]
    calls: List[Call]
    operations: int
    #: Oracle state after the whole stream.
    final_positions: Dict[int, Point]
    probe_windows: List[Rect] = field(default_factory=list)
    expected_window_hits: List[List[int]] = field(default_factory=list)
    probe_points: List[Point] = field(default_factory=list)
    expected_distances: List[List[float]] = field(default_factory=list)


class _Generator:
    """Seeded operation source; ``positions`` is the oracle it advances."""

    def __init__(self, seed: int, objects: int) -> None:
        self.rng = random.Random(seed)
        rng = self.rng
        self.count = objects
        self.positions: Dict[int, Point] = {
            oid: Point(rng.random(), rng.random()) for oid in range(objects)
        }

    def update(self) -> Update:
        rng = self.rng
        oid = rng.randrange(self.count)
        old = self.positions[oid]
        distance = rng.random() * MAX_DISTANCE
        angle = rng.random() * 2.0 * math.pi
        new = Point(
            min(1.0, max(0.0, old.x + distance * math.cos(angle))),
            min(1.0, max(0.0, old.y + distance * math.sin(angle))),
        )
        self.positions[oid] = new
        return Update(oid, new)

    def window(self) -> Rect:
        rng = self.rng
        width = rng.random() * MAX_WINDOW_SIDE
        height = rng.random() * MAX_WINDOW_SIDE
        x = rng.random() * (1.0 - width)
        y = rng.random() * (1.0 - height)
        return Rect(x, y, x + width, y + height)

    def point(self) -> Point:
        return Point(self.rng.random(), self.rng.random())


def build_stream(
    workload: Workload, seed: int, scale: float, fraction: float = 1.0
) -> StreamData:
    """Generate the inputs and expectations of *workload* for *seed*.

    *scale* multiplies object and call counts; *fraction* keeps only the
    leading part of the call stream (objects unchanged).
    """
    generator = _Generator(seed, max(200, round(OBJECTS * scale)))
    objects = list(generator.positions.items())
    calls: List[Call] = []
    if workload.rounds:
        rounds = max(1, round(workload.rounds * scale * fraction))
        for _ in range(rounds):
            batch: List[Any] = [generator.update() for _ in range(BATCH_UPDATES)]
            for _ in range(BATCH_BARRIERS):
                batch.insert(
                    generator.rng.randrange(len(batch) + 1),
                    RangeQuery(generator.window()),
                )
            calls.append((BATCH, batch, len(batch)))
            for _ in range(ROUND_QUERIES):
                calls.append((RANGE, RangeQuery(generator.window()), 1))
            for _ in range(ROUND_QUERIES):
                calls.append((KNN_CALL, KNN(generator.point(), NEIGHBOURS), 1))
    else:
        total = max(1, round(workload.calls * scale * fraction))
        query_edge = workload.update_share + workload.range_share
        for _ in range(total):
            draw = generator.rng.random()
            if draw < workload.update_share:
                calls.append((UPDATE, generator.update(), 1))
            elif draw < query_edge:
                calls.append((RANGE, RangeQuery(generator.window()), 1))
            else:
                calls.append((KNN_CALL, KNN(generator.point(), NEIGHBOURS), 1))
    data = StreamData(
        objects=objects,
        calls=calls,
        operations=sum(call[2] for call in calls),
        final_positions=generator.positions,
    )
    _add_probes(data, generator)
    return data


def _add_probes(data: StreamData, generator: _Generator) -> None:
    """Brute-force the expected answers of the post-stream probes."""
    located = [(oid, p.x, p.y) for oid, p in data.final_positions.items()]
    for _ in range(PROBES):
        window = generator.window()
        x0, y0, x1, y1 = window.xmin, window.ymin, window.xmax, window.ymax
        data.probe_windows.append(window)
        data.expected_window_hits.append(
            sorted(
                oid for oid, x, y in located if x0 <= x <= x1 and y0 <= y <= y1
            )
        )
    for _ in range(PROBES):
        point = generator.point()
        px, py = point.x, point.y
        data.probe_points.append(point)
        data.expected_distances.append(
            heapq.nsmallest(
                NEIGHBOURS,
                (
                    ((x - px) * (x - px) + (y - py) * (y - py)) ** 0.5
                    for _oid, x, y in located
                ),
            )
        )
