#!/usr/bin/env python
"""Wall-clock scaling of the parallel shard-execution backends.

Measures the makespan of a batched update workload over a 4-shard
:class:`~repro.shard.index.ShardedIndex` under each execution backend —
``serial`` (in-process, the baseline) and ``process`` with 2 and 4 workers —
and writes a schema-versioned JSON report checked in at the repository root
(``BENCH_parallel_scaling.json``) as the per-PR scaling figure.  Its
``thread`` rows are history: that executor was deleted.

Every backend executes the identical logical work: the benchmark itself
asserts, per cell, that final object positions, range-query answers, kNN
answers, and the aggregated I/O counters match the serial baseline exactly
(the shard-equivalence suite proves the same property under pytest).  The
makespan ratio serial/backend is therefore a pure execution-overlap
measurement.

Methodology
-----------
The simulated disk charges a real per-page transfer latency
(:attr:`~repro.storage.disk.DiskManager.io_latency_s`, default 0.25 ms here,
the same value in every cell), standing in for an actual storage device.
Under the serial backend the coordinator waits out every transfer in
sequence; the process backend overlaps the per-shard waits, which
is exactly the benefit a multi-shard deployment gets from parallel I/O
channels.  On a multi-core box the process backend additionally overlaps the
CPU work of the R-tree algorithms themselves; ``cpu_count`` is recorded in
the report so the figure is interpretable either way.  Each cell runs
``--repeats`` times and reports its best makespan (load noise only ever
slows a run down).

Two workloads are swept, mirroring the shard-rebalancing experiments:
``uniform`` (updates spread evenly over all shards — the balanced case the
acceptance ratio is measured on) and ``hotspot`` (80 % of updates hammer one
shard's region — the skewed case where scaling is bounded by the hottest
shard).

Usage::

    python benchmarks/bench_parallel_scaling.py               # full run
    python benchmarks/bench_parallel_scaling.py --scale 0.05  # CI smoke scale
    python benchmarks/bench_parallel_scaling.py --check       # validate JSON

``--check`` validates the report's schema (exit 1 on a problem).  No timing
floor is enforced at any scale: answer/position/I/O-counter parity is
asserted in-run, and the speedups are overlap of the simulated disk sleep on
whatever host recorded them — a labelled observation, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import IndexConfig  # noqa: E402
from repro.geometry import Point, Rect  # noqa: E402
from repro.shard import ShardedIndex  # noqa: E402

SCHEMA_VERSION = 1
NUM_SHARDS = 4
WORKLOADS = ("uniform", "hotspot")
#: (backend, workers); serial is the baseline every other cell is checked
#: against and measured relative to.
CELLS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("serial", None),
    ("process", 2),
    ("process", 4),
)

#: Full-scale workload (scale = 1.0).
BASE_OBJECTS = 4_000
BASE_UPDATES = 8_000
BASE_BATCH = 500
IO_LATENCY_MS = 0.25
PARITY_WINDOWS = 8
PARITY_KNN = 8
KNN_K = 10


def make_workload(kind: str, objects: int, updates: int, seed: int):
    """Initial placements plus a deterministic stream of (oid, new_position)."""
    rng = random.Random(seed)
    points = [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
    positions = {oid: p for oid, p in points}
    moves: List[Tuple[int, Point]] = []
    hot = Rect(0.0, 0.0, 0.5, 0.5)  # shard 0's cell in the 2x2 grid
    for _ in range(updates):
        if kind == "hotspot" and rng.random() < 0.8:
            # Hammer the hot cell: move a random object somewhere inside it.
            oid = rng.randrange(objects)
            target = Point(
                hot.xmin + rng.random() * (hot.xmax - hot.xmin),
                hot.ymin + rng.random() * (hot.ymax - hot.ymin),
            )
        else:
            oid = rng.randrange(objects)
            p = positions[oid]
            target = Point(
                p.x + rng.uniform(-0.05, 0.05), p.y + rng.uniform(-0.05, 0.05)
            ).clamped()
        positions[oid] = target
        moves.append((oid, target))
    return points, moves


def parity_probes(seed: int):
    rng = random.Random(seed + 1)
    windows = []
    for _ in range(PARITY_WINDOWS):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        windows.append(Rect(x, y, x + 0.2, y + 0.2))
    knn_points = [Point(rng.random(), rng.random()) for _ in range(PARITY_KNN)]
    return windows, knn_points


def run_cell(
    backend: str,
    workers: Optional[int],
    workload,
    probes,
    io_latency_s: float,
) -> Tuple[float, dict]:
    """One full measurement: build, attach, run, capture parity fingerprint."""
    points, moves = workload
    windows, knn_points = probes
    index = ShardedIndex(IndexConfig(strategy="GBU"), num_shards=NUM_SHARDS)
    index.load(points)
    if backend != "serial":
        index.set_parallel(backend=backend, workers=workers)
    # Identical simulated device latency in every cell — the only thing the
    # backends change is whether the per-shard waits overlap.
    index.set_io_latency(io_latency_s)

    start = time.perf_counter()
    for lo in range(0, len(moves), BATCH):
        index.update_many(moves[lo : lo + BATCH])
    makespan = time.perf_counter() - start

    # Parity fingerprint, captured while the backend is still attached (so
    # the queries themselves also take the parallel path).
    fingerprint = {
        "ranges": [sorted(index.range_query(window)) for window in windows],
        "knn": [index.knn(point, KNN_K) for point in knn_points],
        "positions": sorted(
            (oid, p.x, p.y)
            for oid, p in ((oid, index.position_of(oid)) for oid, _ in points)
        ),
        "io": index.io_snapshot().as_dict(),
        "objects": len(index),
    }
    if backend != "serial":
        index.detach_parallel()
    index.validate()
    return makespan, fingerprint


def run_benchmark(scale: float, repeats: int, seed: int) -> dict:
    global BATCH
    objects = max(80, int(BASE_OBJECTS * scale))
    updates = max(200, int(BASE_UPDATES * scale))
    BATCH = max(50, int(BASE_BATCH * scale))
    io_latency_s = IO_LATENCY_MS / 1000.0
    probes = parity_probes(seed)

    cells: List[dict] = []
    derived: Dict[str, float] = {}
    for workload_kind in WORKLOADS:
        workload = make_workload(workload_kind, objects, updates, seed)
        best: Dict[Tuple[str, Optional[int]], float] = {}
        baseline_fingerprint = None
        for repeat in range(repeats):
            for backend, workers in CELLS:
                makespan, fingerprint = run_cell(
                    backend, workers, workload, probes, io_latency_s
                )
                if backend == "serial":
                    if baseline_fingerprint is None:
                        baseline_fingerprint = fingerprint
                elif fingerprint != baseline_fingerprint:
                    raise AssertionError(
                        f"{backend}[{workers}] diverged from serial on "
                        f"{workload_kind}: answers/positions/IO mismatch"
                    )
                key = (backend, workers)
                if key not in best or makespan < best[key]:
                    best[key] = makespan
                label = backend if workers is None else f"{backend}[{workers}]"
                print(
                    f"  repeat {repeat + 1}/{repeats} {workload_kind} "
                    f"{label}: {makespan:.3f}s",
                    file=sys.stderr,
                )
        serial_time = best[("serial", None)]
        for backend, workers in CELLS:
            makespan = best[(backend, workers)]
            cells.append(
                {
                    "workload": workload_kind,
                    "backend": backend,
                    "workers": workers,
                    "seconds": round(makespan, 4),
                    "speedup_vs_serial": round(serial_time / makespan, 3),
                }
            )
            if backend != "serial":
                derived[f"{backend}{workers}_speedup_{workload_kind}"] = round(
                    serial_time / makespan, 3
                )

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "parallel_scaling",
        "paper": "conf_vldb_LeeHJT03",
        "scale": scale,
        "num_shards": NUM_SHARDS,
        "objects": objects,
        "updates": updates,
        "batch": BATCH,
        "io_latency_ms": IO_LATENCY_MS,
        "repeats": repeats,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": "python",
        "answer_parity": "asserted in-run against the serial baseline",
        "cells": cells,
        "derived": derived,
    }


def validate_report(report: dict) -> List[str]:
    """Schema validation; empty list = ok."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if report.get("benchmark") != "parallel_scaling":
        problems.append(
            f"benchmark is {report.get('benchmark')!r}, expected 'parallel_scaling'"
        )
    for key in (
        "scale",
        "num_shards",
        "objects",
        "updates",
        "io_latency_ms",
        "cpu_count",
        "python",
        "kernel_backend",
        "cells",
        "derived",
    ):
        if key not in report:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems

    seen = set()
    for row in report["cells"]:
        for key in ("workload", "backend", "workers", "seconds", "speedup_vs_serial"):
            if key not in row:
                problems.append(f"cell missing {key!r}: {row}")
                break
        else:
            if not (isinstance(row["seconds"], (int, float)) and row["seconds"] > 0):
                problems.append(f"non-positive seconds: {row}")
            seen.add((row["workload"], row["backend"], row["workers"]))
    for workload in WORKLOADS:
        for backend, workers in CELLS:
            if (workload, backend, workers) not in seen:
                problems.append(f"missing cell {(workload, backend, workers)}")

    if "process4_speedup_uniform" not in report["derived"]:
        problems.append("derived missing 'process4_speedup_uniform'")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload scale (1.0 = 4k objects)"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="repeats per cell; best is reported"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_parallel_scaling.json",
        help="report path (default: repo root BENCH_parallel_scaling.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the existing report instead of running the benchmark",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            report = json.loads(args.output.read_text())
        except (OSError, ValueError) as error:
            print(f"cannot read report {args.output}: {error}", file=sys.stderr)
            return 1
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(
            f"OK: {args.output} valid; "
            + ", ".join(f"{k}={v}x" for k, v in sorted(report["derived"].items()))
        )
        return 0

    report = run_benchmark(args.scale, args.repeats, args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for key, value in sorted(report["derived"].items()):
        print(f"  {key}: {value}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
