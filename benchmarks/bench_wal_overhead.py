#!/usr/bin/env python
"""Write-ahead-log overhead of the durability subsystem.

Measures the makespan of a GBU batched-update workload on a single
:class:`~repro.core.index.MovingObjectIndex` with durability off (the
baseline), with group commit (one appended + fsynced frame per batch, the
intended operating point) and with ``sync="none"`` (append + OS flush, no
fsync — isolates the fsync cost from the serialisation cost).  A second,
smaller per-operation workload contrasts ``sync="always"`` (one fsync per
update, the classical worst case group commit exists to amortise) against
its own no-WAL baseline.

The headline number is ``group_overhead`` — group-commit makespan divided
by the no-WAL makespan on the batched workload.  The durability design
targets ``<= 1.25`` at full scale: logging a batch is one frame append and
one fsync riding an execution that already touches hundreds of pages.
``--check`` enforces that ceiling on the checked-in report
(``BENCH_wal_overhead.json``).

Crash-recovery equivalence is asserted in-run: after the group-commit cell
finishes, the benchmark reloads the index purely from its checkpoint plus
WAL replay (:func:`repro.core.persistence.load_index`) and requires final
object positions, range-query answers and kNN answers to match the live
index — the overhead being measured is the cost of an actually working
recovery path, not of writes nobody can read back.

Usage::

    python benchmarks/bench_wal_overhead.py               # full run
    python benchmarks/bench_wal_overhead.py --scale 0.05  # CI smoke scale
    python benchmarks/bench_wal_overhead.py --check       # validate JSON

``--check`` validates the report's schema and — only when the report was
produced at full scale — fails (exit 1) when ``group_overhead`` exceeds
``--max-overhead`` (default 1.25).  At smoke scale only schema and parity
are enforced (timing is meaningless there).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import open_index  # noqa: E402
from repro.core.persistence import load_index  # noqa: E402
from repro.geometry import Point, Rect  # noqa: E402

SCHEMA_VERSION = 1
#: (workload, sync) cells; sync=None means no durability attached at all.
CELLS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("batch", None),
    ("batch", "group"),
    ("batch", "none"),
    ("perop", None),
    ("perop", "always"),
)

#: Full-scale workload (scale = 1.0).
BASE_OBJECTS = 4_000
BASE_UPDATES = 8_000
BASE_BATCH = 500
#: Per-op cells run a smaller stream: ``always`` pays one fsync per update,
#: which is exactly the point of the contrast and needs no 8k samples.
BASE_PEROP_UPDATES = 2_000
GROUP_SIZE = 64
PARITY_WINDOWS = 8
PARITY_KNN = 8
KNN_K = 10


def make_workload(objects: int, updates: int, seed: int):
    """Initial placements plus a deterministic stream of (oid, new_position)."""
    rng = random.Random(seed)
    points = [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
    positions = {oid: p for oid, p in points}
    moves: List[Tuple[int, Point]] = []
    for _ in range(updates):
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


def fingerprint_of(index, probes) -> dict:
    windows, knn_points = probes
    return {
        # Range answers are compared as sets: a recovered tree holds the
        # same objects in a physically different page layout.
        "ranges": [sorted(index.range_query(window)) for window in windows],
        "knn": [index.knn(point, KNN_K) for point in knn_points],
        "positions": sorted(
            (oid, p.x, p.y) for oid, p in index._positions.items()
        ),
        "objects": len(index),
    }


def run_cell(
    workload_kind: str,
    sync: Optional[str],
    workload,
    probes,
    batch: int,
    wal_root: Path,
) -> Tuple[float, dict, Optional[Path]]:
    """One measurement: build, run, fingerprint; returns the WAL dir if any."""
    points, moves = workload
    spec: Dict = {"config": {"strategy": "GBU"}}
    wal_dir: Optional[Path] = None
    if sync is not None:
        wal_dir = wal_root / f"{workload_kind}-{sync}"
        if wal_dir.exists():
            shutil.rmtree(wal_dir)
        spec["durability"] = {
            "dir": str(wal_dir),
            "sync": sync,
            "group_size": GROUP_SIZE,
        }
    index = open_index(spec)
    index.load(points)  # checkpoints here when durable: the WAL logs updates only

    start = time.perf_counter()
    if workload_kind == "batch":
        for lo in range(0, len(moves), batch):
            index.update_many(moves[lo : lo + batch])
    else:
        for oid, target in moves:
            index.update(oid, target)
    makespan = time.perf_counter() - start

    if index.durability is not None:
        index.durability.flush()
    fingerprint = fingerprint_of(index, probes)
    index.validate()
    return makespan, fingerprint, wal_dir


def assert_recovery_equivalence(wal_dir: Path, live_fingerprint: dict, probes) -> None:
    """Reload purely from checkpoint + WAL replay; answers must match."""
    recovered = load_index(wal_dir / "checkpoint.json")
    recovered.validate()
    if fingerprint_of(recovered, probes) != live_fingerprint:
        raise AssertionError(
            f"recovery from {wal_dir} diverged from the live index: "
            "positions/answers mismatch after WAL replay"
        )


def run_benchmark(scale: float, repeats: int, seed: int) -> dict:
    objects = max(80, int(BASE_OBJECTS * scale))
    updates = max(200, int(BASE_UPDATES * scale))
    perop_updates = max(100, int(BASE_PEROP_UPDATES * scale))
    batch = max(50, int(BASE_BATCH * scale))
    probes = parity_probes(seed)
    workloads = {
        "batch": make_workload(objects, updates, seed),
        "perop": make_workload(objects, perop_updates, seed),
    }

    wal_root = Path(tempfile.mkdtemp(prefix="bench-wal-"))
    cells: List[dict] = []
    derived: Dict[str, float] = {}
    try:
        best: Dict[Tuple[str, Optional[str]], float] = {}
        baselines: Dict[str, Optional[dict]] = {"batch": None, "perop": None}
        recovery_checked = False
        for repeat in range(repeats):
            for workload_kind, sync in CELLS:
                makespan, fingerprint, wal_dir = run_cell(
                    workload_kind,
                    sync,
                    workloads[workload_kind],
                    probes,
                    batch,
                    wal_root,
                )
                if sync is None:
                    if baselines[workload_kind] is None:
                        baselines[workload_kind] = fingerprint
                elif fingerprint != baselines[workload_kind]:
                    raise AssertionError(
                        f"{workload_kind}/{sync} diverged from the no-WAL "
                        "baseline: logging must not change answers"
                    )
                if sync == "group" and not recovery_checked:
                    assert assert_recovery_equivalence(
                        wal_dir, fingerprint, probes
                    ) is None
                    recovery_checked = True
                key = (workload_kind, sync)
                if key not in best or makespan < best[key]:
                    best[key] = makespan
                label = "off" if sync is None else sync
                print(
                    f"  repeat {repeat + 1}/{repeats} {workload_kind}/{label}: "
                    f"{makespan:.3f}s",
                    file=sys.stderr,
                )
        for workload_kind, sync in CELLS:
            makespan = best[(workload_kind, sync)]
            baseline = best[(workload_kind, None)]
            cells.append(
                {
                    "workload": workload_kind,
                    "sync": "off" if sync is None else sync,
                    "seconds": round(makespan, 4),
                    "overhead_vs_off": round(makespan / baseline, 3),
                }
            )
        derived["group_overhead"] = round(
            best[("batch", "group")] / best[("batch", None)], 3
        )
        derived["none_overhead"] = round(
            best[("batch", "none")] / best[("batch", None)], 3
        )
        derived["always_overhead"] = round(
            best[("perop", "always")] / best[("perop", None)], 3
        )
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "wal_overhead",
        "paper": "conf_vldb_LeeHJT03",
        "scale": scale,
        "objects": objects,
        "updates": updates,
        "perop_updates": perop_updates,
        "batch": batch,
        "group_size": GROUP_SIZE,
        "repeats": repeats,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": "python",
        "answer_parity": "asserted in-run against the no-WAL baseline",
        "recovery": "checkpoint + WAL replay equivalence asserted in-run",
        "cells": cells,
        "derived": derived,
    }


def validate_report(report: dict, max_overhead: float) -> List[str]:
    """Schema + (full-scale only) overhead-ceiling validation; empty = ok."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if report.get("benchmark") != "wal_overhead":
        problems.append(
            f"benchmark is {report.get('benchmark')!r}, expected 'wal_overhead'"
        )
    for key in (
        "scale",
        "objects",
        "updates",
        "group_size",
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
        for key in ("workload", "sync", "seconds", "overhead_vs_off"):
            if key not in row:
                problems.append(f"cell missing {key!r}: {row}")
                break
        else:
            if not (isinstance(row["seconds"], (int, float)) and row["seconds"] > 0):
                problems.append(f"non-positive seconds: {row}")
            seen.add((row["workload"], row["sync"]))
    for workload_kind, sync in CELLS:
        label = "off" if sync is None else sync
        if (workload_kind, label) not in seen:
            problems.append(f"missing cell {(workload_kind, label)}")

    if report["scale"] >= 1.0:
        overhead = report["derived"].get("group_overhead")
        if overhead is None:
            problems.append("derived missing 'group_overhead'")
        elif overhead > max_overhead:
            problems.append(
                f"group_overhead = {overhead} exceeds the ceiling {max_overhead}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload scale (1.0 = 4k objects)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="repeats per cell; best is reported"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_wal_overhead.json",
        help="report path (default: repo root BENCH_wal_overhead.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the existing report instead of running the benchmark",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=1.25,
        help="with --check on a full-scale report: group-commit overhead ceiling",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            report = json.loads(args.output.read_text())
        except (OSError, ValueError) as error:
            print(f"cannot read report {args.output}: {error}", file=sys.stderr)
            return 1
        problems = validate_report(report, args.max_overhead)
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
