"""One pass of one workload: build, run the timed stream, verify, account.

A pass runs in a forked child of the driver (see ``run.py``): it builds a
fresh index with ``repro.open_index(spec)`` (timed as ``setup_s``), collects
garbage, runs the call stream through ``execute`` / ``execute_many`` with a
``perf_counter`` pair around every call, then verifies — untimed — against
the oracle.  The traced variant additionally wraps the layers (see
``tracing.py``) and, for the durable workload, crashes and recovers the log.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import resource
import struct
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.api import KNN, RangeQuery
from repro.durability import recover_index
from repro.geometry import kernels

import tracing
from workloads import BATCH, KNN_CALL, RANGE, UPDATE, StreamData, Workload

#: End-to-end metrics every workload reports: ``(name, unit, better, exact)``;
#: *exact* marks a count that repeats bit for bit for one seed and scale.
#: ``BENCHMARK.json`` carries the same list plus the regression bounds.
END_TO_END: List[Tuple[str, str, str, bool]] = [
    ("setup_s", "s", "lower", False),
    ("ops_per_s", "1/s", "higher", False),
    ("update_p50_us", "us", "lower", False),
    ("update_p90_us", "us", "lower", False),
    ("range_p50_us", "us", "lower", False),
    ("range_p90_us", "us", "lower", False),
    ("knn_p50_us", "us", "lower", False),
    ("knn_p90_us", "us", "lower", False),
    ("io_per_op", "io/op", "lower", True),
    ("peak_rss_mb", "MB", "lower", False),
]

DISTANCE_TOLERANCE = 1e-9


def build_spec(workload: Workload, wal_dir: Path) -> Dict[str, Any]:
    """The ``open_index`` spec of *workload*, tolerant of config removals.

    Config keys ``IndexConfig`` no longer declares are dropped, so the specs
    survive the planned removal of ``node_layout`` / ``page_store``.
    """
    declared = {field.name for field in dataclasses.fields(repro.IndexConfig)}
    spec = dict(workload.spec)
    spec["config"] = {
        key: value for key, value in spec["config"].items() if key in declared
    }
    if workload.durable:
        spec["durability"] = dict(spec["durability"], dir=str(wal_dir))
    return spec


def pin_to_one_cpu() -> None:
    """Confine this pass, and the workers it forks, to one CPU.

    One closed-loop client keeps at most one process busy at a time, so a
    second CPU buys nothing — but on a small VM waking a process on the
    *other* vCPU costs ≈200 µs and swings ±30 % with the host's load, which
    would drown the program's own IPC cost (pickling, system calls, round
    trips) that ``process_batch`` exists to expose.  Measured here, the
    process backend is faster pinned than spread over both vCPUs.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class SyncedSizes:
    """Size of every file as of its last ``os.fsync``, keyed by inode.

    Installed as the measure of the traced ``os.fsync`` wrapper.  Killing a
    process leaves the OS cache intact, so the crash check itself discards
    what was written but never synced.
    """

    def __init__(self) -> None:
        self.sizes: Dict[int, int] = {}

    def record(self, args: Tuple[Any, ...], _result: Any) -> int:
        status = os.fstat(args[0])
        self.sizes[status.st_ino] = status.st_size
        return 0

    def truncate_unsynced(self, directory: Path) -> None:
        """Cut every log under *directory* back to its synced size."""
        for path in directory.glob("*.wal"):
            status = path.stat()
            synced = self.sizes.get(status.st_ino, 0)
            if status.st_size > synced:
                os.truncate(path, synced)


def _digest(answers: List[Any]) -> str:
    """Order-sensitive digest of every query answered in the timed stream."""
    sha = hashlib.sha256()

    def window_hits(ids: List[int]) -> None:
        sha.update(array("q", sorted(ids)).tobytes())

    def neighbours(pairs: List[Tuple[float, int]]) -> None:
        for distance, oid in pairs:
            sha.update(struct.pack("<dq", distance, oid))

    for kind, answer in answers:
        if answer is None:
            continue
        if kind == RANGE:
            window_hits(answer)
        elif kind == KNN_CALL:
            neighbours(answer)
        elif kind == BATCH:
            for ids in answer.queries:
                window_hits(ids)
            for pairs in answer.neighbors:
                neighbours(pairs)
        sha.update(b"|")
    return sha.hexdigest()


def _verify(index: Any, data: StreamData) -> List[str]:
    """Mismatches between *index* and the oracle (empty when correct)."""
    problems: List[str] = []
    try:
        index.validate()
    except Exception as error:  # any validation failure is a finding
        problems.append(f"validate(): {error!r}")
    if len(index) != len(data.final_positions):
        problems.append(f"len(index)={len(index)}, oracle={len(data.final_positions)}")
    for window, expected in zip(data.probe_windows, data.expected_window_hits):
        hits = sorted(index.execute(RangeQuery(window)).cursor().all())
        if hits != expected:
            problems.append(f"range probe {window!r}: {len(hits)} hits, expected {len(expected)}")
    for point, expected in zip(data.probe_points, data.expected_distances):
        pairs = index.execute(KNN(point, len(expected))).cursor().all()
        distances = [distance for distance, _oid in pairs]
        if len(distances) != len(expected) or any(
            abs(got - want) > DISTANCE_TOLERANCE
            for got, want in zip(distances, expected)
        ):
            problems.append(f"kNN probe {point!r}: distances differ from the oracle")
    return problems


def _outcome_counts(index: Any) -> Optional[Dict[str, int]]:
    """Update outcomes summed over the coordinator-side strategies."""
    try:
        holders = index.shards if hasattr(index, "shards") else [index]
        counts: Dict[str, int] = {}
        for holder in holders:
            for outcome, count in holder.strategy.outcome_counts.items():
                counts[outcome.value] = counts.get(outcome.value, 0) + count
        return counts
    except AttributeError:
        return None


def run_pass(
    workload: Workload,
    data: StreamData,
    work_dir: Path,
    untraced_wall_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one pass and return its measurements (see module docstring).

    The pass is traced when *untraced_wall_s* — the stream time of an
    untraced pass over the same calls — is given.
    """
    kernels.set_backend("python")
    pin_to_one_cpu()
    wal_dir = work_dir / "wal"
    synced = SyncedSizes()
    tracer: Optional[tracing.Tracer] = None
    if untraced_wall_s is not None:
        tracer = tracing.Tracer({**tracing.MEASURES, tracing.FSYNC: synced.record})
        tracer.install(tracing.SETUP_TARGETS)

    started = time.perf_counter()
    index = repro.open_index(build_spec(workload, wal_dir))
    index.load(data.objects)
    setup_s = time.perf_counter() - started
    try:
        spec = repro.index_spec(index)
        node_reads: List[float] = [0]
        if tracer is not None:
            hydrate = tracer.cell(tracing.HYDRATE)
            hydrate_s = None if hydrate is None else hydrate[1]
            tracer.install(tracing.STREAM_TARGETS)
            tracer.reset()
            node_reads = tracer.cell(tracing.READ_NODE) or node_reads

        result, facts, problems = _run_stream(index, data, node_reads)
        result.update(setup_s=setup_s, spec=spec)

        if tracer is not None:
            facts.update(
                hydrate_s=hydrate_s,
                untraced_wall_s=untraced_wall_s,
                outcomes=_outcome_counts(index),
                layers=tracer.layer_totals(),
                cells={name: list(cell) for name, cell in tracer.cells.items()},
                unresolved=list(tracer.unresolved),
            )
            tracer.uninstall()
        problems += _verify(index, data)
        if tracer is not None:
            if workload.durable:
                index.detach_durability()
                facts["recovery"], lost = _crash_and_recover(tracer, synced, wal_dir, data)
                problems += lost
            result["layers"] = tracing.derive_layer_metrics(facts)
            result["unresolved"] = facts["unresolved"]
        result["problems"] = problems
    finally:
        # Stops the worker processes and closes the logs, whatever happened.
        index.detach_parallel()
        index.detach_durability()
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    result["peak_rss_mb"] = usage / (1024.0 if sys.platform != "darwin" else 1024.0**2)
    return result


def _run_stream(
    index: Any, data: StreamData, node_reads: List[float]
) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """The timed closed loop: one client, next call only after the last returned.

    Returns the pass result, the facts the per-layer metrics derive from, and
    the failures seen.  *node_reads* is the live ``read_node`` call counter of
    the tracer (a constant ``[0]`` when untraced).
    """
    clock = time.perf_counter
    latencies: Dict[str, List[float]] = {UPDATE: [], RANGE: [], KNN_CALL: [], BATCH: []}
    reads_by_kind: Dict[str, int] = dict.fromkeys(latencies, 0)
    ops_by_kind: Dict[str, int] = dict.fromkeys(latencies, 0)
    answers: List[Any] = []
    problems: List[str] = []
    failed_ops = 0

    gc.collect()
    io_before = index.io_snapshot()
    stream_started = clock()
    for kind, payload, operations in data.calls:
        reads_before = node_reads[0]
        answer = None
        started = clock()
        try:
            if kind == UPDATE:
                index.execute(payload)
            elif kind == BATCH:
                answer = index.execute_many(payload)
            else:
                answer = index.execute(payload).cursor().all()
        except Exception as error:  # the benchmark must outlive a failing call
            failed_ops += operations
            if len(problems) < 5:
                problems.append(f"{kind} raised {error!r}")
            continue
        # Per operation: a batch call counts as its operations' shared wait.
        latencies[kind].append((clock() - started) / operations)
        reads_by_kind[kind] += int(node_reads[0] - reads_before)
        ops_by_kind[kind] += operations
        answers.append((kind, answer))
    wall_s = clock() - stream_started
    io = index.io_snapshot().delta_since(io_before)

    for ordered in latencies.values():
        ordered.sort()
    result = {
        "wall_s": wall_s,
        "operations": data.operations,
        "failed_ops": failed_ops,
        "io": io.total_physical_io,
        "digest": _digest(answers),
        "latency_s": {
            # What the caller waits per update: the execute(Update) call, or
            # the execute_many call over its operations on batch workloads.
            "update": _summary(latencies[UPDATE] or latencies[BATCH]),
            "range": _summary(latencies[RANGE]),
            "knn": _summary(latencies[KNN_CALL]),
        },
    }
    batches = [answer for kind, answer in answers if kind == BATCH]
    facts = {
        "wall_s": wall_s,
        "ops_by_kind": ops_by_kind,
        "reads_by_kind": reads_by_kind,
        "io_stats": io,
        "batches": len(batches),
        "batch_updates": sum(report.updates for report in batches),
        "batch_groups": sum(report.groups for report in batches),
        "batch_grouped": sum(
            report.updates - report.coalesced - report.residuals - report.migrations
            for report in batches
        ),
    }
    return result, facts, problems


def _summary(ordered: List[float]) -> Dict[str, float]:
    """Sample count, median, the bounded tail (p90) and the informational p99."""
    summary: Dict[str, float] = {"samples": len(ordered)}
    for share in (0.50, 0.90, 0.99):
        summary[f"p{round(share * 100)}"] = percentile(ordered, share) if ordered else 0.0
    return summary


def _crash_and_recover(
    tracer: tracing.Tracer, synced: SyncedSizes, wal_dir: Path, data: StreamData
) -> Tuple[Dict[str, Any], List[str]]:
    """Discard unsynced log bytes, recover, and require every update present."""
    synced.truncate_unsynced(wal_dir)
    tracer.install({"durability.recovery": [tracing.RECOVERY_TARGET]})
    started = time.perf_counter()
    recovered = recover_index(wal_dir)
    seconds = time.perf_counter() - started
    tracer.uninstall()
    try:
        lost = sum(
            1
            for oid, position in data.final_positions.items()
            if recovered.position_of(oid) != position
        )
        problems = _verify(recovered, data)
    finally:
        recovered.detach_durability()
    if lost:
        problems.append(f"{lost} acknowledged update(s) missing after crash recovery")
    replayed = tracer.cell(tracing.RECOVERY_TARGET)
    return (
        {
            "seconds": seconds,
            "records": replayed[2] if replayed is not None else None,
            "ops_lost": lost,
        },
        problems,
    )


def pass_metrics(result: Dict[str, Any]) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` of one untraced pass.

    The ``END_TO_END`` metrics, plus each kind's p99 for the report's
    informational rows.
    """
    operations = result["operations"]
    metrics = {
        "setup_s": (result["setup_s"], 1),
        "ops_per_s": (operations / result["wall_s"], operations),
        "io_per_op": (result["io"] / operations, operations),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    for kind, summary in result["latency_s"].items():
        for tail in ("p50", "p90", "p99"):
            metrics[f"{kind}_{tail}_us"] = (summary[tail] * 1e6, int(summary["samples"]))
    return metrics
