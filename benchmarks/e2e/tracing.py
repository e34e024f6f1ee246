"""Per-layer tracing from the benchmark's side of the fence.

Nothing in ``src/`` records time, so the traced pass wraps each layer's
entry points on the live classes and modules.  A wrapper is one span: it
pushes a frame, times the call, and on exit adds *duration minus the time its
child spans covered* to its own cell and its full duration to the parent
frame — so a layer's ``self_s`` is the sum of its spans' self times.
Generators are timed per resumption.  Spans are aggregated as they close
(call count, self time and an optional size measure per wrap target) instead
of being retained one by one: the per-layer metrics need nothing else, and
holding ~30 spans per call would itself move the numbers.

Wrap targets are dotted names resolved at install time; one that no longer
resolves is listed in :attr:`Tracer.unresolved` and its metrics read ``None``
— a refactor that renames a method degrades the trace, it does not crash
the benchmark.

The self-time split is approximate: a wrapper's own prologue and epilogue
(≈0.3 µs) land in the *parent's* self time, so a layer that makes many tiny
calls into wrapped code is over-charged.  ``trace.overhead_ratio`` says how
much slower the traced stream ran.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: A measure turns one finished call into a size: ``measure(args, result)``.
Measure = Callable[[Tuple[Any, ...], Any], int]


def _coords_entries(args: Tuple[Any, ...], _result: Any) -> int:
    return len(args[0]) // 4


def _per_shard_commands(args: Tuple[Any, ...], _result: Any) -> int:
    return sum(len(commands) for commands in args[1].values())


#: Wrapped only around set-up, so worker processes fork before the stream
#: wrappers exist (``process_batch`` is traced coordinator-side only).
SETUP_TARGETS: Dict[str, List[str]] = {
    "shard.parallel": ["repro.shard.parallel:ProcessBackend.__init__"],
}

KERNEL_FUNCTIONS = (
    "union_bounds",
    "union_rect",
    "intersects_many",
    "intersects_ids",
    "contained_in_many",
    "contains_point_many",
    "contains_point_ids",
    "enlargement_many",
    "argmin_enlargement",
    "min_distance_many",
)

NODE_METHODS = (
    "add_entry",
    "find_entry",
    "remove_entry",
    "discard_entry",
    "has_child",
    "entry_at",
    "entry_bounds_at",
    "pop_entry_at",
    "materialized_entries",
    "child_ids",
    "mbr",
    "intersecting_children",
    "contains_point_children",
    "contained_entry_indices",
    "choose_subtree_child",
    "entry_distances",
)

#: layer -> wrap targets, ``module:attribute.path``.
STREAM_TARGETS: Dict[str, List[str]] = {
    "core.index": [
        "repro.core.protocol:SpatialIndexFacade.execute",
        "repro.core.protocol:SpatialIndexFacade.execute_many",
        "repro.api.results:QueryCursor.all",
        "repro.core.index:MovingObjectIndex.insert",
        "repro.core.index:MovingObjectIndex.update",
        "repro.core.index:MovingObjectIndex.delete",
        "repro.core.index:MovingObjectIndex.range_query",
        "repro.core.index:MovingObjectIndex.knn",
        "repro.core.index:MovingObjectIndex.stream_query",
        "repro.core.index:MovingObjectIndex.stream_knn",
        "repro.core.index:MovingObjectIndex.position_of",
        "repro.core.index:MovingObjectIndex._execute_operation_stream",
    ],
    "update.strategy": [
        "repro.update.base:UpdateStrategy.update",
        "repro.update.base:UpdateStrategy.insert",
        "repro.update.base:UpdateStrategy.delete",
        "repro.update.generalized:GeneralizedBottomUpUpdate.range_query",
        "repro.update.generalized:GeneralizedBottomUpUpdate.iter_range_query",
        "repro.update.generalized:GeneralizedBottomUpUpdate.apply_group",
    ],
    "update.batch": [
        "repro.update.batch:parse_operation_stream",
        "repro.update.batch:coalesce_updates",
        "repro.update.batch:BatchExecutor.execute",
        "repro.update.batch:BatchExecutor.plan",
        "repro.update.batch:BatchExecutor.execute_group",
        "repro.update.batch:BatchExecutor.replay",
    ],
    "secondary.hash_index": [
        "repro.secondary.hash_index:ObjectHashIndex.lookup",
        "repro.secondary.hash_index:ObjectHashIndex.peek",
        "repro.secondary.hash_index:ObjectHashIndex.on_node_written",
        "repro.secondary.hash_index:ObjectHashIndex.on_node_deleted",
        "repro.secondary.hash_index:ObjectHashIndex.on_object_removed",
    ],
    "summary.structure": [
        "repro.summary.query:summary_guided_range_query",
        "repro.summary.query:iter_summary_guided_range_query",
        "repro.summary.structure:SummaryStructure.on_node_written",
        "repro.summary.structure:SummaryStructure.on_node_deleted",
        "repro.summary.structure:SummaryStructure.on_root_changed",
        "repro.summary.structure:SummaryStructure.root_mbr",
        "repro.summary.structure:SummaryStructure.parent_entry_of_leaf",
        "repro.summary.structure:SummaryStructure.sibling_leaves",
        "repro.summary.structure:SummaryStructure.path_from_root",
        "repro.summary.structure:SummaryStructure.find_parent",
    ],
    "rtree.tree": [
        "repro.rtree.tree:RTree.read_node",
        "repro.rtree.tree:RTree.write_node",
        "repro.rtree.tree:RTree.peek_node",
        "repro.rtree.tree:RTree.insert",
        "repro.rtree.tree:RTree.insert_at_subtree",
        "repro.rtree.tree:RTree.delete",
        "repro.rtree.tree:RTree.delete_from_leaf",
        "repro.rtree.tree:RTree.remove_entries",
        "repro.rtree.tree:RTree.add_entries",
        "repro.rtree.tree:RTree.find_path_to_leaf",
        "repro.rtree.tree:RTree.remove_group",
        "repro.rtree.tree:RTree.insert_group",
        "repro.rtree.tree:RTree.adjust_upward",
        "repro.rtree.tree:RTree.range_query",
        "repro.rtree.tree:RTree.iter_range_query",
        "repro.rtree.tree:RTree.knn",
        "repro.rtree.tree:RTree.iter_knn",
        "repro.rtree.tree:RTree.root_mbr",
    ],
    "rtree.node": ["repro.rtree.node:make_node"]
    + [f"repro.rtree.node:PackedNode.{name}" for name in NODE_METHODS],
    "geometry.kernels": [
        f"repro.geometry.kernels:{name}" for name in KERNEL_FUNCTIONS
    ],
    "storage.buffer": [
        "repro.storage.buffer:BufferPool.read",
        "repro.storage.buffer:BufferPool.write",
        "repro.storage.buffer:BufferPool.peek",
        "repro.storage.buffer:BufferPool.pin",
        "repro.storage.buffer:BufferPool.unpin",
        "repro.storage.buffer:BufferPool.discard",
    ],
    "storage.disk": [
        "repro.storage.disk:DiskManager.read_page",
        "repro.storage.disk:DiskManager.write_page",
        "repro.storage.disk:DiskManager.peek",
        "repro.storage.disk:DiskManager.allocate_page",
        "repro.storage.disk:DiskManager.deallocate_page",
    ],
    "storage.serialization": [
        "repro.storage.serialization:NodeCodec.encode",
        "repro.storage.serialization:NodeCodec.decode",
    ],
    "shard.index": [
        "repro.shard.index:ShardedIndex.insert",
        "repro.shard.index:ShardedIndex.update",
        "repro.shard.index:ShardedIndex.delete",
        "repro.shard.index:ShardedIndex.range_query",
        "repro.shard.index:ShardedIndex.knn",
        "repro.shard.index:ShardedIndex.stream_query",
        "repro.shard.index:ShardedIndex.stream_knn",
        "repro.shard.index:ShardedIndex.position_of",
        "repro.shard.index:ShardedIndex._execute_operation_stream",
        "repro.shard.index:ShardedIndex._query_shards",
        "repro.shard.index:ShardedIndex._flush_updates",
        "repro.shard.index:ShardedIndex._execute_migration",
    ],
    "shard.parallel": ["repro.shard.parallel:ProcessBackend.dispatch"],
    "durability.commit": [
        "repro.durability.commit:DurabilityManager.log_unit",
        "repro.durability.commit:DurabilityManager.flush",
    ],
    "durability.wal": [
        "repro.durability.wal:WriteAheadLog.append",
        "repro.durability.wal:WriteAheadLog.sync",
        "repro.durability.wal:encode_frame",
        "repro.durability.wal:update_record",
        "repro.durability.wal:migrate_in_record",
        "repro.durability.wal:migrate_out_record",
        "os:fsync",
    ],
}

#: Counted alone after the stream wrappers are removed, so recovery runs at
#: full speed and still reports how many records it replayed.
RECOVERY_TARGET = "repro.durability.recovery:replay_into"

MEASURES: Dict[str, Measure] = {
    **{
        f"repro.geometry.kernels:{name}": _coords_entries
        for name in KERNEL_FUNCTIONS
    },
    "repro.storage.serialization:NodeCodec.decode": lambda args, _r: len(args[2]),
    "repro.shard.index:ShardedIndex._query_shards": lambda _a, result: len(result),
    "repro.shard.parallel:ProcessBackend.dispatch": _per_shard_commands,
    "repro.durability.wal:WriteAheadLog.append": lambda args, _r: len(args[2]),
    "repro.durability.wal:encode_frame": lambda _a, result: len(result),
    RECOVERY_TARGET: lambda _a, result: result.records,
}

# Targets whose own cells feed a named metric.
READ_NODE = "repro.rtree.tree:RTree.read_node"
HASH_LOOKUP = "repro.secondary.hash_index:ObjectHashIndex.lookup"
BUFFER_READ = "repro.storage.buffer:BufferPool.read"
DISK_READ = "repro.storage.disk:DiskManager.read_page"
DISK_WRITE = "repro.storage.disk:DiskManager.write_page"
CODEC_ENCODE = "repro.storage.serialization:NodeCodec.encode"
CODEC_DECODE = "repro.storage.serialization:NodeCodec.decode"
QUERY_SHARDS = "repro.shard.index:ShardedIndex._query_shards"
MIGRATION = "repro.shard.index:ShardedIndex._execute_migration"
DISPATCH = "repro.shard.parallel:ProcessBackend.dispatch"
HYDRATE = "repro.shard.parallel:ProcessBackend.__init__"
LOG_UNIT = "repro.durability.commit:DurabilityManager.log_unit"
WAL_APPEND = "repro.durability.wal:WriteAheadLog.append"
ENCODE_FRAME = "repro.durability.wal:encode_frame"
UPDATE_RECORD = "repro.durability.wal:update_record"
MIGRATE_IN_RECORD = "repro.durability.wal:migrate_in_record"
FSYNC = "os:fsync"

#: Per-layer metrics: ``(name, unit, better, exact)``.  *exact* marks counts
#: that must repeat bit for bit for one seed; the rest derive from clocks.
#: ``BENCHMARK.json`` lists the same names (the smoke test checks).
PER_LAYER: List[Tuple[str, str, str, bool]] = [
    ("core.index.calls", "count", "lower", True),
    ("core.index.self_s", "s", "lower", False),
    ("update.strategy.calls", "count", "lower", True),
    ("update.strategy.self_s", "s", "lower", False),
    ("update.strategy.top_down_frac", "ratio", "lower", True),
    ("update.strategy.outcome.in_place", "ratio", "higher", True),
    ("update.strategy.outcome.extended", "ratio", "lower", True),
    ("update.strategy.outcome.sibling_shift", "ratio", "lower", True),
    ("update.strategy.outcome.ascended", "ratio", "lower", True),
    ("update.strategy.outcome.top_down", "ratio", "lower", True),
    ("update.batch.self_s", "s", "lower", False),
    ("update.batch.groups_per_batch", "count", "lower", True),
    ("update.batch.grouped_frac", "ratio", "higher", True),
    ("secondary.hash_index.lookups", "count", "lower", True),
    ("secondary.hash_index.self_s", "s", "lower", False),
    ("summary.structure.calls", "count", "lower", True),
    ("summary.structure.self_s", "s", "lower", False),
    ("rtree.tree.calls", "count", "lower", True),
    ("rtree.tree.self_s", "s", "lower", False),
    ("rtree.tree.nodes_per_update", "count", "lower", True),
    ("rtree.tree.nodes_per_range", "count", "lower", True),
    ("rtree.tree.nodes_per_knn", "count", "lower", True),
    ("rtree.node.calls", "count", "lower", True),
    ("rtree.node.self_s", "s", "lower", False),
    ("geometry.kernels.calls", "count", "lower", True),
    ("geometry.kernels.self_s", "s", "lower", False),
    ("geometry.kernels.entries_per_call", "count", "lower", True),
    ("storage.buffer.reads", "count", "lower", True),
    ("storage.buffer.hit_ratio", "ratio", "higher", True),
    ("storage.buffer.dirty_evictions", "count", "lower", True),
    ("storage.buffer.self_s", "s", "lower", False),
    ("storage.disk.reads", "count", "lower", True),
    ("storage.disk.writes", "count", "lower", True),
    ("storage.disk.self_s", "s", "lower", False),
    ("storage.serialization.encodes", "count", "lower", True),
    ("storage.serialization.decodes", "count", "lower", True),
    ("storage.serialization.bytes_per_decode", "bytes", "lower", True),
    ("storage.serialization.self_s", "s", "lower", False),
    ("shard.index.calls", "count", "lower", True),
    ("shard.index.self_s", "s", "lower", False),
    ("shard.index.migrations_per_kupdate", "count", "lower", True),
    ("shard.index.fanout_per_range", "count", "lower", True),
    ("shard.parallel.dispatches", "count", "lower", True),
    ("shard.parallel.wait_s", "s", "lower", False),
    ("shard.parallel.commands_per_dispatch", "count", "higher", True),
    ("shard.parallel.hydrate_s", "s", "lower", False),
    ("durability.commit.units", "count", "lower", True),
    ("durability.commit.self_s", "s", "lower", False),
    ("durability.wal.appends", "count", "lower", True),
    ("durability.wal.encode_s", "s", "lower", False),
    ("durability.wal.fsyncs", "count", "lower", True),
    ("durability.wal.fsync_s", "s", "lower", False),
    ("durability.wal.bytes_per_update", "bytes", "lower", True),
    ("durability.wal.records_per_fsync", "count", "higher", True),
    ("durability.recovery.seconds", "s", "lower", False),
    ("durability.recovery.records_replayed", "count", "lower", True),
    ("durability.recovery.records_per_s", "1/s", "higher", False),
    ("durability.recovery.ops_lost", "count", "lower", True),
    ("trace.overhead_ratio", "ratio", "lower", False),
    ("trace.unattributed_share", "ratio", "lower", False),
    ("trace.unresolved", "count", "lower", True),
]


class Tracer:
    """Wraps targets, aggregates their spans, and undoes the wrapping."""

    def __init__(self, measures: Mapping[str, Measure] = MEASURES) -> None:
        self._measures = measures
        #: Child-time accumulators of the open spans; the sentinel frame at
        #: the bottom collects the time of top-level spans.
        self._stack: List[float] = [0.0]
        #: target -> ``[calls, self seconds, measure total]``.
        self.cells: Dict[str, List[float]] = {}
        self._layer_of: Dict[str, str] = {}
        #: ``target (reason)`` for every wrap target that did not resolve.
        self.unresolved: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def install(self, targets: Mapping[str, Sequence[str]]) -> None:
        for layer, names in targets.items():
            for target in names:
                self._wrap(layer, target)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (cells keep their totals)."""
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _wrap(self, layer: str, target: str) -> None:
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            self.unresolved.append(f"{target} (no module {module_name})")
            return
        *parents, attribute = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        original = vars(owner).get(attribute) if owner is not None else None
        if isinstance(owner, type):
            # Only a class's own plain functions: an inherited method is
            # wrapped where it is defined, descriptors are left alone.
            if not isinstance(original, types.FunctionType):
                original = None
        elif not callable(original):
            original = None
        if original is None:
            self.unresolved.append(f"{target} (no such function)")
            return
        cell = self.cells.setdefault(target, [0, 0.0, 0])
        self._layer_of[target] = layer
        wrapper = self._make_wrapper(original, cell, self._measures.get(target))
        holders = [owner]
        if isinstance(owner, types.ModuleType):
            # ``from module import function`` copies the reference; patch
            # every loaded repro module that holds one.
            holders += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
            ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, original))

    def _make_wrapper(
        self, function: Callable[..., Any], cell: List[float], measure: Optional[Measure]
    ) -> Callable[..., Any]:
        stack = self._stack
        clock = perf_counter
        generator_type = types.GeneratorType
        resume = self._resume

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                cell[0] += 1
                cell[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if measure is not None:
                cell[2] += measure(args, result)
            if type(result) is generator_type:
                return resume(result, cell)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        return wrapper

    def _resume(self, generator: Iterator[Any], cell: List[float]) -> Iterator[Any]:
        """Re-yield *generator*, charging each resumption as part of its span."""
        stack = self._stack
        clock = perf_counter
        while True:
            stack.append(0.0)
            started = clock()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                elapsed = clock() - started
                cell[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            yield item

    # -- reading -------------------------------------------------------
    def reset(self) -> None:
        """Zero every cell (between set-up and the timed stream)."""
        for cell in self.cells.values():
            cell[0], cell[1], cell[2] = 0, 0.0, 0
        self._stack[:] = [0.0]

    def cell(self, target: str) -> Optional[List[float]]:
        """``[calls, self_s, measured]`` of *target*; ``None`` if unresolved."""
        return self.cells.get(target)

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over the layer's resolved targets."""
        totals: Dict[str, Tuple[int, float]] = {}
        for target, (calls, self_s, _measured) in self.cells.items():
            layer = self._layer_of[target]
            seen_calls, seen_self = totals.get(layer, (0, 0.0))
            totals[layer] = (seen_calls + int(calls), seen_self + self_s)
        return totals


def derive_layer_metrics(facts: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """Every ``PER_LAYER`` metric from one traced pass's *facts*.

    ``None`` means the wrap targets behind the metric did not resolve; a
    layer the workload never enters reads 0.
    """
    layers: Mapping[str, Tuple[int, float]] = facts["layers"]
    cells: Mapping[str, List[float]] = facts["cells"]
    ops: Mapping[str, int] = facts["ops_by_kind"]
    reads: Mapping[str, int] = facts["reads_by_kind"]
    io = facts["io_stats"]
    wall_s: float = facts["wall_s"]

    def part(target: str, slot: int) -> Optional[float]:
        cell = cells.get(target)
        return None if cell is None else cell[slot]

    def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, Optional[float]] = {}
    for layer in (
        "core.index",
        "update.strategy",
        "update.batch",
        "secondary.hash_index",
        "summary.structure",
        "rtree.tree",
        "rtree.node",
        "geometry.kernels",
        "storage.buffer",
        "storage.disk",
        "storage.serialization",
        "shard.index",
        "durability.commit",
    ):
        calls, self_s = layers.get(layer, (None, None))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s

    outcomes: Optional[Mapping[str, int]] = facts["outcomes"]
    updates_seen = None if outcomes is None else sum(outcomes.values())
    for outcome in ("in_place", "extended", "sibling_shift", "ascended", "top_down"):
        metrics[f"update.strategy.outcome.{outcome}"] = (
            None if outcomes is None else ratio(outcomes.get(outcome, 0), updates_seen)
        )
    metrics["update.strategy.top_down_frac"] = metrics["update.strategy.outcome.top_down"]

    metrics["update.batch.groups_per_batch"] = ratio(facts["batch_groups"], facts["batches"])
    metrics["update.batch.grouped_frac"] = ratio(facts["batch_grouped"], facts["batch_updates"])
    metrics["secondary.hash_index.lookups"] = part(HASH_LOOKUP, 0)

    node_reads_resolved = READ_NODE in cells
    for name, kinds in (
        ("update", ("update", "batch")),
        ("range", ("range",)),
        ("knn", ("knn",)),
    ):
        metrics[f"rtree.tree.nodes_per_{name}"] = (
            ratio(sum(reads[kind] for kind in kinds), sum(ops[kind] for kind in kinds))
            if node_reads_resolved
            else None
        )

    kernel_cells = [
        cells[target] for target in cells if target.startswith("repro.geometry.kernels:")
    ]
    metrics["geometry.kernels.entries_per_call"] = (
        ratio(sum(cell[2] for cell in kernel_cells), sum(cell[0] for cell in kernel_cells))
        if kernel_cells
        else None
    )

    metrics["storage.buffer.reads"] = part(BUFFER_READ, 0)
    metrics["storage.buffer.hit_ratio"] = ratio(io.buffer_hits, io.logical_reads)
    metrics["storage.buffer.dirty_evictions"] = io.dirty_evictions
    metrics["storage.disk.reads"] = part(DISK_READ, 0)
    metrics["storage.disk.writes"] = part(DISK_WRITE, 0)
    metrics["storage.serialization.encodes"] = part(CODEC_ENCODE, 0)
    metrics["storage.serialization.decodes"] = part(CODEC_DECODE, 0)
    metrics["storage.serialization.bytes_per_decode"] = ratio(
        part(CODEC_DECODE, 2), part(CODEC_DECODE, 0)
    )

    updates = ops["update"] + facts["batch_updates"]
    migrations = part(MIGRATION, 0)
    metrics["shard.index.migrations_per_kupdate"] = (
        None if migrations is None else ratio(1000.0 * migrations, updates)
    )
    metrics["shard.index.fanout_per_range"] = ratio(part(QUERY_SHARDS, 2), part(QUERY_SHARDS, 0))

    metrics["shard.parallel.dispatches"] = part(DISPATCH, 0)
    metrics["shard.parallel.wait_s"] = part(DISPATCH, 1)
    metrics["shard.parallel.commands_per_dispatch"] = ratio(part(DISPATCH, 2), part(DISPATCH, 0))
    metrics["shard.parallel.hydrate_s"] = facts["hydrate_s"]

    metrics["durability.commit.units"] = part(LOG_UNIT, 0)
    metrics["durability.wal.appends"] = part(WAL_APPEND, 0)
    metrics["durability.wal.encode_s"] = part(ENCODE_FRAME, 1)
    metrics["durability.wal.fsyncs"] = part(FSYNC, 0)
    metrics["durability.wal.fsync_s"] = part(FSYNC, 1)
    logged_updates = part(UPDATE_RECORD, 0)
    if logged_updates is not None and part(MIGRATE_IN_RECORD, 0) is not None:
        logged_updates += part(MIGRATE_IN_RECORD, 0)
    metrics["durability.wal.bytes_per_update"] = ratio(part(ENCODE_FRAME, 2), logged_updates)
    metrics["durability.wal.records_per_fsync"] = ratio(part(WAL_APPEND, 2), part(FSYNC, 0))

    recovery: Mapping[str, Any] = facts.get("recovery") or {
        "seconds": 0.0,
        "records": 0,
        "ops_lost": 0,
    }
    metrics["durability.recovery.seconds"] = recovery["seconds"]
    metrics["durability.recovery.records_replayed"] = recovery["records"]
    metrics["durability.recovery.records_per_s"] = ratio(recovery["records"], recovery["seconds"])
    metrics["durability.recovery.ops_lost"] = recovery["ops_lost"]

    attributed = sum(self_s for _calls, self_s in layers.values())
    metrics["trace.overhead_ratio"] = ratio(wall_s, facts["untraced_wall_s"])
    metrics["trace.unattributed_share"] = ratio(wall_s - attributed, wall_s)
    metrics["trace.unresolved"] = len(facts["unresolved"])
    return {name: metrics[name] for name, _unit, _better, _exact in PER_LAYER}
