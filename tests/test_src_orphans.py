"""Guard: every function, method and class under ``src/repro`` is named by
other code under ``src/repro``.

A definition that nothing else in the package names is reached only by tests,
or by nothing at all.  The scan walks the syntax tree of every module: a
definition counts as used when its name appears as a ``Name`` or an
``Attribute`` in ``src/repro`` outside its own body.  Imports and ``__all__``
lists are not uses (a re-export reaches nothing), and dunder methods are
exempt (the interpreter calls them).

The allowlist holds the names kept on purpose, each with its reason; an entry
that goes stale (the name is gone, or the package now uses it) fails too.
"""

import ast
import functools
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_E2E = "named by the end-to-end benchmark (benchmarks/e2e)"
_API = "public API"

ALLOWED = {
    # The end-to-end tracer wraps methods by dotted name and its harness
    # calls the facade; a rename or deletion there blanks a metric.
    "Node.find_entry": f"{_E2E}: tracer wrap target",
    "set_backend": f"{_E2E}: the harness pins the kernel backend",
    "ShardedIndex.detach_durability": f"{_E2E}: the harness closes a run's logs",
    "intersects_many": f"{_E2E}: tracer wrap target",
    "contains_point_many": f"{_E2E}: tracer wrap target",
    "enlargement_many": f"{_E2E}: tracer wrap target",
    "RTree.adjust_upward": f"{_E2E}: tracer wrap target",
    "RTree.delete_from_leaf": f"{_E2E}: tracer wrap target",
    "ObjectHashIndex.lookup": f"{_E2E}: tracer wrap target",
    "SummaryStructure.sibling_leaves": f"{_E2E}: tracer wrap target",
    "SpatialIndexFacade.execute_many": f"{_E2E}: the batch workloads' entry point",
    "recover_index": f"{_E2E}: the durable workload's recovery check",
    # The typed result and session surface that callers drive.
    "QueryCursor.fetch": f"{_API}: the examples page through cursors with it",
    "QueryCursor.consumed": f"{_API}: cursor progress",
    "QueryCursor.exhausted": f"{_API}: cursor progress",
    "OperationResult.ok": f"{_API}: the strict=False error check",
    "ConcurrentSession.submit": f"{_API}: queues a client's operations",
    "ShardedIndex.detach": f"{_API}: removes a maintenance controller (README)",
    "ShardedIndex.io_snapshot": f"{_API}: the facade's I/O counters (examples read them)",
    "Rect.enlargement_to_include": f"{_API}: the scalar Guttman metric the kernels batch",
    "union_all": f"{_API}: the scalar union the kernels batch",
    # Counters kept for the planned in-engine metrics registry.
    "UpdateStrategy.top_down_fraction": "counter for the planned metrics registry",
    "SummaryStructure.maintenance_counters": "counter for the planned metrics registry",
    # Introspection that the work-bound tests of kept code read.
    "BufferPool.resident_pages": "introspection for the LRU and work-bound tests",
    "BufferPool.dirty_count": "introspection for the write-back tests",
    "BufferPool.is_pinned": "introspection for the pin-accounting tests",
    "IOStatistics.bump": "labelled counters the statistics tests exercise",
    "RTree.point_query": "the degenerate window query the query tests use",
    "LockManager.holders": "introspection for the lock-manager tests",
    "DirectAccessTable.entries_at_level": "the by-level view the summary tests read",
}


def _is_all_assignment(node):
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    )


@functools.lru_cache(maxsize=None)
def scan():
    """``(definitions, uses)``: ``(path, qualname, name, first, last)`` rows
    and, per name, the ``(path, line)`` of every use."""
    definitions = []
    uses = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if _is_all_assignment(child) or isinstance(
                    child, (ast.Import, ast.ImportFrom)
                ):
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    definitions.append(
                        (path, prefix + child.name, child.name, first, child.end_lineno)
                    )
                    inner = prefix + child.name + "."
                    visit(child, inner if isinstance(child, ast.ClassDef) else prefix)
                    continue
                if isinstance(child, ast.Name):
                    uses[child.id].append((path, child.lineno))
                elif isinstance(child, ast.Attribute):
                    uses[child.attr].append((path, child.lineno))
                visit(child, prefix)

        visit(tree, "")
    return definitions, uses


def orphans():
    definitions, uses = scan()
    found = []
    for path, qualname, name, first, last in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(
            use_path != path or not first <= line <= last
            for use_path, line in uses.get(name, ())
        ):
            found.append((qualname, f"{path.relative_to(SRC)}:{first}"))
    return found


def test_every_definition_is_named_elsewhere_in_src():
    unexplained = [
        f"{where} {qualname}" for qualname, where in orphans() if qualname not in ALLOWED
    ]
    assert unexplained == [], (
        "nothing in src/ names these; delete them (with their tests) or add "
        "them to ALLOWED with a reason:\n  " + "\n  ".join(unexplained)
    )


def test_allowlist_holds_only_live_orphans():
    orphaned = {qualname for qualname, _where in orphans()}
    defined = {qualname for _path, qualname, *_ in scan()[0]}
    assert sorted(set(ALLOWED) - defined) == [], "allowlisted names that are gone"
    assert sorted(set(ALLOWED) - orphaned) == [], "allowlisted names src/ now uses"
