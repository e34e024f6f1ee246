"""Line reach map of ``src/repro``: which lines no entry point enters.

    python3 benchmarks/reach/run.py [--tests] [--output reach.json]
    python3 benchmarks/reach/run.py compare parent.json change.json

A ``sys.settrace`` hook records every ``src/repro`` line entered while this
script runs, in-process and in this order:

* the four end-to-end workloads of ``benchmarks/e2e`` at scale 0.05, each
  with an untraced and a traced pass, so that the durable workload's
  crash recovery runs too (``benchmarks/e2e`` is imported, never changed);
* every figure of :mod:`repro.bench.figures` at scale 0.05;
* the five scripts of ``examples/``;
* with ``--tests``, ``pytest tests`` (several times slower than the rest).

The JSON report lists, per function (nested comprehensions, generator
expressions and lambdas fold into the function that holds them), the lines
with bytecode that nothing entered, each with its source text; it is
labelled with the commit and the machine.  Code that only runs in a forked
shard worker is listed apart as ``not_traced``: the hook does not follow
the fork, so its lines are unknown, not unreached.  ``compare`` prints, per
function, the never-entered source lines the second report has and the
first does not.

Nothing here runs in the test suite or in CI.  All work sits under the
``__main__`` guard: a spawn-started worker re-imports this module.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import runpy
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SCALE = 0.05
SEED = 42
#: Functions whose body runs only inside a forked shard worker.
NOT_TRACED = {
    ("repro/shard/parallel.py", "_worker_main"),
    ("repro/shard/parallel.py", "_shard_state"),
}
#: Code objects folded into the function that defines them.
FOLDED = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>")

Lines = Set[Tuple[str, int]]


def record_lines(lines: Lines) -> Callable[..., Any]:
    """A global trace function adding ``(filename, line)`` of every
    ``src/repro`` line entered to *lines*; other code runs untraced."""
    prefix = str(PACKAGE)
    wanted: Dict[CodeType, bool] = {}
    add = lines.add

    def local(frame: Any, event: str, _arg: Any) -> Any:
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame: Any, _event: str, _arg: Any) -> Any:
        code = frame.f_code
        want = wanted.get(code)
        if want is None:
            want = wanted[code] = code.co_filename.startswith(prefix)
        return local if want else None

    return on_call


def run_e2e() -> None:
    """Each end-to-end workload: one untraced pass, then one traced pass."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import harness
    import workloads

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        for name, workload in workloads.WORKLOADS.items():
            data = workloads.build_stream(workload, SEED, SCALE)
            with tempfile.TemporaryDirectory() as work:
                plain = harness.run_pass(workload, data, Path(work) / "untraced")
                traced = harness.run_pass(
                    workload, data, Path(work) / "traced", plain["wall_s"]
                )
            for result in (plain, traced):
                for problem in result["problems"]:
                    print(f"  {name}: {problem}", file=sys.stderr)
    finally:
        if affinity is not None:  # a pass pins this process to one CPU
            os.sched_setaffinity(0, affinity)


def run_figures() -> None:
    from repro.bench.figures import all_figures

    for figure in all_figures():
        figure.run(scale=SCALE)


def run_examples() -> None:
    argv = sys.argv
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(path)]
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def run_tests() -> None:
    """``python -m pytest -q tests`` from the repository root, in-process."""
    import pytest

    sys.path.insert(0, str(ROOT))  # the tests import ``tests.conftest``
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        os.chdir(cwd)
    if code != 0:
        print(f"  pytest exited with {code}", file=sys.stderr)


def functions(path: Path) -> Iterator[Tuple[str, int, Set[int]]]:
    """``(qualname, first line, lines with bytecode)`` of every function in
    *path*, nested ones included; folded code objects join their holder."""

    def walk(code: CodeType, holder: Any) -> Iterator[Tuple[CodeType, Any]]:
        for const in code.co_consts:
            if isinstance(const, CodeType):
                function = bool(const.co_flags & inspect.CO_OPTIMIZED)
                folded = const.co_name in FOLDED and holder is not None
                owner = holder if folded or not function else const
                yield const, owner
                yield from walk(const, owner)

    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    owned: Dict[CodeType, Set[int]] = {}
    for code, owner in walk(module, None):
        if owner is None:
            continue  # class bodies run at import
        lines = {line for _s, _e, line in code.co_lines() if line is not None}
        if code is owner:
            lines.discard(code.co_firstlineno)  # the def (or decorator) line
        owned.setdefault(owner, set()).update(lines)
    for owner, lines in owned.items():
        name = getattr(owner, "co_qualname", owner.co_name)
        yield name, owner.co_firstlineno, lines


def report(lines: Lines, seconds: Dict[str, float]) -> Dict[str, Any]:
    entered: Dict[str, Set[int]] = {}
    for filename, line in lines:
        entered.setdefault(os.path.realpath(filename), set()).add(line)
    never: Dict[str, Any] = {}
    not_traced: Dict[str, Any] = {}
    totals: Counter = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        text = path.read_text(encoding="utf-8").splitlines()
        hit = entered.get(str(path.resolve()), set())
        for qualname, first, owned in functions(path):
            missed = sorted(owned - hit)
            totals["functions"] += 1
            totals["lines"] += len(owned)
            if not missed:
                continue
            entry = {
                "line": first,
                "entered": len(missed) < len(owned),
                "lines": {str(line): text[line - 1].strip() for line in missed},
            }
            key = f"{relative}::{qualname}"
            if (relative, qualname.split(".<locals>")[0]) in NOT_TRACED:
                not_traced[key] = entry
                totals["not_traced_lines"] += len(missed)
                continue
            never[key] = entry
            totals["never_entered_lines"] += len(missed)
            totals["never_entered_functions"] += not entry["entered"]
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "box": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scale": SCALE,
        "seconds": seconds,
        "totals": dict(totals),
        "never_entered": never,
        "not_traced": not_traced,
    }


def git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compare(before_path: str, after_path: str) -> None:
    """Print the never-entered source lines new in *after*, per function."""
    before, after = (
        json.loads(Path(p).read_text(encoding="utf-8"))["never_entered"]
        for p in (before_path, after_path)
    )
    for key, entry in after.items():
        old = Counter(before.get(key, {}).get("lines", {}).values())
        new = Counter(entry["lines"].values()) - old
        if new:
            print(f"{key} (line {entry['line']}):")
            for text, count in new.items():
                print(f"  {count} x {text}")


def main() -> None:
    if sys.argv[1:2] == ["compare"]:
        compare(*sys.argv[2:4])
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true", help="also run pytest tests")
    parser.add_argument("--output", default="reach.json", help="JSON report path")
    args = parser.parse_args()

    # As tier-1 runs (PYTHONPATH=src): child interpreters import src/ too.
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    entry_points: List[Tuple[str, Callable[[], None]]] = [
        ("e2e", run_e2e),
        ("figures", run_figures),
        ("examples", run_examples),
    ]
    if args.tests:
        entry_points.append(("tests", run_tests))
    lines: Lines = set()
    seconds: Dict[str, float] = {}
    # A forked worker's lines never come back: stop paying for the hook there.
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    for name, run in entry_points:
        print(f"reach: {name} ...", file=sys.stderr, flush=True)
        started = time.perf_counter()
        sys.settrace(record_lines(lines))
        try:
            run()
        finally:
            sys.settrace(None)
        seconds[name] = round(time.perf_counter() - started, 1)
    result = report(lines, seconds)
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"output": args.output, **result["totals"]}), flush=True)


if __name__ == "__main__":
    main()
