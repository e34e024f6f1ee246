"""End-to-end benchmark driver: ``python3 benchmarks/e2e/run.py [options]``.

Two ways to call it:

* the benchmark contract — ``--workload NAME --seed N --seconds S --trace 0|1``
  runs one workload and prints, as the last line of standard output, one JSON
  object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
  end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``);
* the report — without ``--workload`` all four workloads run, their passes
  interleaved round-robin so drift of a shared box hits them alike, untraced
  and traced, and ``--output FILE`` keeps per-pass values for ``compare``.

``run.py compare A.json B.json`` applies the bounds of ``BENCHMARK.json`` to
two such reports (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402  (needs nothing from src/)
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A pass that has not reported back by then is killed and the run fails.
PASS_TIMEOUT_S = 150.0
#: Forked children start from the parent's heap: a pass gets the generated
#: stream for free.  Safe here — the driver never starts a thread.
FORK = multiprocessing.get_context("fork")
#: Share of the call stream the traced pass replays.
TRACED_FRACTION = 0.25


def _answer(sender: Any, function: Callable[..., Any], *args: Any) -> None:
    """Send ``function(*args)`` — or the traceback of what stopped it — to the parent."""
    try:
        sender.send(("ok", function(*args)))
    except BaseException:  # whatever killed the work is the parent's to report
        sender.send(("error", traceback.format_exc()))


def _receive(receiver: Any, timeout_s: Optional[float] = None) -> Any:
    """The payload of one ``_answer`` message; a failure on the other side raises."""
    if timeout_s is not None and not receiver.poll(timeout_s):
        raise RuntimeError(f"no answer within {timeout_s:.0f} s")
    try:
        status, payload = receiver.recv()
    except EOFError:
        raise RuntimeError("child process died without reporting") from None
    if status != "ok":
        raise RuntimeError(f"child process failed:\n{payload}")
    return payload


def _reap(process: Any) -> None:
    process.join(5.0)
    if process.is_alive():
        process.kill()
        process.join()


def in_child(function: Callable[..., Any], *args: Any) -> Any:
    """Run ``function(*args)`` in a forked child and return its result."""
    receiver, sender = FORK.Pipe(duplex=False)
    process = FORK.Process(target=_answer, args=(sender, function, *args))
    process.start()
    sender.close()
    try:
        return _receive(receiver, PASS_TIMEOUT_S)
    finally:
        _reap(process)
        receiver.close()


def _serve_passes(
    connection: Any,
    parent_end: Any,
    workload: workloads.Workload,
    seed: int,
    scale: float,
    fraction: float,
) -> None:
    """Run one pass of *workload* per request until ``None`` arrives.

    The call stream is generated once, on the first request, and every pass
    forks from this process with the stream already in its heap.
    """
    # The fork copied the driver's end of the pipe; holding it open would
    # hide the driver's death and leave this process waiting for ever.
    parent_end.close()
    streams: List[workloads.StreamData] = []

    def one_pass(work_dir: Path, untraced_wall_s: Optional[float]) -> Dict[str, Any]:
        if not streams:
            streams.append(workloads.build_stream(workload, seed, scale, fraction))
        return in_child(harness.run_pass, workload, streams[0], work_dir, untraced_wall_s)

    try:
        while (request := connection.recv()) is not None:
            _answer(connection, one_pass, *request)
    except EOFError:
        pass  # the driver is gone


class PassRunner:
    """A process that holds one workload's call stream and forks its passes.

    The driver itself never holds a stream, so a pass's peak RSS does not
    depend on how many workloads one invocation runs; and every pass of a
    workload forks from the same heap with the stream already in it.
    """

    def __init__(
        self, workload: workloads.Workload, seed: int, scale: float, fraction: float = 1.0
    ) -> None:
        self._connection, remote = FORK.Pipe()
        self._process = FORK.Process(
            target=_serve_passes,
            args=(remote, self._connection, workload, seed, scale, fraction),
        )
        self._process.start()
        remote.close()

    def run(self, work_dir: Path, untraced_wall_s: Optional[float] = None) -> Dict[str, Any]:
        """One pass; traced when the untraced stream time is given."""
        self._connection.send((work_dir, untraced_wall_s))
        return _receive(self._connection)

    def close(self) -> None:
        try:
            self._connection.send(None)
        except OSError:
            pass  # already gone
        _reap(self._process)
        self._connection.close()


def filesystem_of(path: Path) -> str:
    """Filesystem type holding *path* (``unknown`` off Linux)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def environment(work_root: Path) -> Dict[str, Any]:
    """Where the numbers come from; every report is labelled with it."""
    return {
        "label": "sandbox",
        "nproc": os.cpu_count(),
        "cpus_per_pass": 1 if hasattr(os, "sched_setaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_backend": "python",
        "mp_start_method": FORK.get_start_method(),
        "io_latency_s": 0.0,
        "wal_filesystem": filesystem_of(work_root),
    }


def _spread(values: List[float]) -> float:
    """Interquartile range of the per-pass values (0 below two passes)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def summarise(
    workload: workloads.Workload,
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold the passes of one workload into its report entry."""
    passes = untraced + traced
    failed = sum(result["failed_ops"] + len(result["problems"]) for result in passes)
    notes = [problem for result in passes for problem in result["problems"]]
    for group in (untraced, traced):
        # Counts must repeat bit for bit across passes of one call stream.
        if len({(result["digest"], result["io"]) for result in group}) > 1:
            failed += 1
            notes.append("answers digest or I/O count differs between passes")
    entry: Dict[str, Any] = {
        "why": workload.why,
        "spec": passes[0]["spec"],
        "attempted": sum(result["operations"] for result in passes),
        "failed": failed,
        "notes": notes,
        "metrics": {},
        "layers": {},
    }
    if untraced:
        entry["digest"] = untraced[0]["digest"]
        per_pass = [harness.pass_metrics(result) for result in untraced]
        for name, unit, better, exact in harness.END_TO_END:
            values = [metrics[name][0] for metrics in per_pass]
            entry["metrics"][name] = {
                "value": statistics.median(values),
                "unit": unit,
                "better": better,
                "samples": per_pass[0][name][1],
                "passes": values,
                "iqr": _spread(values),
                "exact": exact,
            }
        # Tails too noisy on a shared box to carry a bound.
        entry["info"] = {
            name: statistics.median(metrics[name][0] for metrics in per_pass)
            for name in ("update_p99_us", "range_p99_us", "knn_p99_us")
        }
    if traced:
        layers = traced[-1]["layers"]
        entry["traced_digest"] = traced[-1]["digest"]
        entry["unresolved"] = traced[-1]["unresolved"]
        for name, unit, better, exact in tracing.PER_LAYER:
            entry["layers"][name] = {
                "value": layers[name],
                "unit": unit,
                "better": better,
                "samples": traced[-1]["operations"],
                "exact": exact,
            }
    entry["correct"] = failed == 0
    return entry


def measure(
    names: Sequence[str],
    seed: int,
    scale: float,
    passes: int,
    trace_modes: Sequence[int],
    work_root: Path,
) -> Dict[str, Dict[str, Any]]:
    """Run the selected workloads; untraced passes interleave round-robin."""
    selected = [workloads.WORKLOADS[name] for name in names]
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    work_dirs = (work_root / f"pass-{number}" for number in itertools.count(1))

    if 0 in trace_modes:
        runners: Dict[str, PassRunner] = {}
        try:
            for workload in selected:
                runners[workload.name] = PassRunner(workload, seed, scale)
            for _ in range(passes):
                for name, runner in runners.items():
                    untraced[name].append(runner.run(next(work_dirs)))
        finally:
            for runner in runners.values():
                runner.close()
    if 1 in trace_modes:
        for workload in selected:
            runner = PassRunner(workload, seed, scale, TRACED_FRACTION)
            try:
                plain = runner.run(next(work_dirs))
                traced[workload.name] = [
                    plain,
                    runner.run(next(work_dirs), plain["wall_s"]),
                ]
            finally:
                runner.close()

    report = {
        workload.name: summarise(workload, untraced[workload.name], traced[workload.name])
        for workload in selected
    }
    pair = [report.get("durable_batch"), report.get("process_batch")]
    if all(pair):
        for key in ("digest", "traced_digest"):
            if pair[0].get(key) != pair[1].get(key):
                for entry in pair:
                    entry["failed"] += 1
                    entry["correct"] = False
                    entry["notes"].append(f"durable_batch and process_batch {key} differ")
    return report


def print_report(report: Dict[str, Dict[str, Any]], env: Dict[str, Any]) -> None:
    print("environment: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    for name, entry in report.items():
        print(f"\n== {name}: attempted={entry['attempted']} failed={entry['failed']} "
              f"correct={entry['correct']}")
        for note in entry["notes"]:
            print(f"   ! {note}")
        for metric, row in entry["metrics"].items():
            spread = row["iqr"] / row["value"] if row["value"] else 0.0
            print(
                f"   {metric:<42} {row['value']:>14.4f} {row['unit']:<6} "
                f"samples/pass={row['samples']} passes={len(row['passes'])} "
                f"iqr={spread:.1%}"
            )
        for metric, value in entry.get("info", {}).items():
            print(f"   {metric:<42} {value:>14.4f} (informational)")
        overhead = entry["layers"].get("trace.overhead_ratio")
        if overhead:
            print(f"   -- traced pass (first {TRACED_FRACTION:.0%} of the stream), "
                  f"overhead x{overhead['value']:.2f} --")
        for metric, row in entry["layers"].items():
            shown = "unresolved" if row["value"] is None else f"{row['value']:.6g}"
            print(f"   {metric:<42} {shown:>14} {row['unit']}")
        for target in entry.get("unresolved", []):
            print(f"   ! unresolved wrap target: {target}")


def contract_line(entry: Dict[str, Any], trace: int) -> str:
    rows = entry["layers"] if trace else entry["metrics"]
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                # The contract wants a number; an unresolved metric reads 0
                # here and is counted in trace.unresolved.
                name: {"value": row["value"] or 0, "unit": row["unit"]}
                for name, row in rows.items()
            },
        }
    )


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(workloads.FULL_SCALE_SECONDS),
        help="timed stream seconds per run on the reference box; sets the scale",
    )
    parser.add_argument("--scale", type=float, help="overrides --seconds: 1.0 = full size")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    parser.add_argument("--output", type=Path, help="write the full JSON report here")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else args.seconds / workloads.FULL_SCALE_SECONDS
    if scale <= 0 or args.passes < 1:
        parser.error("--seconds/--scale and --passes must be positive")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    trace_modes = (0, 1) if args.trace is None else (args.trace,)

    work_root = ROOT / ".bench_e2e" / f"run-{os.getpid()}"
    work_root.mkdir(parents=True)
    env = environment(work_root)
    try:
        report = measure(names, args.seed, scale, args.passes, trace_modes, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    print_report(report, env)
    if args.output is not None:
        document = {
            "schema": 1,
            "environment": env,
            "seed": args.seed,
            "scale": scale,
            "passes": args.passes,
            "workloads": report,
        }
        args.output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if args.workload and args.trace is not None:
        print(contract_line(report[args.workload], args.trace))
        return 0
    return 0 if all(entry["correct"] for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
