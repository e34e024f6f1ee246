"""``run.py compare A.json B.json``: is report B no worse than report A?

Applies the per-metric bounds of ``BENCHMARK.json`` to two ``--output``
reports, workload by workload:

* a timing metric whose median worsened by more than its bound is a
  **regression**;
* one whose pass-to-pass spread (IQR ÷ median, either side) exceeds the bound
  is **unresolved**, not unchanged — unless every pass of B reads better
  than every pass of A;
* exact counts (``io_per_op``, the answers digests, every per-layer count)
  must be identical when both reports share seed and scale — otherwise a
  **count mismatch**.

Exit code 1 on any regression or count mismatch, else 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence


def _worsening(old: float, new: float, better: str) -> float:
    """Relative change of *new* against *old* in the worse direction."""
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def _all_better(old: List[float], new: List[float], better: str) -> bool:
    if better == "higher":
        return min(new) > max(old)
    return max(new) < min(old)


def compare_reports(
    old: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float]
) -> List[Dict[str, Any]]:
    """One row per compared metric: workload, metric, status, detail."""
    same_inputs = (old["seed"], old["scale"]) == (new["seed"], new["scale"])
    rows: List[Dict[str, Any]] = []

    def row(workload: str, metric: str, status: str, detail: str) -> None:
        rows.append(
            {"workload": workload, "metric": metric, "status": status, "detail": detail}
        )

    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            row(workload, "*", "missing", "workload absent from the second report")
            continue
        for metric, was in before["metrics"].items():
            now = after["metrics"].get(metric)
            if now is None:
                row(workload, metric, "missing", "metric absent from the second report")
                continue
            detail = f"{was['value']:.6g} -> {now['value']:.6g} {was['unit']}"
            if was.get("exact"):
                if not same_inputs:
                    row(workload, metric, "skipped", "seed or scale differ")
                elif was["value"] != now["value"]:
                    row(workload, metric, "count mismatch", detail)
                else:
                    row(workload, metric, "ok", detail)
                continue
            bound = bounds.get(metric, 0.0)
            worse = _worsening(was["value"], now["value"], was["better"])
            spread = max(
                was["iqr"] / abs(was["value"]) if was["value"] else 0.0,
                now["iqr"] / abs(now["value"]) if now["value"] else 0.0,
            )
            detail += f" ({worse:+.1%} worse, spread {spread:.1%}, bound {bound:.0%})"
            if worse > bound:
                row(workload, metric, "regression", detail)
            elif spread > bound and not _all_better(
                was["passes"], now["passes"], was["better"]
            ):
                row(workload, metric, "unresolved", detail)
            else:
                row(workload, metric, "ok", detail)
        if not same_inputs:
            continue
        for key in ("digest", "traced_digest"):
            if before.get(key) != after.get(key):
                row(workload, key, "count mismatch", "answers differ")
        for metric, was in before["layers"].items():
            now = after["layers"].get(metric)
            if was.get("exact") and now is not None and was["value"] != now["value"]:
                row(
                    workload,
                    metric,
                    "count mismatch",
                    f"{was['value']} -> {now['value']} {was['unit']}",
                )
    return rows


def main(argv: Sequence[str], benchmark_file: Path) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json")
        return 2
    old, new = (json.loads(Path(name).read_text(encoding="utf-8")) for name in argv)
    declared = json.loads(benchmark_file.read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    rows = compare_reports(old, new, bounds)
    for entry in rows:
        print(
            f"{entry['status']:<15} {entry['workload']:<14} "
            f"{entry['metric']:<40} {entry['detail']}"
        )
    bad = [entry for entry in rows if entry["status"] in ("regression", "count mismatch", "missing")]
    unresolved = sum(entry["status"] == "unresolved" for entry in rows)
    print(f"{len(rows)} compared, {len(bad)} failing, {unresolved} unresolved")
    return 1 if bad else 0
