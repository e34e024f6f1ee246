"""Smoke test of the end-to-end benchmark: tiny scale, every declared metric.

Runs the real command line in a subprocess, so it also checks that the
benchmark leaves no worker process behind and finds ``src/`` on its own.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_report_emits_every_declared_metric(tmp_path: Path) -> None:
    output = tmp_path / "report.json"
    done = run_benchmark("--scale", "0.02", "--passes", "1", "--output", str(output))
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["environment"]["label"] == "sandbox"
    assert list(report["workloads"]) == [entry["name"] for entry in DECLARED["workloads"]]

    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["notes"])
        assert entry["attempted"] > 0
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            assert list(entry[key]) == [metric["name"] for metric in DECLARED[section]]
            for metric in DECLARED[section]:
                row = entry[key][metric["name"]]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert row["unit"] == metric["unit"], metric["name"]
                assert row["better"] == metric["better"], metric["name"]
                assert row["samples"] >= 1, metric["name"]
        for metric, row in entry["metrics"].items():
            assert row["value"] > 0, (name, metric)
        # A wrap target that a refactor renamed reads null and is counted;
        # it must not fail this test, or no refactor could land.
        assert entry["layers"]["trace.unresolved"]["value"] == len(entry["unresolved"])
        assert entry["layers"]["durability.recovery.ops_lost"]["value"] == 0

    durable = report["workloads"]["durable_batch"]
    process = report["workloads"]["process_batch"]
    assert durable["digest"] == process["digest"]
    assert durable["traced_digest"] == process["traced_digest"]
    assert durable["layers"]["durability.wal.fsyncs"]["value"] > 0
    assert durable["layers"]["durability.recovery.seconds"]["value"] > 0

    # A report agrees with itself; a changed count or a slower median does not.
    assert run_benchmark("compare", str(output), str(output)).returncode == 0
    for metric, factor in (("io_per_op", 1.01), ("ops_per_s", 0.5)):
        row = report["workloads"]["update_heavy"]["metrics"][metric]
        original = row["value"]
        row["value"] = original * factor
        changed = tmp_path / f"{metric}.json"
        changed.write_text(json.dumps(report), encoding="utf-8")
        row["value"] = original
        assert run_benchmark("compare", str(output), str(changed)).returncode == 1, metric


def test_contract_line_for_one_workload() -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_benchmark(
            "--workload", "query_heavy", "--seed", "7", "--seconds", "0.3", "--trace", trace
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [metric["name"] for metric in DECLARED[section]]
        for metric in DECLARED[section]:
            value = line["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
