#!/usr/bin/env python3
"""Quick self-check of the benchmark itself, at toy input sizes.

    python3 perfbench/selfcheck.py

Runs perfbench/run.py the way a measuring harness does, on every
workload, untraced once and traced twice, and asserts that:

- every metric named in BENCHMARK.json is emitted, with its unit, and
  every command's output passes its checks;
- the per-layer counts repeat exactly between the two traced runs;
- no layer's self time is negative, and for each traced run the layer
  self times plus each command's unattributed remainder add up to the
  commands' traced time;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = ["--seconds", "0.1", "--size", "toy"]


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--trace", str(trace), *TOY],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert emitted == expected, set(emitted) ^ set(expected)


def assert_accounting(metrics: dict) -> None:
    values = {name: m["value"] for name, m in metrics.items()}
    for name, value in values.items():
        if name.endswith((".s", ".self_s", "unlisted_s")):
            assert value >= -1e-9, f"negative self time {name} = {value}"
    layers = sum(values[f"{layer}.s"] for layer in run.LAYER_TIMES) + values["trace.unlisted_s"]
    remainder = sum(values[f"{top}.self_s"] for top in run.TOP_SPANS)
    traced = sum(values[f"{top}.s"] for top in run.TOP_SPANS)
    assert abs(layers + remainder - traced) <= 1e-6 * max(traced, 1.0), (layers, remainder, traced)


def counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "B")}


def check_missing_program() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        assert_metrics(result_of(bench(workload, 0)), BENCHMARK["end_to_end"])
        first, second = (result_of(bench(workload, 1)) for _ in range(2))
        for result in (first, second):
            assert_metrics(result, BENCHMARK["per_layer"])
            assert_accounting(result["metrics"])
        assert counts(first["metrics"]) == counts(second["metrics"]), workload
        print(f"selfcheck: {workload} ok")
    check_missing_program()
    print("selfcheck: missing program rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
