"""Smoke check of the benchmark itself at a tiny size.

    python3 perfbench/smoke.py

Runs every workload for one round, untraced and traced, and checks that
the result line has the contracted keys, that every metric printed is
declared in BENCHMARK.json with the same unit (and every declared one is
printed), that no job failed, and that the zero-count predictions of
spans.ZERO_PREDICTIONS hold.  Last, it runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's own files, where it must
exit nonzero without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROUNDS_PER_SECOND
from spans import ZERO_PREDICTIONS

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    # the shortest --seconds that gives one full round of the workload
    seconds = 1 / ROUNDS_PER_SECOND[workload]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, declared: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
    metrics = result["metrics"]
    for name in sorted(set(metrics) ^ set(declared)):
        side = "printed but not declared" if name in metrics else "declared but not printed"
        problems.append(f"{where}: metric {name} {side}")
    for name in set(metrics) & set(declared):
        if metrics[name]["unit"] != declared[name]:
            problems.append(f"{where}: {name} unit {metrics[name]['unit']}, "
                            f"declared {declared[name]}")
    if trace:
        for layer in ZERO_PREDICTIONS[workload]:
            for name, m in metrics.items():
                if name.startswith(layer + ".") and name.endswith("_calls") and m["value"]:
                    problems.append(f"{where}: predicted 0, {name} = {m['value']}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "lattice", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [{m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_result(workload, trace, declared[trace])
            print(f"{workload} --trace {trace}: checked", flush=True)
    problems += check_bare_directory()
    for p in problems:
        print("PROBLEM", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
