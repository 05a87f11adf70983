"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads lattice,finite] [--out FILE]

For every workload, one untraced run per seed (each in a fresh process, as
run.py is meant to be used), then one traced run on the first seed.  Prints
the median of each end-to-end metric with its quartile spread (distance
between the first and third quartile of statistics.quantiles(n=4), as a
share of the median) next to the metric's bound from BENCHMARK.json.  With
--out, writes the summary, the machine and the per-seed values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()},
               "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, seconds, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: {res['attempted']} jobs, {res['failed']} failed, "
                  f"{res['wall_s']:.1f} s wall, " + ", ".join(
                      f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            entry["end_to_end"][name] = {"median": statistics.median(values), "spread": s,
                                         "bound": bound, "values": values}
            print(f"  {name:<12} median {statistics.median(values):.5g}  "
                  f"spread {s:.4f}  bound {bound}", flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry["traced_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        print(f"  traced seed {args.seeds[0]}: trace_overhead "
              f"{traced['metrics']['trace_overhead']['value']:.4f}, "
              f"{traced['wall_s']:.1f} s wall", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
