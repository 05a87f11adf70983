"""Scarf CLI benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload's seeded job list (see
workloads.py) is run as a closed loop with one client and one thread in
this fresh process.  A job is one in-process call of
``scarf.cli.main([<subcommand>, <file>, *flags, "--format", "structured"])``
with stdout captured; its time covers argparse, load, compute, render and
write.  Outputs are saved, and every one is checked after the timed loop.

The job list is fixed by the workload, the seed and --seconds: the
workload's fixed jobs, then round(--seconds * ROUNDS_PER_SECOND) rounds.
The rate is a constant, so a parent commit and a change run the same jobs
for one --seconds, and a faster program only finishes the list sooner.
--trace 0 runs the list and reports the end-to-end metrics; the fresh
imports for setup_s are timed between jobs, spread over the run.  --trace 1
runs every job of the same list once untraced and once traced, and reports
the per-layer metrics of spans.py with the tracing overhead; call counts
repeat exactly for one seed.  Human-readable lines come first; the last line
of stdout is the JSON result.  Per-job records (time, exit code, output
sha256, failure) and the setup samples go to
.perfbench/<workload>-seed<seed>-trace<t>.json, spans to a .tsv.gz beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Rounds per second of --seconds.  Set once, from untraced runs at the
# commit that added the benchmark on a 2-vCPU x86 VM, so that the job time of
# a run is about --seconds there; it is not retuned when the program gets
# faster, since that would change the job list under comparison.
ROUNDS_PER_SECOND = {"lattice": 0.425, "finite": 0.2}
SETUP_SAMPLES = 21
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import scarf.cli; "
                 "print(time.perf_counter() - t)")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("lattice", "finite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Time of ``import scarf.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class Runner:
    """Runs jobs through scarf.cli.main and keeps what the checks need."""

    def __init__(self, workdir: Path):
        from scarf import cli

        self.main = cli.main
        self.workdir = workdir

    def run(self, job, index: int, tag: str) -> dict:
        path = self.workdir / f"in{index}.json"
        path.write_text(json.dumps(job.doc))
        argv = [job.subcommand, str(path), *job.flags, "--format", "structured"]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                code = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        output = self.workdir / f"out{index}{tag}.json"
        output.write_text(text)
        return {"id": job.id, "seconds": seconds, "exit": code, "output": output,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "stderr": err.getvalue()[-400:]}


def check_all(jobs, records) -> int:
    """Fill in each record's failure, outside the timed region; return the count."""
    from checks import check

    failed = 0
    for job, rec in zip(jobs, records):
        failure = rec.get("failure")
        if failure is None and rec["exit"] != 0:
            failure = f"exit {rec['exit']}: {rec['stderr'].strip()}"
        if failure is None:
            try:
                failure = check(job, rec["output"].read_text())
            except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the job
                failure = f"check raised {type(exc).__name__}: {exc}"
        rec["failure"] = failure
        failed += failure is not None
    return failed


def nearest_rank(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_jobs(runner, jobs, tracer=None) -> tuple[list[dict], list[float]]:
    """Run the job list once; return the job records and the setup samples.

    Untraced, fresh imports of scarf.cli are timed between jobs, every
    len(jobs) / SETUP_SAMPLES jobs, after one warm-up import, so that they
    sample the machine over the whole run rather than one moment of it.
    Traced, each job runs once untraced and once traced, and the two outputs
    must agree.
    """
    records, setup = [], []
    step = max(1, len(jobs) // SETUP_SAMPLES)
    if tracer is None:
        setup_seconds()
    for index, job in enumerate(jobs):
        if tracer is None and index % step == 0 and len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
        rec = runner.run(job, index, "")
        if tracer is not None:
            tracer.job = index + 1
            tracer.install()
            try:
                traced = runner.run(job, index, ".traced")
            finally:
                tracer.uninstall()
            if traced["sha256"] != rec["sha256"] or traced["exit"] != rec["exit"]:
                rec["failure"] = "traced output differs from the untraced output"
            rec["traced_seconds"] = traced["seconds"]
        records.append(rec)
    return records, setup


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n jobs beyond its nearest rank."""
    for pct in range(99, 50, -1):
        if n - max(1, math.ceil(pct / 100 * n)) >= 10:
            return pct
    return 50


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "scarf" / "cli.py").is_file():
        print(f"perfbench: no scarf sources under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
    jobs = WORKLOADS[args.workload](args.seed, rounds)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        tracer = None
        if args.trace == 1:
            from spans import Tracer

            tracer = Tracer()
        t0 = time.perf_counter()
        records, setup = run_jobs(runner, jobs, tracer)
        t1 = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = check_all(jobs, records)
        check_s = time.perf_counter() - t1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [r["seconds"] for r in records]
    lines = [f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs in {rounds} "
             f"rounds, {sum(times):.2f} s of job time, closed loop, 1 client, 1 thread",
             f"  loop {t1 - t0:.2f} s, checks {check_s:.2f} s"]
    if tracer is None:
        pct = tail_percentile(len(times))
        tail, beyond = nearest_rank(times, pct)
        values = {
            "jobs_per_s": (len(times) / sum(times), "1/s", f"n={len(times)} jobs"),
            "job_p50_s": (statistics.median(times), "s", f"n={len(times)} jobs"),
            "job_tail_s": (tail, "s", f"p{pct}, n={len(times)} jobs, {beyond} beyond"),
            "peak_rss_mb": (peak_rss_mb, "MB", "n=1 process"),
            "setup_s": (statistics.median(setup), "s",
                        f"median of n={len(setup)} fresh imports of scarf.cli"),
        }
        lines.append(f"  {'failed_share':<14} {failed / len(jobs):.4f} ratio "
                     f"({failed} of n={len(jobs)} jobs)")
    else:
        overhead = sum(r["traced_seconds"] for r in records) / sum(times)
        values = {k: (v, _unit(k), "") for k, v in tracer.metrics().items()}
        values["trace_overhead"] = (overhead, "ratio", f"n={len(times)} jobs run both ways")
        tracer.write(OUT / f"{stem}-spans.tsv.gz")
    for name, (value, unit, note) in values.items():
        lines.append(f"  {name:<14} {value:.6g} {unit} {note}".rstrip())
    for rec in records:
        if rec["failure"]:
            lines.append(f"  FAILED {rec['id']}: {rec['failure']}")
    print("\n".join(lines))

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()},
    }
    _write_record(OUT / f"{stem}.json", args, result, records, setup)
    print(json.dumps(result))
    return 0


def _unit(metric: str) -> str:
    from spans import DERIVED

    if metric in DERIVED:
        return DERIVED[metric][0]
    return "count" if metric.endswith("_calls") else "s"


def _write_record(path: Path, args, result: dict, records, setup) -> None:
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s": setup,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "result": result,
        "jobs": [{k: v for k, v in r.items() if k != "output"} for r in records],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
