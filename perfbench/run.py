"""dqs benchmark: whole CLI jobs in a closed loop, per-layer timing on request.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus-session --seed 1 --seconds 25 --trace 0

Workloads (perfbench/workloads.py):
  torus-session   flat tori of 8^2..24^2 quads with embedded bases; periods,
                  harmonic, abelian and abel-jacobi jobs, each on a surface of
                  its own.  Dense solves dominate; nothing repeats.
  topology-large  basis-free tori of 32^2..48^2, the 972-quad subdivided
                  genus-3 cover, unbranched torus covers of 8^2..16^2;
                  check, homology and hurwitz jobs.  No linear solves.
  genus3-dims     the 108-quad genus-3 cube cover under three weight draws;
                  riemann-roch, abelian, periods and one selftest per round.
                  Small solves, repeated work on identical surfaces.

Each job is ``dqs.cli.main(argv)`` run in-process on an input file the
benchmark generated, with ``--format json``; the report is checked
against references the benchmark knows (perfbench/workloads.py).  One
client runs jobs back to back (closed loop) in whole rounds until the
jobs have used --seconds of CPU time.

--trace 0 prints the end-to-end metrics:
  jobs_per_cpu_s  jobs that passed per CPU second the jobs used
  job_cpu_p50_s   median job latency in CPU seconds (failed jobs stay in)
  job_cpu_tail_s  job latency at the workload's fixed tail percentile
                  (p90, p75, p95): the highest standard percentile with at
                  least ten jobs beyond it at the workload's job count
  setup_s         median over five fresh processes of the wall time to
                  import numpy and dqs, generate the first inputs and run
                  one warm-up job
  peak_rss_mb     peak resident memory of the measuring process
Latencies are CPU time: see perfbench/worker.py for why; the wall-clock
figures go to the run record.
--trace 1 runs half the time untraced and half traced and prints the
per-layer self times and counts (perfbench/spans.py) plus the tracing
overhead.  Failed jobs count in "failed"; "correct" is false if any job
or the warm-up failed.

The BLAS thread count is pinned (BLAS_THREADS, capped at the CPUs this
process may use) because it moves dense-solve times both ways.  The
environment, the tail percentile and sample count, per-command medians
and, for traced runs, every span go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import METRICS as LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("torus-session", "topology-large", "genus3-dims")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = (("jobs_per_cpu_s", "jobs/s"), ("job_cpu_p50_s", "s"), ("job_cpu_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(threads):
    return {
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
    }


def run_worker(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() kills and reaps the worker
        raise BenchError(f"worker {argv} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "dqs", "cli.py")):
        raise BenchError(f"no dqs sources under {ROOT}/src; run from a checkout")
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env_record = environment(threads)
    print(json.dumps({"env": env_record}), file=sys.stderr)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        res = run_worker(common + ["--seconds", str(args.seconds), "--trace", "1",
                                   "--spans-out", stem + "-spans.json"], env, deadline)
        setups = [res]
        parts = [res["untraced"], res["traced"]]
        metrics = dict(res["layers"])
        metrics["trace.overhead_jobs_per_cpu_s"] = (res["untraced"]["jobs_per_cpu_s"]
                                                - res["traced"]["jobs_per_cpu_s"])
        units = dict(LAYER_METRICS)
    else:
        setups = [run_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(common + ["--seconds", str(args.seconds)], env, deadline)
        setups.append(res)
        parts = [res["run"]]
        metrics = {k: res["run"][k] for k in ("jobs_per_cpu_s", "job_cpu_p50_s",
                                              "job_cpu_tail_s")}
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        units = dict(END_TO_END)

    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    warmup_problems = [s["warmup_problems"] for s in setups if s["warmup_problems"]]
    correct = failed == 0 and not warmup_problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_record, "correct": correct,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "warmup_problems": warmup_problems,
              "setup_samples_s": [s["setup_s"] for s in setups],
              "metrics": metrics, "runs": parts}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for part in parts:
        print(json.dumps({"jobs": part["attempted"], "failed": part["failed"],
                          "tail_percentile": part["tail_percentile"],
                          "failures": part["failures"][:3]}), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
