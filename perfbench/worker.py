"""One fresh benchmark process: set-up, warm-up, then the timed job loop.

Started by run.py, never imported.  The process times its own set-up
from its first statement: importing numpy and dqs, generating the first
inputs and running one warm-up job.  With --setup-only it stops there.
Otherwise it runs whole rounds of jobs in a closed loop with one client
until the jobs have used --seconds of CPU time; input generation and
checks between jobs are not counted.  With --trace 1 the time is split:
the first half runs untraced, the second half traced, so the two halves
give the tracing overhead.

Job latency is the CPU time of the process during the job.  The program
is single-threaded here (run.py pins BLAS to one thread), so on an idle
machine this equals the wall time.  On a shared virtual machine it
leaves out the time the hypervisor gives the CPU to other guests; on a
2-vCPU guest that time made the wall-clock median job latency spread by
a quarter between runs.  Wall-clock figures are kept in the run record.

The last stdout line is a JSON result for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402  (part of the measured import)
from dqs import cli  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def execute(job, tracer=None, job_id=-1):
    """Run one CLI job in-process; returns (cpu_s, wall_s, problems)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job_id
    problems = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects the command line
        status = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed run
        status = None
        problems.append(f"raised {type(exc).__name__}: {exc}")
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    if status != 0 and not problems:
        problems.append(f"exit status {status}: {err.getvalue().strip()[:200]}")
    if not problems:
        try:
            reports = [json.loads(line) for line in out.getvalue().splitlines() if line]
        except json.JSONDecodeError as exc:
            reports = []
            problems.append(f"report is not JSON lines: {exc}")
        for rep in reports:
            problems += [f"check {c['name']} failed" for c in rep.get("checks", ())
                         if not c["pass"]]
        if not problems:
            problems += job.check(reports)
    return cpu, wall, problems


def loop(workload, budget, first_round, jobs, tracer=None):
    """Whole rounds until the jobs have used budget seconds of CPU time.

    jobs is round first_round, already generated; returns the samples,
    the wall time of the loop and the next round, generated.
    """
    samples = []  # (label, cpu_s, wall_s, problems)
    wall = 0.0
    r = first_round
    while sum(s[1] for s in samples) < budget:
        start = time.perf_counter()
        for job in jobs:
            samples.append((job.label, *execute(job, tracer, len(samples))))
        wall += time.perf_counter() - start
        r += 1
        jobs = workload.round(r)
    return samples, wall, r, jobs


def _tail(sorted_values, percentile):
    """Nearest-rank percentile; in runs too short for ten jobs beyond it,
    the job with ten beyond it.  Returns (value, percentile used)."""
    n = len(sorted_values)
    rank = math.ceil(percentile / 100 * n)
    if n - rank < 10:
        rank = max(n - 10, 1)
    return sorted_values[rank - 1], 100.0 * rank / n


def summarize(samples, wall, percentile):
    """End-to-end figures of one loop; latencies are CPU seconds per job."""
    n = len(samples)
    passed = sum(1 for s in samples if not s[3])
    cpu = sorted(s[1] for s in samples)
    walls = sorted(s[2] for s in samples)
    tail, used = _tail(cpu, percentile)
    by_label = {}
    for label, job_cpu, *_ in samples:
        by_label.setdefault(label, []).append(job_cpu)
    return {
        "attempted": n,
        "failed": n - passed,
        "jobs_per_cpu_s": passed / sum(cpu),
        "job_cpu_p50_s": float(np.median(cpu)),
        "job_cpu_tail_s": tail,
        "tail_percentile": used,
        "wall_jobs_per_s": passed / wall,
        "wall_p50_s": float(np.median(walls)),
        "wall_tail_s": _tail(walls, percentile)[0],
        "label_cpu_p50_s": {k: float(np.median(v)) for k, v in sorted(by_label.items())},
        "failures": [(s[0], s[3]) for s in samples if s[3]][:20],
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        jobs = workload.round(0)
        warm_problems = execute(workload.warmup())[2]
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "warmup_problems": warm_problems}
        if not args.setup_only:
            if args.trace:
                plain, plain_wall, r, jobs = loop(workload, args.seconds / 2, 0, jobs)
                tracer = Tracer()
                tracer.install()
                try:
                    traced, traced_wall, _, _ = loop(workload, args.seconds / 2, r, jobs,
                                                     tracer)
                finally:
                    tracer.remove()
                result["untraced"] = summarize(plain, plain_wall, workload.TAIL_PERCENTILE)
                result["traced"] = summarize(traced, traced_wall, workload.TAIL_PERCENTILE)
                result["layers"] = tracer.metrics()
                if args.spans_out:
                    tracer.dump(args.spans_out)
            else:
                samples, wall, _, _ = loop(workload, args.seconds, 0, jobs)
                result["run"] = summarize(samples, wall, workload.TAIL_PERCENTILE)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
