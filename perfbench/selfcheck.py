"""Fast self-check of the benchmark; exits non-zero on the first problem.

    python3 perfbench/selfcheck.py

Runs every workload for one round (--seconds 1) on two seeds, untraced
and traced, and checks that the result line has exactly the keys the
benchmark contract names, that every metric of BENCHMARK.json is emitted
with its unit, and that no job failed.  Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                proc = run(ROOT, wl, seed, trace)
                where = f"{wl} seed {seed} trace {trace}"
                if proc.returncode != 0:
                    problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                    continue
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(res) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(res)}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{where}: metrics {got} != {expected[trace]}")
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{where}: correct={res['correct']} failed="
                                    f"{res['failed']}/{res['attempted']}\n{proc.stderr[-1500:]}")
                print(f"{where}: {res['attempted']} jobs, failed_frac "
                      f"{res['failed'] / res['attempted']}", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"bare directory: refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p, file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
