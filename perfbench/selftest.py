#!/usr/bin/env python3
"""Self-test of the output checks: corrupted job outputs must count as failed.

    python3 perfbench/selftest.py

Run it from the root of a clusterkit checkout.  It runs the cheap jobs of
one round of every workload, checks that each real output passes, then
corrupts each output in a field its check covers and checks that the job
now fails.  Finally it corrupts one output of a batch and checks that the
batch reports fail_frac = 1 / jobs.  It prints one line per workload and
exits 1 if any corruption went unnoticed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import run
import workloads


def _bump(value) -> str:
    return str(int(value) + 1)


def _corrupt(argv, out: bytes) -> bytes:
    """The output with one checked fact changed."""
    payload = json.loads(out)
    command = argv[0]
    if command == "explore":
        payload["nodes"].pop()
    elif command == "mutate":
        term = payload["seed"]["cluster"][-1]["terms"][0]
        term["coef"] = _bump(term["coef"])
    elif command == "grassmann":
        payload["factorizations"].pop()
    elif command == "surface":
        payload["checks"][0]["cases"] += 1
    elif command == "gradings":
        payload["basis"][0][0] += 1
    elif command == "construct-qh":
        payload["map"][-1][0] += 1
    elif command == "verify-qh":
        payload["verdict"] = False
    elif command == "orbit-eq":
        payload["equivalent"] = not payload["equivalent"]
    return json.dumps(payload).encode()


# strata left out because one of their jobs takes seconds
SLOW = {"A5+2", "D5+1", "gr26-all", "bits60", "bits64"}


def main() -> int:
    run.job_env()
    sys.path.insert(0, run.SRC)
    import clusterkit.cli  # noqa: F401

    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    missed = 0
    try:
        for name, build in sorted(workloads.WORKLOADS.items()):
            jobs = [job for job in build(random.Random(1), workdir, 1)[0]
                    if job.stratum not in SLOW]
            clean, corrupted = [], []
            for job in jobs:
                wall, code, rss, out = run.execute(job.argv, workdir, None)
                clean.append(run.judge(job, wall, code, rss, out))
                corrupted.append(run.judge(job, wall, code, rss, _corrupt(job.argv, out)))
            for job, ok, bad in zip(jobs, clean, corrupted):
                if ok.failure is not None or bad.failure is None:
                    missed += 1
                    print(f"  {job.stratum}: clean -> {ok.failure}, corrupted -> {bad.failure}")
            fail_frac = run.fail_frac(clean[:-1] + corrupted[-1:])
            caught = sum(bad.failure is not None for bad in corrupted)
            print(f"{name}: {caught}/{len(jobs)} corrupted outputs failed their check; "
                  f"one corrupted job in {len(jobs)} gives fail_frac {fail_frac:.4f}")
            if fail_frac != 1 / len(jobs):
                missed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if missed == 0 else f"FAILED ({missed})"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
