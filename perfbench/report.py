#!/usr/bin/env python3
"""Run every workload once and print its six end-to-end metrics.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace 1]

Run it from the root of a clusterkit checkout.  Each workload runs in its
own `run.py` process, one after another; with --trace 1 the table lists
the per-layer metrics instead.  Exits 1 if any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    rows = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        if not args.trace:
            metrics["fail_frac"] = (result["failed"] / result["attempted"], "1")
        rows[name] = (result, metrics)
    names = list(rows)
    print(f"{'metric':36s} {'unit':9s} " + " ".join(f"{n:>18s}" for n in names))
    for metric, (_, unit) in next(iter(rows.values()))[1].items():
        cells = " ".join(f"{rows[n][1][metric][0]:18.6g}" for n in names)
        print(f"{metric:36s} {unit:9s} {cells}")
    return 0 if all(r["failed"] == 0 for r, _ in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
