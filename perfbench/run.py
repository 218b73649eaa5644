#!/usr/bin/env python3
"""clusterkit benchmark: runs seeded CLI jobs and reports their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a clusterkit checkout (it imports `src/`).  The
seed fixes every input; --seconds sizes the run as a whole number of rounds
of jobs at this program's speed, so every commit runs the same jobs.  Jobs
run one at a time, each in a process forked from this one after it has
imported clusterkit, so no job reuses a cache an earlier one filled.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it runs half as many rounds, each job untraced and then traced,
and reports the per-layer metrics.  Every job's output is checked; a job fails on a wrong exit code,
a wrong output or a timeout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60
SETUP_STARTS = 11
REF_REPS = 3
# Fastest of three runs of _reference_work on a 2-CPU x86-64 machine (Python
# 3.11), as a median over many measurements.
REF_NOMINAL_S = 0.0054
# Seconds the machine's speed stays correlated over (see run_rounds).
TAU_S = 0.5
# Round time of each workload at this commit, in seconds: a run holds
# max(MIN_ROUNDS, ceil(seconds / ROUND_S)) rounds.
ROUND_S = {
    "explore-finite": 3.4,
    "mutate-deep": 1.6,
    "grassmann-fixtures": 4.0,
    "lattice-maps": 1.35,
}
MIN_ROUNDS = 3


@dataclass
class JobResult:
    stratum: str
    wall_s: float
    maxrss_kib: int
    stdout_bytes: int
    digest: str
    failure: Optional[str]
    scaled_s: float = 0.0


def job_env() -> None:
    """The environment a CLI user gets: no thread-pool override."""
    os.environ.pop("CLUSTERKIT_THREADS", None)
    os.environ["PYTHONPATH"] = SRC


def _reference_work() -> int:
    """Fixed pure-Python work in the program's style: a product of sparse
    integer polynomials held as dicts of exponent tuples."""
    f = {(i, j, 11 - i - j): 31 * i + j + 1 for i in range(12) for j in range(12 - i)}
    out: Dict[tuple, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in f.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return len(out)


def machine_speed() -> float:
    """This machine's current slowness against REF_NOMINAL_S (1.0 = usual).

    Other tenants slow a shared machine's CPUs by up to half, for a fraction
    of a second to minutes at a time, and CPU time grows with wall time when
    they do.  Timing the reference work next to each measurement and
    dividing by its slowness takes most of that out."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    # bursts shorter than a job average out over many jobs; the fastest
    # repetition follows the slower drift that does not
    return min(times) / REF_NOMINAL_S


def measure_setup() -> float:
    """Median time from a cold interpreter start to clusterkit.cli imported,
    scaled by the machine speed."""
    argv = [sys.executable, "-c", "import clusterkit.cli"]
    subprocess.run(argv, check=True)  # writes bytecode caches, not timed
    times, speeds = [], [machine_speed()]
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - t0)
        speeds.append(machine_speed())
    raw = statistics.median(times)
    print(f"unscaled setup {raw:.6g} s")
    return raw / statistics.median(speeds)


def _child(argv: List[str], out_path: str, trace_path: Optional[str]) -> None:
    """Body of a job process; never returns."""
    code = 1  # what the interpreter returns for an uncaught exception
    try:
        signal.alarm(JOB_TIMEOUT_S)
        for fd, path in ((1, out_path), (2, out_path + ".err")):
            handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(handle, fd)
            os.close(handle)
        from clusterkit import cli

        entry = cli.main.main
        spans = None
        if trace_path is not None:
            spans = tracer.Tracer()
            spans.install()
            entry = spans.root(entry)
        try:
            entry(args=argv, prog_name="clusterkit", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        sys.stdout.flush()
        sys.stderr.flush()
        if spans is not None:
            spans.dump(trace_path)
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def execute(argv: List[str], workdir: str, trace_path: Optional[str]):
    """Run one CLI job in a forked process: (wall s, exit code, peak RSS KiB,
    stdout bytes)."""
    out_path = os.path.join(workdir, "job.out")
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, out_path, trace_path)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(out_path, "rb") as handle:
        out = handle.read()
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, out


def judge(job: workloads.Job, wall: float, code: int, maxrss: int, out: bytes) -> JobResult:
    if code < 0:
        failure = f"killed by signal {-code}" + (" (timeout)" if -code == signal.SIGALRM else "")
    else:
        failure = job.check(code, out)
    return JobResult(job.stratum, wall, maxrss, len(out),
                     hashlib.sha256(out).hexdigest(), failure)


def run_job(job: workloads.Job, workdir: str, trace_path: Optional[str]) -> JobResult:
    return judge(job, *execute(job.argv, workdir, trace_path))


def run_rounds(rounds: List[List[workloads.Job]], workdir: str,
               totals: Optional[tracer.Totals] = None):
    """Run every job: (untraced results, traced results).

    With totals, each job runs again traced right after its untraced run,
    so both see the same machine, and its spans go into totals.  The
    machine speed is measured before each job and after the last.  A job's
    scaled time is its wall time divided by a blend of the mean speed at its
    two ends and the run's mean speed, weighted TAU_S : duration: the speed
    at the ends says little about the middle of a long job."""
    plain: List[JobResult] = []
    traced: List[JobResult] = []
    runs = [(plain, None)]
    if totals is not None:
        runs.append((traced, os.path.join(workdir, "job.spans")))
    ordered = []
    speeds = [machine_speed()]
    for job in (job for jobs in rounds for job in jobs):
        for results, trace_path in runs:
            result = run_job(job, workdir, trace_path)
            speeds.append(machine_speed())
            if result.failure is not None:
                print(f"FAIL {result.stratum} {' '.join(job.argv)}: {result.failure}",
                      file=sys.stderr)
            if trace_path is not None and os.path.exists(trace_path):
                totals.add_job(tracer.load_spans(trace_path))
                os.remove(trace_path)
            results.append(result)
            ordered.append(result)
        if traced and traced[-1].digest != plain[-1].digest and traced[-1].failure is None:
            traced[-1].failure = "stdout differs with tracing on"
    run_speed = statistics.mean(speeds)
    for i, result in enumerate(ordered):
        near = TAU_S / (TAU_S + result.wall_s)
        speed = near * (speeds[i] + speeds[i + 1]) / 2 + (1 - near) * run_speed
        result.scaled_s = result.wall_s / speed
    return plain, traced


def tail(walls: List[float]):
    """Highest percentile with ten jobs beyond it: (percentile, value)."""
    ordered = sorted(walls)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def fail_frac(results: List[JobResult]) -> float:
    """Failed jobs over attempted jobs."""
    return sum(r.failure is not None for r in results) / len(results)


def end_to_end(results: List[JobResult], rounds: int, setup_s: float) -> Dict[str, tuple]:
    """Times are scaled to the machine's usual speed (see machine_speed)."""
    walls = [r.scaled_s for r in results]
    ok = sum(r.failure is None for r in results)
    by_stratum: Dict[str, List[float]] = {}
    for r in results:
        by_stratum.setdefault(r.stratum, []).append(r.scaled_s)
    # a round at typical speed: each stratum's median times its jobs per round
    round_s = sum(statistics.median(v) * len(v) / rounds for v in by_stratum.values())
    pct, tail_s = tail(walls)
    raw = [r.wall_s for r in results]
    print(f"jobs {len(results)} in {rounds} rounds; "
          f"tail is p{pct:.1f} of {len(results)} jobs; unscaled job p50 "
          f"{statistics.median(raw):.6g} s, tail {tail(raw)[1]:.6g} s, "
          f"batch {sum(raw):.6g} s")
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (ok / rounds / round_s, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mib": (max(r.maxrss_kib for r in results) / 1024.0, "MiB"),
    }


def per_layer(totals: tracer.Totals, untraced: List[JobResult],
              traced: List[JobResult]) -> Dict[str, tuple]:
    """Per-job means over the traced jobs, except for the peaks and ratios."""
    jobs = max(totals.jobs, 1)

    def seconds(ns: int) -> tuple:
        return (ns / 1e9 / jobs, "s/job")

    def per_job(table: Dict[str, int], *names: str) -> tuple:
        return (sum(table.get(n, 0) for n in names) / jobs, "count/job")

    def excl(*names: str) -> tuple:
        return seconds(sum(totals.excl_ns.get(n, 0) for n in names))

    calls, a_sum = totals.calls, totals.a_sum
    canon = calls.get("patterns.canonical_key", 0)
    hits = totals.b_sum.get("patterns.explore", 0)
    peak = max((v for k, v in totals.b_max.items() if k.startswith("laurent.")), default=0)
    base = sum(r.scaled_s for r in untraced)
    out = {f"{layer}.self_s": seconds(ns) for layer, ns in totals.layer_self_ns.items()}
    out.update({
        "patterns.canonical_key.calls": per_job(calls, "patterns.canonical_key"),
        "patterns.canonical_key.self_s": excl("patterns.canonical_key"),
        "patterns.nodes": per_job(a_sum, "patterns.explore"),
        "patterns.dedup_hits": per_job(totals.b_sum, "patterns.explore"),
        "patterns.hit_ratio": (hits / canon if canon else 0.0, "1"),
        "seeds.mutate_seed.calls": per_job(calls, "seeds.mutate_seed"),
        "seeds.mutate_seed.self_s": excl("seeds.mutate_seed"),
        "seeds.seed_init.calls": per_job(calls, "seeds.seed_init"),
        "seeds.seed_init.self_s": excl("seeds.seed_init"),
        "laurent.mul.calls": per_job(calls, "laurent.mul"),
        "laurent.mul.self_s": excl("laurent.mul"),
        "laurent.mul.term_pairs": per_job(a_sum, "laurent.mul"),
        "laurent.exact_div.calls": per_job(calls, "laurent.exact_div"),
        "laurent.exact_div.self_s": excl("laurent.exact_div"),
        "laurent.exact_div.quot_terms": per_job(a_sum, "laurent.exact_div"),
        "laurent.peak_terms": (peak, "count"),
        "laurent.to_str.self_s": excl("laurent.to_str"),
        "cli.stdout_bytes": (sum(r.stdout_bytes for r in traced) / jobs, "B/job"),
        "grassmann.flattoband_check.calls": per_job(calls, "grassmann.flattoband_check"),
        "grassmann.flattoband_check.self_s": excl("grassmann.flattoband_check"),
        "grassmann.factor_fstar.calls": per_job(calls, "grassmann.factor_fstar"),
        "grassmann.factor_fstar.self_s": excl("grassmann.factor_fstar"),
        "grassmann.tropical_c_check.self_s": excl("grassmann.tropical_c_check"),
        "grassmann.substitute.self_s": excl("grassmann.substitute"),
        "lattice.hnf.calls": per_job(calls, "lattice.hermite_normal_form"),
        "lattice.hnf.self_s": excl("lattice.hermite_normal_form"),
        "lattice.hnf.max_bits": (totals.a_max.get("lattice.hermite_normal_form", 0), "bit"),
        "lattice.solve.calls": per_job(calls, "lattice.solve_left", "lattice.solve_left_rational"),
        "lattice.solve.self_s": excl("lattice.solve_left", "lattice.solve_left_rational"),
        "quasihom.construct_qh.self_s": excl("quasihom.construct_qh",
                                             "quasihom.construct_qh_diagnostics"),
        "quasihom.verify_qh.self_s": excl("quasihom.verify_qh"),
        "quasihom.apply_map.calls": per_job(calls, "quasihom.apply_map"),
        "orbits.seeds_equivalent.calls": per_job(calls, "orbits.seeds_equivalent"),
        "trace.overhead_frac": (sum(r.scaled_s for r in traced) / base - 1.0, "1"),
    })
    return out


def layer_shares(totals: tracer.Totals) -> str:
    total = sum(totals.layer_self_ns.values()) or 1
    shares = sorted(totals.layer_self_ns.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {100.0 * ns / total:.1f}%" for layer, ns in shares if ns)


def report(metrics: Dict[str, tuple]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "clusterkit", "cli.py")):
        print(f"no clusterkit sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    rounds = max(MIN_ROUNDS, math.ceil(args.seconds / ROUND_S[args.workload]))
    job_env()
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        if args.trace:
            rounds = max(2, rounds // 2)
        batches = build(rng, workdir, rounds)
        sys.path.insert(0, SRC)
        import clusterkit.cli  # noqa: F401  (imported once, before any fork)

        totals = tracer.Totals() if args.trace else None
        plain, traced = run_rounds(batches, workdir, totals)
        if totals is not None:
            metrics = per_layer(totals, plain, traced)
            print("layer self-time shares: " + layer_shares(totals))
        else:
            metrics = end_to_end(plain, rounds, measure_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.failure is not None for r in plain + traced)
    attempted = len(plain) + len(traced)
    report(metrics)
    print(f"{'fail_frac':40s} {fail_frac(plain + traced):.6g} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
