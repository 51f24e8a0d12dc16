"""One workload in one fresh process: set up, then run the round of jobs
closed-loop with a single client until the time is up.

The host's speed drifts by a third and more within minutes, because other
guests share its cores, caches and memory.  So before each job the worker
times fixed pure-Python reference work, outside the job's timing, and the
end-to-end times are reported at reference speed: each latency is scaled by
NOMINAL_REFERENCE_S over the median reference time of the jobs around it.
The reference work does not touch epsim, so a change to epsim moves the
scaled times as much as the raw ones.  The raw times are reported too.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and BLAS
pinned to one thread.  Prints one JSON object on stdout.  With
``--setup-only`` it stops after set-up, so run.py can time set-up in several
fresh processes.
"""

from __future__ import annotations

import time

_WALL_AT_IMPORT = time.time()

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

import stats
import tracing
import workloads

RENORMALIZED = "warning: renormalizing state file"
MAX_REPORTED_FAILURES = 5
REFERENCE_ITERATIONS = 20_000
REFERENCE_ENTRIES = 8_000
# About the reference's median time on a 2-vCPU Intel Xeon (Sapphire Rapids)
# KVM guest; it only sets the scale of the reported times.
NOMINAL_REFERENCE_S = 3.2e-3
REFERENCE_WINDOW = 11
SETUP_REFERENCES = 5


def reference_loop() -> float:
    """Seconds taken by fixed pure-Python work: the geometric mean of an
    integer loop, which follows the core's speed, and a dict build, which
    also follows cache and memory contention."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    middle = time.perf_counter()
    table = {(i, i + 1): complex(i, 1.0) for i in range(REFERENCE_ENTRIES)}
    {key: value * 2.0 for key, value in table.items()}
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


class Runner:
    """Runs jobs, checks their outputs and keeps the tallies of one run."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.renormalized = 0
        self.failures: list[str] = []
        self.references: list[float] = []
        self._written: dict[str, bytes] = {}

    def run_round(self, jobs: list[workloads.Job],
                  tracer: tracing.Tracer | None = None) -> list[float]:
        return [self.run_job(job, tracer) for job in jobs]

    def run_job(self, job: workloads.Job, tracer: tracing.Tracer | None) -> float:
        """Run one job; return its latency in seconds.  A failed job keeps
        its latency and counts in ``failed``."""
        if job.out and not job.same_as_previous:
            Path(job.out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, value, error = 0, None, None
        self.references.append(reference_loop())
        start = time.perf_counter()
        span = tracer.begin(tracing.JOB_SPAN) if tracer else None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if job.argv is not None:
                    rc = self.cli.main(job.argv)
                else:
                    value = job.call()
        except (Exception, SystemExit) as exc:  # the job boundary: record and go on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        self.renormalized += stderr.getvalue().count(RENORMALIZED)
        if error is None and rc != 0:
            error = f"exit {rc}: {stderr.getvalue().strip()[-200:]}"
        if error is None:
            error = self._check(job, workloads.Outcome(stdout.getvalue(), value))
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{job.label}: {error}")
        return elapsed

    def _check(self, job: workloads.Job, outcome: workloads.Outcome) -> str | None:
        try:
            job.check(outcome)
            if job.out:
                data = Path(job.out).read_bytes()
                if job.same_as_previous:
                    if data != self._written.get(job.out):
                        return f"--out {job.out} differs from the identical previous run"
                else:
                    self._written[job.out] = data
        except workloads.CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # malformed output is a failed check, not a crash
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def untraced(runner: Runner, jobs, seconds: float) -> dict:
    latencies: list[float] = []
    min_jobs = stats.min_samples_for(90)
    began = time.perf_counter()
    rounds = 0
    while True:
        latencies += runner.run_round(jobs)
        rounds += 1
        if time.perf_counter() - began >= seconds and len(latencies) >= min_jobs:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = stats.at_reference_speed(latencies, runner.references,
                                      NOMINAL_REFERENCE_S, REFERENCE_WINDOW)
    return {
        "rounds": rounds,
        "metrics": dict(timing_metrics(scaled),
                        peak_rss_mb={"value": peak_kb / 1024.0, "unit": "MB"}),
        "raw_metrics": timing_metrics(latencies),
    }


def timing_metrics(latencies: list[float]) -> dict:
    return {
        "jobs_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "job_p50_ms": {"value": stats.median(latencies) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": stats.percentile(latencies, 90) * 1e3, "unit": "ms"},
    }


def traced(runner: Runner, jobs, seconds: float) -> dict:
    """After one warm-up round, rounds alternate untraced and traced in the
    order U T T U, so drift falls on both sides of the overhead ratio, which
    compares the mean round at reference speed."""
    began = time.perf_counter()
    latencies = runner.run_round(jobs)   # warm-up, on neither side of the ratio
    traced_flags: list[bool | None] = [None] * len(latencies)
    tracer = tracing.Tracer()
    rounds = {False: 0, True: 0}
    renormalized_traced = 0
    i = 0
    while True:
        on = i % 4 in (1, 2)
        before = runner.renormalized
        if on:
            tracer.install()
        try:
            latencies += runner.run_round(jobs, tracer if on else None)
        finally:
            tracer.uninstall()
        traced_flags += [on] * len(jobs)
        if on:
            renormalized_traced += runner.renormalized - before
        rounds[on] += 1
        i += 1
        if i >= 2 and time.perf_counter() - began >= seconds:
            break
    scaled = stats.at_reference_speed(latencies, runner.references,
                                      NOMINAL_REFERENCE_S, REFERENCE_WINDOW)
    mean_round = {on: sum(x for x, f in zip(scaled, traced_flags) if f is on) / rounds[on]
                  for on in (False, True)}
    overhead = mean_round[True] / mean_round[False] - 1.0
    return {
        "rounds": rounds[True] + rounds[False],
        "metrics": tracer.metrics(rounds[True], overhead,
                                  renormalized_traced / rounds[True]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs")
    parser.add_argument("--spawned-at", type=float, default=_WALL_AT_IMPORT,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import epsim.cli

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(args.workload, args.seed, work)
    setup_raw_s = time.time() - args.spawned_at
    reference = stats.median([reference_loop() for _ in range(SETUP_REFERENCES)])
    setup = {"setup_s": setup_raw_s * NOMINAL_REFERENCE_S / reference,
             "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    runner = Runner(epsim.cli)
    run = (traced if args.trace else untraced)(runner, jobs, args.seconds)
    run.update(setup)
    run.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "renormalized": runner.renormalized,
        "failures": runner.failures,
        "jobs_per_round": len(jobs),
        "environment": environment(),
        "epsim_file": epsim.cli.__file__,
    })
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
