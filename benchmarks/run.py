"""epsim benchmark.

    python3 benchmarks/run.py --workload {transfer,measure,bounds} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts the workload in a fresh
Python process (benchmarks/worker.py) that imports epsim from the checkout's
``src`` with BLAS pinned to one thread.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(see benchmarks/METRICS.md).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the run environment and the
full result also go to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("transfer", "measure", "bounds")
# setup_s is the median over this many fresh processes that only set up,
# plus the measuring process itself.
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object it prints."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before the worker started")
    argv = argv + ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run([sys.executable, str(WORKER)] + argv, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {done.returncode}")
    return json.loads(lines[-1])


def self_test() -> None:
    import selftest

    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(
        unittest.defaultTestLoader.loadTestsFromModule(selftest))
    if not result.wasSuccessful():
        raise BenchmarkError("benchmark self-test failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "epsim" / "__init__.py").is_file():
        print(f"error: no epsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        self_test()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(common + ["--work", str(work / f"probe{i}"), "--setup-only"],
                             env, deadline) for i in range(probes)]
        run = run_worker(common + ["--work", str(work / "run"), "--seconds",
                                   repr(args.seconds), "--trace", str(args.trace)],
                         env, deadline)
    except (BenchmarkError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if Path(run["epsim_file"]).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"error: imported epsim from {run['epsim_file']}, not this checkout",
              file=sys.stderr)
        return 1
    setups.append(run)
    metrics = run["metrics"]
    raw = run.get("raw_metrics", {})
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups),
                              "unit": "s"}
        raw["setup_s"] = {"value": statistics.median(s["setup_raw_s"] for s in setups),
                          "unit": "s"}
    correct = run["failed"] == 0 and run["renormalized"] == 0
    environment = dict(run["environment"], nproc=os.cpu_count(), cpu=cpu_model(),
                       commit=commit(), workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace)
    record = {"environment": environment, "correct": correct,
              "attempted": run["attempted"], "failed": run["failed"],
              "fail_ratio": run["failed"] / run["attempted"],
              "renormalized": run["renormalized"], "rounds": run["rounds"],
              "jobs_per_round": run["jobs_per_round"],
              "setup_runs_s": [s["setup_raw_s"] for s in setups],
              "failures": run["failures"], "metrics": metrics, "raw_metrics": raw}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("environment: " + json.dumps(environment))
    print(f"{args.workload}: {run['attempted']} jobs in {run['rounds']} rounds of "
          f"{run['jobs_per_round']}, {run['failed']} failed, "
          f"{run['renormalized']} renormalized state files")
    for metric, m in raw.items():
        print(f"raw {metric}: {m['value']:.6g} {m['unit']}")
    for failure in run["failures"]:
        print(f"failed: {failure}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
