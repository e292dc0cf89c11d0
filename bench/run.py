"""Benchmark of the gasketforms library: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload exact_calculus --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the root
names the metrics.  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` is the median over ``SETUP_SAMPLES`` fresh processes of
the time from process start to the end of set-up, and the rest come from the
last of those processes, which goes on to run the workload in a closed loop.
With ``--trace 1`` one process runs a traced round and reports the per-layer
metrics and the tracing overhead.  Every process is a fresh interpreter, so
no run warms another's caches.

Lines starting with ``#`` describe the run (interpreter, CPU count, git
revision, generator parameters, output digest); the last line is the JSON
result.  Exit code 0 means a result was printed; any other code means the
run could not be made, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every process of one run must end within this
HERE = os.path.dirname(os.path.abspath(__file__))
# one thread per worker: BLAS threads would compete with the benchmark's own
# process on a 2-vCPU machine and make the float engines' timings erratic
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class RunError(Exception):
    pass


def git_revision(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(root: str, args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start one worker; return (seconds until it was set up, its result line)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", root, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    limit = deadline - time.monotonic()
    if limit <= 0:
        raise RunError("out of time before starting a worker")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"worker exited with code {code} before finishing")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gasketforms benchmark (one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gasketforms", "__init__.py")):
        print("bench: no src/gasketforms here; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_times.append(run_worker(root, args, deadline, setup_only=True)[0])
        setup_s, line = run_worker(root, args, deadline, setup_only=False)
        setup_times.append(setup_s)
        result = json.loads(line)
    except (RunError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    measured["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"bench: metric {m['name']} ({m['unit']}) was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = got

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_revision(root),
        "setup_samples_s": setup_times,
        "params": result["params"],
    }
    print("# run " + json.dumps(info))
    print(f"# digest {result['digest']}")
    print(f"# failed_ratio {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']}")
    extra = {k: v for k, v in measured.items() if k not in metrics}
    print("# other " + json.dumps(extra))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
