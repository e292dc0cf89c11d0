"""Smoke test of the benchmark itself (not collected by pytest).

Runs every workload briefly on two seeds, untraced and traced, prints each
run's result line, and checks that each run prints a well-formed result
with every metric of BENCHMARK.json under its unit, that the output digest
of a seed repeats between its two runs and differs between seeds, and that
no op failed.

    python3 bench/smoke.py          # from the root of a checkout

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

SEEDS = (1, 2)
SECONDS = "1"
WORKERS = 2  # one run per CPU of a 2-vCPU machine


def run(workload: str, seed: int, trace: int) -> tuple[int, list[str], str]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    jobs = [(w, s, t) for w in workloads for s in SEEDS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        outcomes = dict(zip(jobs, pool.map(lambda job: run(*job), jobs)))

    problems = []
    digests: dict = {}
    for (w, s, t), (code, lines, stderr) in outcomes.items():
        where = f"{w} seed {s} trace {t}"
        if code != 0 or not lines:
            problems.append(f"{where}: exit code {code}\n{stderr[-2000:]}")
            continue
        print(f"{where}: {lines[-1]}")
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
            continue
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        if units != expected[t]:
            problems.append(f"{where}: metrics {units} != {expected[t]}")
        if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
            problems.append(f"{where}: a metric value is not a number")
        if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
            problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed\n{stderr[-2000:]}")
        digest = next(l.split()[-1] for l in lines if l.startswith("# digest "))
        digests.setdefault((w, s), set()).add(digest)
    for w in workloads:
        per_seed = [digests.get((w, s), set()) for s in SEEDS]
        if any(len(d) != 1 for d in per_seed):
            problems.append(f"{w}: digests do not repeat for a seed: {per_seed}")
        elif per_seed[0] == per_seed[1]:
            problems.append(f"{w}: seeds {SEEDS} gave the same digest")
    for p in problems:
        print("FAIL " + p)
    print(f"smoke: {len(jobs)} runs, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the root of a checkout")
    sys.exit(main())
