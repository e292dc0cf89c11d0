"""Interleaved A/B runs of ``bench/run.py`` on two checkouts, written to one JSON record.

Run from anywhere, with two git checkouts (clones, so that ``bench/run.py``
can name their revisions):

    python3 tools/ab_record.py --parent ../parent --change ../change \
        --label certified_edge --claim certified_engines:ops_per_s \
        --pairs certified_engines=231-240 --pairs exact_calculus=241-243 \
        --trace certified_engines=231 --out BENCH_certified_edge.json

Each run lasts the ``run_seconds`` of the change's ``BENCHMARK.json``.
Each ``--pairs`` seed runs once on each side; the side that runs first
alternates (parent first on even-numbered pairs of each workload), so neither
side always runs on a warmer or a quieter machine.  Each ``--trace`` seed runs
one traced pair for the per-layer metrics.  The record keeps every run line,
per-side medians and quartiles of every end-to-end metric, the digests and
failure counts of every pair, and, with ``--claim``, how many pairs the change
won on the claimed metric and whether the claim is met: at least ten pairs,
the change winning at least nine tenths of them (a tie counts for neither
side), and the change median better than the parent median by more than the
parent's interquartile range.  Per workload, ``regressions`` lists every
end-to-end metric whose change median is worse than the parent's by more than
its ``BENCHMARK.json`` bound (a fraction of the parent median), and
``bound_used`` gives, per metric, how much worse the change median is as a
fraction of that bound (1 at the bound, negative when the change is better).
``unresolved`` lists the end-to-end metrics whose parent runs spread too
widely to hold the change to the bound: the parent's interquartile range is
wider than the bound times the parent median, and not every change run beats
every parent run.  At the end, the regressions, the unresolved metrics and
every metric that uses more than half of its bound are printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def revision(root: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, check=True).stdout.strip()

    return {"git": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src")}


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    tagged = {l.split(" ", 2)[1]: l.split(" ", 2)[2] for l in lines if l.startswith("# ")}
    result = json.loads(lines[-1])
    return {
        "run_line": json.loads(tagged["run"]),
        "digest": tagged["digest"],
        "failed_ratio": tagged["failed_ratio"],
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, seeds = text.split("=")
    lo, _, hi = seeds.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def _medians(entry: dict, end_to_end: list):
    """(metric, parent median, change median, how much worse the change
    median is) for each end-to-end metric that both sides of one workload
    summary measured."""
    for m in end_to_end:
        sides = entry.get(m["name"], {})
        if len(sides) == 2:
            parent, change = sides["parent"]["median"], sides["change"]["median"]
            yield m, parent, change, change - parent if m["better"] == "lower" else parent - change


def regressions(entry: dict, end_to_end: list) -> list:
    """The end-to-end metrics of one workload summary whose change median is
    worse than the parent median by more than the metric's relative bound."""
    return [
        {"metric": m["name"], "parent": parent, "change": change, "bound": m["bound"],
         "worse_by": worse / abs(parent) if parent else None}
        for m, parent, change, worse in _medians(entry, end_to_end)
        if worse > m["bound"] * abs(parent)
    ]


def bound_used(entry: dict, end_to_end: list) -> dict:
    """Per end-to-end metric of one workload summary, how much worse the
    change median is than the parent median, as a fraction of the metric's
    relative bound: 1 at the bound, negative when the change is better, None
    on a parent median of 0."""
    return {m["name"]: worse / abs(parent) / m["bound"] if parent else None
            for m, parent, change, worse in _medians(entry, end_to_end)}


def unresolved(entry: dict, end_to_end: list, timed: list) -> list:
    """The end-to-end metrics of one workload summary whose parent
    interquartile range is wider than the metric's relative bound times the
    parent median, unless every change run beats every parent run: a median
    inside that spread cannot show a change of the bound's size either way."""
    out = []
    for m, parent, _, _ in _medians(entry, end_to_end):
        spread = entry[m["name"]]["parent"]["q3"] - entry[m["name"]]["parent"]["q1"]
        if spread <= m["bound"] * abs(parent):
            continue
        side = {s: [r["metrics"][m["name"]] for r in timed if r["side"] == s] for s in ("parent", "change")}
        beaten = (min(side["change"]) > max(side["parent"]) if m["better"] == "higher"
                  else max(side["change"]) < min(side["parent"]))
        if not beaten:
            out.append({"metric": m["name"], "parent_iqr": spread, "parent": parent, "bound": m["bound"]})
    return out


def report(record: dict) -> None:
    """Print to stderr, per workload, the regressions, the unresolved metrics
    (only when there are any) and every metric that uses more than half of
    its bound."""
    for workload, entry in record["summary"].items():
        print(f"{workload} regressions: {entry['regressions'] or 'none'}", file=sys.stderr)
        if entry.get("unresolved"):
            print(f"{workload} unresolved: {[u['metric'] for u in entry['unresolved']]}", file=sys.stderr)
        used = {k: round(v, 3) for k, v in entry["bound_used"].items() if v is not None and v > 0.5}
        print(f"{workload} bound used above 0.5: {used or 'none'}", file=sys.stderr)


def build_record(args, bench: dict, revisions: dict, runs: list) -> dict:
    claim_workload, claim_metric = args.claim.split(":") if args.claim else (None, None)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    summary = {}
    for workload, seeds in args.pairs:
        timed = [r for r in runs if r["workload"] == workload and not r["trace"]]
        entry = summary[workload] = {"pairs": []}
        for i, seed in enumerate(seeds):
            pair = {r["side"]: r for r in timed if r["seed"] == seed}
            if len(pair) < 2:
                continue
            entry["pairs"].append({
                "seed": seed,
                "first": "parent" if i % 2 == 0 else "change",
                "digest_equal": pair["parent"]["digest"] == pair["change"]["digest"],
                "failed": [pair["parent"]["failed"], pair["change"]["failed"]],
            })
            if claim_metric:
                claimed = [pair[side]["metrics"][claim_metric] for side in ("parent", "change")]
                sign = 1 if better[claim_metric] == "higher" else -1
                entry["pairs"][-1].update({claim_metric: claimed, "change_wins": sign * (claimed[1] - claimed[0]) > 0})
        for metric in better:
            entry[metric] = {
                side: quartiles([r["metrics"][metric] for r in timed if r["side"] == side])
                for side in ("parent", "change")
                if any(r["side"] == side for r in timed)
            }
        if claim_metric:
            wins = sum(p["change_wins"] for p in entry["pairs"])
            entry[f"{claim_metric}_change_wins"] = f"{wins}/{len(entry['pairs'])}"
        entry["regressions"] = regressions(entry, bench["end_to_end"])
        entry["bound_used"] = bound_used(entry, bench["end_to_end"])
        entry["unresolved"] = unresolved(entry, bench["end_to_end"], timed)
    claim = (f"the claim is {claim_metric} on {claim_workload}, every other end-to-end metric"
             if claim_metric else "no claim: every end-to-end metric")
    record = {
        "label": args.label,
        "what": f"interleaved parent/change runs; {claim} is compared with its BENCHMARK.json bound "
                "(per workload, 'regressions' lists the metrics whose change median is worse than the "
                "parent median by more than the bound, and 'bound_used' gives, per metric, how much worse "
                "the change median is as a fraction of the bound: negative when the change is better; 'unresolved' "
                "lists the metrics whose parent IQR is wider than the bound times the parent median, unless "
                "every change run beats every parent run)",
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> --seconds {bench['run_seconds']:g} "
                   "--trace <0|1>, run from the root of each checkout",
        # without cached bytecode every run compiles the library from source, which moves peak_rss_mib
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
                 "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "revisions": revisions,
        "seeds": {w: s for w, s in args.pairs},
        "traced_seeds": {w: s for w, s in args.trace},
        "order": "pairs alternate which side runs first (parent first on even-numbered pairs of each "
                 "workload); run numbers give the order",
    }
    claimed = summary.get(claim_workload, {}).get(claim_metric, {})
    if claim_metric and len(claimed) == 2:
        pairs = summary[claim_workload]["pairs"]
        wins = sum(p["change_wins"] for p in pairs)
        iqr = claimed["parent"]["q3"] - claimed["parent"]["q1"]
        gain = claimed["change"]["median"] - claimed["parent"]["median"]
        record["claim"] = {
            "metric": claim_metric,
            "workload": claim_workload,
            "pairs_won_by_change": summary[claim_workload][f"{claim_metric}_change_wins"],
            **claimed,
            "parent_iqr": iqr,
            "met": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                   and (gain if better[claim_metric] == "higher" else -gain) > iqr,
        }
    record["summary"] = summary
    record["runs"] = runs
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--claim", help="workload:metric; without it the record counts no wins")
    ap.add_argument("--pairs", action="append", type=seed_range, default=[], help="workload=lo-hi")
    ap.add_argument("--trace", action="append", type=seed_range, default=[], help="workload=seed")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = benchmark(roots["change"])
    revisions = {side: revision(root) for side, root in roots.items()}
    runs = []
    record = build_record(args, bench, revisions, runs)
    for trace, batches in ((0, args.pairs), (1, args.trace)):
        for workload, seeds in batches:
            for i, seed in enumerate(seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run(roots[side], workload, seed, bench["run_seconds"], trace)
                    runs.append({"order": len(runs), "side": side, "workload": workload, "seed": seed,
                                 "trace": trace, **result})
                    print(f"{workload} {seed} {side} trace={trace}: {result['metrics']}", file=sys.stderr)
                    # rewritten after every run, so a stopped batch keeps what it measured
                    record = build_record(args, bench, revisions, runs)
                    with open(args.out, "w") as f:
                        json.dump(record, f, indent=1)
                        f.write("\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
