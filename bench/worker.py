"""One benchmark process: set up a workload, signal readiness, run it.

Started by ``run.py``, never by hand.  Protocol on stdout: the line
``ready`` once set-up (import, input generation, cold kernel solves and the
workload's own set-up) is done, then, unless ``--setup-only``, one JSON line
with the run's counts, digest and metrics.  Everything else goes to stderr.

Untraced mode runs one untimed warm-up round of the op pool, then whole
timed rounds until ``--seconds`` of op time have been spent.  The digest and
the output checks are defined on the first round; later rounds must
reproduce it exactly.

Traced mode records spans during set-up, runs one untraced warm-up round (the
digest and checks), then paired rounds, in which each op runs once untraced
and once traced in alternating order, until ``--seconds`` of traced op time
are spent.  Per-layer times and counts are per round of the pool, from the
traced halves; the ratio of the two halves is the tracing overhead.  Cache
statistics are taken after the warm-up round, set-up metrics from set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 3

def _load_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gasketforms

    if not os.path.abspath(gasketforms.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gasketforms was imported from {gasketforms.__file__}, not from {src}")
    return gasketforms


def _trace_targets(gf):
    from gasketforms import cohomology, covering, forms, geometry

    def edge_mode(args, kwargs):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
        return f"forms.integrate_edge.{mode}"

    def certified_edge(args, kwargs):
        return edge_mode(args, kwargs).endswith(".certified")

    VF = gf.VertexFunction
    return [
        ("geometry.subdivide", geometry, "subdivide", None, None),
        ("harmonic.triple", VF, "triple", None, None),
        ("harmonic.evaluate", VF, "__call__", None, None),
        ("harmonic.energy_levels", VF, "energy_levels", None, None),
        ("harmonic.extend", VF, "extend", None, None),
        ("forms.solve_unique", forms, "solve_unique", None, None),
        ("forms.edge_kernel", forms, "edge_kernel", None, None),
        ("forms.q_kernel", forms, "q_kernel", None, None),
        ("forms.integrate_edge", forms, "integrate_edge", edge_mode, certified_edge),
        ("forms.integrate_path", forms, "integrate_path", None, None),
        ("forms.q_inner_exact", forms, "q_inner_exact", None, None),
        ("forms.q_inner_certified", forms, "q_inner_certified", None, None),
        ("cohomology.periods_up_to", cohomology, "periods_up_to", None, None),
        ("cohomology.hodge_decompose", cohomology, "hodge_decompose", None, None),
        ("cohomology.winding_number", cohomology, "winding_number", None, None),
        ("covering.homology_class", covering, "homology_class", None, None),
        ("covering.effective_length", covering, "effective_length", None, None),
        ("covering.group_length", covering, "group_length", None, None),
        ("covering.potential_difference", covering, "potential_difference", None, None),
    ]


def _caches() -> dict:
    from gasketforms import cohomology, geometry

    out = {}
    for name, fn in (
        ("geometry.cell_corners", geometry.cell_corners),
        ("cohomology.a_entry", cohomology.a_entry),
        ("cohomology.b_entry", cohomology.b_entry),
    ):
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"{name}.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
        out[f"{name}.cache_size"] = (float(info.currsize), "count")
    return out


class Round:
    """Executes ops, keeps first-round results and flags bad executions."""

    def __init__(self, ops, canonical):
        self.ops = ops
        self.canonical = canonical
        self.first: dict = {}  # key -> first result
        self.views: dict = {}  # key -> canonical text of the first result
        self.errors: dict = {}  # key -> why the op failed
        self.executed: list = []  # (key, ok) per execution

    def execute(self, op, runner=None) -> float:
        t0 = time.perf_counter()
        try:
            result = runner(op) if runner is not None else op.run()
            error = None
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            view = self.canonical(result, True)
            if op.key not in self.views:
                self.first[op.key] = result
                self.views[op.key] = view
            elif view != self.views[op.key]:
                error = "output differs from the first round"
        if error is not None:
            self.errors.setdefault(op.key, error)
        self.executed.append((op.key, error is None))
        return elapsed

    def check_first_round(self) -> None:
        for op in self.ops:
            if op.key not in self.first:
                continue
            try:
                message = op.check(self.first[op.key], self.first)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
            if message is not None:
                self.errors.setdefault(op.key, message)

    def failed(self) -> int:
        return sum(1 for key, ok in self.executed if not ok or key in self.errors)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            result = self.first.get(op.key)
            text = "raised" if result is None else self.canonical(result, False)
            h.update(f"{op.key}={text}\n".encode())
        return h.hexdigest()


def _log10(x) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def _first_round_stats(ops, rnd, radius_of) -> tuple[float, float]:
    """(share of ops that asked for a tolerance and met it, median log10 of
    the nonzero radii) over the first round."""
    asked = met = 0
    logs = []
    for op in ops:
        if op.key not in rnd.first:
            continue
        r = radius_of(rnd.first[op.key])
        if r > 0:
            logs.append(_log10(r))
        if op.tolerance is not None:
            asked += 1
            met += r <= op.tolerance
    return (met / asked if asked else 1.0), (statistics.median(logs) if logs else 0.0)


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(ops, rnd, seconds: float) -> dict:
    """One untimed warm-up round, then whole timed rounds over the pool, at
    least ``MIN_ROUNDS`` and until ``seconds`` of op time are spent, so every
    run measures the pool's fixed mix of ops with warm caches."""
    for op in ops:
        rnd.execute(op)
    rounds: list[list[float]] = []
    busy = 0.0
    while busy < seconds or len(rounds) < MIN_ROUNDS:
        rounds.append([rnd.execute(op) for op in ops])
        busy += sum(rounds[-1])
    # an op does the same work in every warm round, so its fastest round is
    # the one least disturbed by other load on the machine
    latencies = [min(times) for times in zip(*rounds)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000.0 * _quantile(latencies, 90), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "timed_rounds": (float(len(rounds)), "count"),
    }


def run_traced(ops, rnd, tracer, setup_metrics, seconds: float) -> dict:
    for op in ops:  # warm-up round, untraced
        rnd.execute(op)
    caches = _caches()
    tracer.reset()
    plain = traced = 0.0
    rounds = 0

    def traced_run(op):
        tracer.enable()
        try:
            return tracer.call(f"op.{op.name}", op.run)
        finally:
            tracer.disable()

    while traced < seconds:
        for j, op in enumerate(ops):
            order = (None, traced_run) if j % 2 == 0 else (traced_run, None)
            for runner in order:
                dt = rnd.execute(op, runner)
                if runner is None:
                    plain += dt
                else:
                    traced += dt
        rounds += 1
    metrics = dict(setup_metrics)
    metrics.update(caches)

    def per_round(name, i):
        return tracer.totals(name)[i] / rounds

    for name in (
        "harmonic.triple", "harmonic.evaluate", "harmonic.energy_levels", "harmonic.extend",
        "forms.integrate_edge.exact", "forms.q_inner_exact",
        "forms.integrate_edge.certified", "forms.q_inner_certified",
        "cohomology.periods_up_to", "cohomology.hodge_decompose", "cohomology.winding_number",
        "covering.homology_class", "covering.effective_length", "covering.group_length",
        "covering.potential_difference", "geometry.subdivide",
    ):
        metrics[f"{name}.self_s"] = (per_round(name, 1), "s")
    metrics["harmonic.triple.calls"] = (per_round("harmonic.triple", 0), "count")
    metrics["forms.integrate_path.calls"] = (per_round("forms.integrate_path", 0), "count")
    metrics["forms.integrate_edge.certified.peak_traced_mib"] = (
        tracer.peak_mib.get("forms.integrate_edge.certified", 0.0), "MiB")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    print(json.dumps({"spans": tracer.summary()}), file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gf = _load_library(args.root)
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare(_trace_targets(gf))
        tracer.enable()
    ops = workloads.build(args.workload, args.seed)
    setup_metrics = {}
    if tracer is not None:
        tracer.disable()
        setup_metrics = {
            "forms.solve_unique.self_s": (tracer.totals("forms.solve_unique")[1], "s"),
            "forms.q_kernel.cold_s": (tracer.first_s["forms.q_kernel"], "s"),
            "forms.edge_kernel.cold_s": (tracer.first_s["forms.edge_kernel"], "s"),
        }
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rnd = Round(ops, workloads.canonical)
    if tracer is None:
        metrics = run_untraced(ops, rnd, args.seconds)
    else:
        metrics = run_traced(ops, rnd, tracer, setup_metrics, args.seconds)
    rnd.check_first_round()
    met_ratio, radius_p50 = _first_round_stats(ops, rnd, workloads.radius_of)
    metrics["tolerance_met_ratio"] = (met_ratio, "ratio")
    metrics["certified.radius_log10_p50"] = (radius_p50, "log10")
    for key, message in sorted(rnd.errors.items()):
        print(f"failed {key}: {message}", file=sys.stderr)
    out = {
        "attempted": len(rnd.executed),
        "failed": rnd.failed(),
        "digest": rnd.digest(),
        "params": workloads.WORKLOADS[args.workload][1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
