"""The A/B recorder's summary on synthetic runs: claim wins, regressions and
the executed-operation counts beside a memory rise."""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import types

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_record.py"
_spec = importlib.util.spec_from_file_location("ab_record", _PATH)
ab_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_record)

BENCH = {
    "run_seconds": 10,
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_p90_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
    ],
}


def _runs(workload: str, seeds, parent: dict, change: dict, attempted=(1000, 1000)) -> list:
    out = []
    for seed in seeds:
        for side, metrics, count in (("parent", parent, attempted[0]), ("change", change, attempted[1])):
            out.append({"order": len(out), "side": side, "workload": workload, "seed": seed, "trace": 0,
                        "digest": "d", "attempted": count, "failed": 0, "metrics": dict(metrics)})
    return out


def test_build_record_lists_regressions_past_the_bound():
    seeds = [1, 2, 3]
    runs = (
        # faster, 30% worse p90 (past 25%), 9.5% more memory (within 10%)
        _runs("a", seeds, {"ops_per_s": 100, "op_p90_ms": 10, "peak_rss_mib": 20},
              {"ops_per_s": 150, "op_p90_ms": 13, "peak_rss_mib": 21.9})
        # 30% slower (past 25%), the rest unchanged
        + _runs("b", seeds, {"ops_per_s": 100, "op_p90_ms": 10, "peak_rss_mib": 20},
                {"ops_per_s": 70, "op_p90_ms": 10, "peak_rss_mib": 20})
    )
    args = argparse.Namespace(label="t", claim="a:ops_per_s", pairs=[("a", seeds), ("b", seeds)], trace=[])
    record = ab_record.build_record(args, BENCH, {"parent": {}, "change": {}}, runs)
    a, b = record["summary"]["a"], record["summary"]["b"]
    assert [r["metric"] for r in a["regressions"]] == ["op_p90_ms"]
    assert a["regressions"][0]["worse_by"] == pytest.approx(0.3)
    assert [r["metric"] for r in b["regressions"]] == ["ops_per_s"]
    assert b["regressions"][0] == {"metric": "ops_per_s", "parent": 100, "change": 70, "bound": 0.25,
                                   "worse_by": pytest.approx(0.3)}
    assert record["claim"]["pairs_won_by_change"] == "3/3"
    assert "regressions" in record["what"] and "bound_used" in record["what"]


@pytest.mark.parametrize("parent, change, met", [
    # nine wins and a tie in ten pairs, medians 10 apart against a parent IQR of 4.5
    ([100 + i for i in range(10)], [110 + i for i in range(9)] + [109], True),
    # eight wins and two ties: ties count for neither side
    ([100 + i for i in range(10)], [110 + i for i in range(8)] + [108, 109], False),
    # every pair won, but the medians are 1 apart, inside the parent IQR of 4.5
    ([100 + i for i in range(10)], [101 + i for i in range(10)], False),
    # nine of nine pairs won by a wide margin: fewer than ten pairs
    ([100 + i for i in range(9)], [200 + i for i in range(9)], False),
])
def test_claim_is_met_by_nine_tenths_of_ten_pairs_past_the_parent_iqr(parent, change, met):
    seeds = list(range(len(parent)))
    runs = []
    for seed, p, c in zip(seeds, parent, change):
        runs += _runs("a", [seed], {"ops_per_s": p}, {"ops_per_s": c})
    bench = {"run_seconds": 10, "end_to_end": BENCH["end_to_end"][:1]}
    args = argparse.Namespace(label="t", claim="a:ops_per_s", pairs=[("a", seeds)], trace=[])
    claim = ab_record.build_record(args, bench, {}, runs)["claim"]
    assert claim["met"] is met


def test_bound_used_is_the_change_as_a_fraction_of_the_bound(capsys):
    """Worse by 30% of a 25% bound uses 1.2 of it, 9.5% of a 10% bound 0.95,
    2.5% of a 10% bound 0.25; 50% better reads -2.  Only the entries above
    0.5 are printed, next to the regressions."""
    seeds = [1, 2, 3]
    runs = _runs("a", seeds, {"ops_per_s": 100, "op_p90_ms": 10, "peak_rss_mib": 20},
                 {"ops_per_s": 150, "op_p90_ms": 13, "peak_rss_mib": 21.9})
    runs += _runs("b", seeds, {"ops_per_s": 100, "op_p90_ms": 10, "peak_rss_mib": 20},
                  {"ops_per_s": 100, "op_p90_ms": 9, "peak_rss_mib": 20.5})
    args = argparse.Namespace(label="t", claim=None, pairs=[("a", seeds), ("b", seeds)], trace=[])
    record = ab_record.build_record(args, BENCH, {}, runs)
    a, b = record["summary"]["a"]["bound_used"], record["summary"]["b"]["bound_used"]
    assert a == {"ops_per_s": pytest.approx(-2), "op_p90_ms": pytest.approx(1.2), "peak_rss_mib": pytest.approx(0.95)}
    assert b == {"ops_per_s": 0, "op_p90_ms": pytest.approx(-0.4), "peak_rss_mib": pytest.approx(0.25)}
    ab_record.report(record)
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("a regressions: [{'metric': 'op_p90_ms'")
    assert err[1] == "a bound used above 0.5: {'op_p90_ms': 1.2, 'peak_rss_mib': 0.95}"
    assert err[2] == "a attempted per run beside peak_rss_mib (median): parent 1000, change 1000"
    assert err[3:] == ["b regressions: none", "b bound used above 0.5: none"]


@pytest.mark.parametrize("rss, shown", [(21.9, True), (20.5, False)])
def test_attempted_counts_are_kept_and_shown_beside_a_memory_rise(rss, shown, capsys):
    """Each run keeps its executed-operation count and each side its median;
    the medians are printed beside peak_rss_mib only when that metric uses
    more than half its bound (9.5% of a 10% bound, not 2.5%), so a memory
    rise that tracks more executions shows as such."""
    seeds = [1, 2, 3]
    runs = _runs("a", seeds[:2], {"peak_rss_mib": 20}, {"peak_rss_mib": rss}, attempted=(1000, 1300))
    runs += _runs("a", seeds[2:], {"peak_rss_mib": 20}, {"peak_rss_mib": rss}, attempted=(1100, 1201))
    bench = {"run_seconds": 10, "end_to_end": BENCH["end_to_end"][2:]}
    args = argparse.Namespace(label="t", claim=None, pairs=[("a", seeds)], trace=[])
    record = ab_record.build_record(args, bench, {}, runs)
    assert [r["attempted"] for r in record["runs"]] == [1000, 1300, 1000, 1300, 1100, 1201]
    assert record["summary"]["a"]["attempted"] == {"parent": 1000, "change": 1300}
    ab_record.report(record)
    line = "a attempted per run beside peak_rss_mib (median): parent 1000, change 1300"
    assert (line in capsys.readouterr().err.splitlines()) is shown


@pytest.mark.parametrize("change, listed", [
    # parent IQR 13.75-26.25 is wider than 0.25 of the median 20; the change runs overlap the parent's
    ([18, 19, 21, 22], True),
    # the same spread, but every change run is faster than every parent run
    ([5, 6, 7, 8], False),
])
def test_unresolved_lists_a_parent_spread_wider_than_the_bound(change, listed, capsys):
    """A metric whose parent IQR exceeds bound x parent median is unresolved,
    unless every change run beats every parent run; a narrow spread never is."""
    parent = [10, 15, 25, 30]
    seeds = list(range(len(parent)))
    runs = []
    for seed, p, c in zip(seeds, parent, change):
        runs += _runs("a", [seed], {"op_p90_ms": p, "ops_per_s": 100}, {"op_p90_ms": c, "ops_per_s": 100 + seed})
    bench = {"run_seconds": 10, "end_to_end": BENCH["end_to_end"][:2]}
    args = argparse.Namespace(label="t", claim=None, pairs=[("a", seeds)], trace=[])
    record = ab_record.build_record(args, bench, {}, runs)
    got = record["summary"]["a"]["unresolved"]
    assert [u["metric"] for u in got] == (["op_p90_ms"] if listed else [])
    if listed:
        assert got[0] == {"metric": "op_p90_ms", "parent_iqr": pytest.approx(12.5), "parent": 20, "bound": 0.25}
    ab_record.report(record)
    assert ("a unresolved: ['op_p90_ms']" in capsys.readouterr().err.splitlines()) is listed


def test_bound_used_is_none_on_a_parent_median_of_0():
    runs = _runs("a", [1], {"ops_per_s": 0}, {"ops_per_s": 0})
    bench = {"run_seconds": 10, "end_to_end": BENCH["end_to_end"][:1]}
    args = argparse.Namespace(label="t", claim=None, pairs=[("a", [1])], trace=[])
    assert ab_record.build_record(args, bench, {}, runs)["summary"]["a"]["bound_used"] == {"ops_per_s": None}


def test_no_regressions_without_both_sides():
    runs = [r for r in _runs("a", [1], {"ops_per_s": 100}, {"ops_per_s": 1}) if r["side"] == "parent"]
    bench = {"run_seconds": 10, "end_to_end": BENCH["end_to_end"][:1]}
    args = argparse.Namespace(label="t", claim=None, pairs=[("a", [1])], trace=[])
    record = ab_record.build_record(args, bench, {}, runs)
    assert record["summary"]["a"]["regressions"] == []
    assert record["summary"]["a"]["bound_used"] == {}


@pytest.mark.parametrize("flag, env", [(0, None), (1, "1")])
def test_host_records_whether_bytecode_is_written(flag, env, monkeypatch):
    """The runs inherit the recorder's interpreter flags and environment, so
    its bytecode setting is the runs' setting."""
    if env is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", env)
    monkeypatch.setattr(ab_record, "sys", types.SimpleNamespace(flags=types.SimpleNamespace(dont_write_bytecode=flag)))
    args = argparse.Namespace(label="t", claim=None, pairs=[], trace=[])
    host = ab_record.build_record(args, BENCH, {}, [])["host"]
    assert host["PYTHONDONTWRITEBYTECODE"] == env
    assert host["dont_write_bytecode"] is bool(flag)
