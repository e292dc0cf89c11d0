"""Acceptance criteria: one test per criterion, every identity at its stated
depth and tolerance; each test prints its pass/fail line (visible with -s)."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from gasketforms import forms as fm
from gasketforms.harmonic import harmonic_basis
from gasketforms.verify import run_suite


@pytest.fixture(scope="module")
def report():
    return run_suite()


def _criterion(report, num: str):
    items = [s for s in report["suite"] if s["criterion"] == num]
    assert items, f"criterion {num} missing from the suite"
    for s in items:
        print(f"AC{num:>2} {s['name']:<38} {s['status']}  "
              f"expected={s['expected']}  got={s['got']}")
    failed = [s["name"] for s in items if s["status"] != "PASS"]
    assert not failed, f"criterion {num} failed: {failed}"


def test_criterion_01_product_table(report):
    _criterion(report, "1")


def test_product_table_reports_the_worst_level_sum_distance(report):
    """The reported value is the worst distance of the 27 level-12 sums from
    the known values, so it is at least the distance of any one of them."""
    item = next(s for s in report["suite"] if s["name"] == "product-table-certified-n12")
    f = harmonic_basis()
    one = abs(fm.q_level_sums(fm.d(f[0]), fm.fdg(f[0], f[1]), 0)(12) + Fraction(1, 2))
    assert 0 < float(f"{float(one):.12g}") <= float(item["got"]) <= 1e-6


def test_criterion_02_lacuna_pairing(report):
    _criterion(report, "2")


def test_criterion_03_dz_norms(report):
    _criterion(report, "3")


def test_criterion_04_period_matrices(report):
    _criterion(report, "4")


def test_criterion_05_winding_kronecker(report):
    _criterion(report, "5")


def test_criterion_06_orthogonality(report):
    _criterion(report, "6")


def test_criterion_07_hodge_consistency(report):
    _criterion(report, "7")


def test_criterion_08_period_decay(report):
    _criterion(report, "8")


def test_criterion_09_riemann_convergence(report):
    _criterion(report, "9")


def test_criterion_10_effective_length(report):
    _criterion(report, "10")


def test_criterion_11_completion_counterexample(report):
    _criterion(report, "11")


def test_criterion_12_divergent_edge_norm(report):
    _criterion(report, "12")


def test_criterion_13_harmonic_module(report):
    _criterion(report, "13")


def test_criterion_14_integer_detection(report):
    _criterion(report, "14")


def test_suite_passes_overall(report):
    assert report["passed"]


# SHA-256 of the stdout of ``gasketforms verify --depth 3``
VERIFY_STDOUT_SHA256 = "646d79d91fd9acc69d0099cbbbe7b82d33a5d7f0066176f1070a8f0495c7436d"


def test_verify_stdout_is_pinned(report):
    """The report prints byte for byte as pinned: a change to any check's
    name, order, status or formatted value shows here."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_STDOUT_SHA256
