"""The command-line surface: wrappers, serialization, exit codes, SVG."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from gasketforms import cli
from gasketforms import forms as fm
from gasketforms.geometry import lacuna_path, path_to_json
from gasketforms.harmonic import harmonic_basis

f0, f1, f2 = harmonic_basis()


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_energy_command(tmp_path, capsys):
    vf = tmp_path / "f.json"
    vf.write_text(json.dumps(f0.to_json()))
    code, out = run_cli(capsys, "energy", "--input", str(vf))
    assert code == 0
    assert json.loads(out)["energy"] == "2/1"


def test_integrate_matches_library(tmp_path, capsys):
    form = fm.fdg(f0, f1)
    path = lacuna_path("")
    code, out = run_cli(
        capsys, "integrate",
        "--form", json.dumps(form.to_json()),
        "--path", json.dumps(path_to_json(path)),
    )
    assert code == 0
    got = Fraction(json.loads(out)["value"])
    assert got == fm.integrate_path(form, path).value


def test_winding_command(capsys):
    code, out = run_cli(
        capsys, "winding",
        "--path", json.dumps(path_to_json(lacuna_path("12"))),
        "--sigma", "12",
    )
    assert code == 0
    assert json.loads(out)["winding"] == 1


def test_periods_deterministic(capsys):
    args = ["periods", "--form", json.dumps(fm.dz_form("1").to_json()), "--depth", "2"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_homology_and_efflen(capsys):
    pj = json.dumps(path_to_json(lacuna_path("0")))
    code, out = run_cli(capsys, "homology", "--path", pj, "--depth", "2")
    assert code == 0
    assert json.loads(out)["coordinates"] == [["0", 1]]
    code, out = run_cli(capsys, "efflen", "--path", pj, "--depth", "5")
    assert code == 0
    assert json.loads(out)["value"] > 0


def test_huge_depth_is_refused_with_exit_code_1(capsys):
    pj = json.dumps(path_to_json(lacuna_path("0")))
    form = json.dumps(fm.fdg(f0, f1).to_json())
    for args in (["efflen", "--depth", "40", "--path", pj], ["homology", "--depth", "20", "--path", pj],
                 ["potential", "--form", form, "--depth", "30", "--path", pj],
                 ["periods", "--form", form, "--depth", "30"], ["hodge", "--form", form, "--depth", "30"],
                 ["render", "--level", "40"], ["render", "--level", "40", "--form", form]):
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert "budget" in err and out == ""


def test_hodge_and_potential(tmp_path, capsys):
    form = json.dumps(fm.fdg(f0, f1).to_json())
    code, out = run_cli(capsys, "hodge", "--form", form, "--depth", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 1 and payload["entries"]
    pj = json.dumps(path_to_json(lacuna_path("")))
    code, out = run_cli(capsys, "potential", "--form", form, "--path", pj, "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "32/475" and payload["radius"] == 0.0  # the lacuna period of f0 df1, exactly


def test_hodge_is_exact_and_takes_no_tolerance(capsys):
    form = json.dumps(fm.fdg(f0, f1).to_json())
    code, out = run_cli(capsys, "hodge", "--form", form, "--depth", "2")
    payload = json.loads(out)
    assert code == 0 and payload["residual"] == 0.0 and payload["U_E"]["radius"] == 0.0
    assert all(r == 0.0 for _, _, r in payload["entries"])
    with pytest.raises(SystemExit) as refused:
        cli.main(["hodge", "--form", form, "--depth", "2", "--tolerance", "1e-6"])
    assert refused.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_render_svg_count(tmp_path, capsys):
    out_file = tmp_path / "g.svg"
    code, _ = run_cli(capsys, "render", "--level", "4", "--out", str(out_file))
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    cells = [el for el in root.iter() if el.tag.endswith("polygon") and el.get("class") == "cell"]
    assert len(cells) == 3**4


def test_render_with_form_coloring_and_path(tmp_path, capsys):
    out_file = tmp_path / "colored.svg"
    code, _ = run_cli(
        capsys, "render", "--level", "2", "--out", str(out_file),
        "--form", json.dumps(fm.dz_form("").to_json()),
        "--path", json.dumps(path_to_json(lacuna_path(""))),
        "--lacuna", "0",
    )
    assert code == 0
    root = ET.fromstring(out_file.read_text())
    lines = [el for el in root.iter() if el.tag.endswith("}line")]
    assert len(lines) == 3**3
    assert any(el.tag.endswith("polyline") for el in root.iter())


def test_bad_input_exit_code(capsys):
    code = cli.main(["winding", "--path", '["/1/+"]', "--sigma", "0"])  # not closed
    assert code == 1


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_suite",
        lambda depth, tolerance: {"suite": [{"criterion": "1", "name": "x", "status": "FAIL",
                                             "expected": "0", "got": "1", "radius": None}],
                                  "passed": False},
    )
    assert cli.main(["verify"]) == 2


def test_csv_format(capsys):
    code, out = run_cli(
        capsys, "winding",
        "--path", json.dumps(path_to_json(lacuna_path(""))),
        "--sigma", "", "--format", "csv",
    )
    assert code == 0
    assert out.strip() == "winding,1"
