"""The command-line surface: wrappers, serialization, exit codes, SVG."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from gasketforms import cli, harmonic, render
from gasketforms import forms as fm
from gasketforms.errors import GasketError
from gasketforms.geometry import OrientedEdge, Point, cell_corners, lacuna_path, path_to_json, point, subdivide
from gasketforms.geometry import validate_path
from gasketforms.render import render_svg
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


def test_negative_depth_is_refused_with_exit_code_1(capsys):
    pj = json.dumps(path_to_json(lacuna_path("0")))
    form = json.dumps(fm.fdg(f0, f1).to_json())
    for args in (["periods", "--form", form], ["hodge", "--form", form], ["homology", "--path", pj], ["efflen", "--path", pj]):
        assert cli.main([*args, "--depth", "-1"]) == 1
        out, err = capsys.readouterr()
        assert "negative" in err and out == ""


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


@pytest.mark.parametrize("args", [
    ["integrate", "--form", json.dumps(fm.fdg(f0, f1).to_json()), "--path", json.dumps(path_to_json(lacuna_path("")))],
    ["verify", "--depth", "1"],
], ids=["integrate", "verify"])
def test_integrate_and_verify_take_no_tolerance(args, capsys):
    """A certified path integral is the exact sum rounded once, with half an
    ulp as its radius, and no verification check reads a tolerance, so
    neither subcommand takes one."""
    with pytest.raises(SystemExit) as refused:
        cli.main([*args, "--tolerance", "1e-6"])
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


@pytest.mark.parametrize("args, message", [
    (["--level", "2", "--highlight-cell", "3"], "invalid word '3'"),
    (["--level", "2", "--lacuna", "9"], "invalid word '9'"),
    (["--level", "1", "--size", "0"], "size 0 is below 1"),
    (["--level", "1", "--size", "-5"], "size -5 is below 1"),
    (["--level", "-1"], "level -1 is negative"),
    (["--level", "11", "--highlight-cell", "0" * 16], "highlight cell '0000000000000000' is off the level-12"),
    (["--level", "2", "--lacuna", "012"], "lacuna '012' is off the level-3"),
    (["--level", "2", "--path", '["0120/1/+"]'], "edge 0120/1/+ is off the level-3"),
], ids=["highlight-3", "lacuna-9", "size-0", "size-minus-5", "level-minus-1",
        "highlight-off-lattice", "lacuna-off-lattice", "path-off-lattice"])
def test_render_refuses_invalid_input_with_exit_code_1(args, message, capsys):
    """A render of an invalid word, size or level, or of an item off its
    drawing lattice, draws nothing and names the input it refuses."""
    assert cli.main(["render", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_render_refuses_invalid_input_before_the_form_table(capsys, monkeypatch):
    """With --form, the refusal comes before the side-integral table is built."""
    def no_table(*args):
        raise AssertionError("a side-integral table was built")

    monkeypatch.setattr(fm, "side_integrals_at", no_table)
    form = json.dumps(fm.dz_form("").to_json())
    for args, message in ((["--level", "11", "--size", "0"], "size 0 is below 1"),
                          (["--level", "-1"], "level -1 is negative"),
                          (["--level", "2", "--lacuna", "9"], "invalid word '9'"),
                          (["--level", "2", "--path", '["0120/1/+"]'], "off the level-3")):
        assert cli.main(["render", *args, "--form", form]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err


def _drawn(p: Point, fine: int) -> str:
    """The SVG coordinates of p on the level-``fine`` drawing lattice."""
    x, y = p.x * 2 ** (fine + 1), p.y * 2 ** (fine + 1)
    assert x.denominator == y.denominator == 1
    return f"{x.numerator},{y.numerator}"


def test_render_draws_every_item_at_its_points():
    """Highlights, lacunas, form edges and a mixed-level path are drawn at
    their ``Point``s scaled to the level + 1 lattice."""
    level, fine = 2, 3
    path = validate_path([OrientedEdge("0", 1), *subdivide(OrientedEdge("2", 1), 3), OrientedEdge("2", 0)])
    edges = [OrientedEdge("", 0), OrientedEdge("12", 2, -1), OrientedEdge("012", 1)]
    cells = ["", "1", "012"]
    svg = render_svg(level, highlight_cells=cells, lacunas=["", "21"], path=path,
                     edge_magnitudes={e: 1.0 + k for k, e in enumerate(edges)})
    for w in cells:
        pts = " ".join(_drawn(point(q, len(w)), fine) for q in cell_corners(w))
        assert f'class="highlight" points="{pts}"' in svg
    for w in ("", "21"):
        pts = " ".join(_drawn(e.source, fine) for e in lacuna_path(w))
        assert f'class="lacuna" points="{pts}"' in svg
    for e in edges:
        (x1, y1), (x2, y2) = (_drawn(p, fine).split(",") for p in (e.source, e.target))
        assert f'x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"' in svg
    pts = " ".join(_drawn(p, fine) for p in [path.source] + [e.target for e in path])
    assert f'class="path" points="{pts}"' in svg


@pytest.mark.parametrize("kwargs", [
    {"highlight_cells": ["0120"]}, {"lacunas": ["012"]},
    {"path": validate_path([OrientedEdge("0120", 1)])},
    {"edge_magnitudes": {OrientedEdge("2101", 0): 1.0}},
], ids=["highlight", "lacuna", "path", "edge-magnitudes"])
def test_render_refuses_off_lattice_items_before_drawing(kwargs, monkeypatch):
    """An item finer than the level + 1 drawing lattice is refused with
    GasketError before any cell is drawn."""
    def no_corners(word):
        raise AssertionError("a cell was drawn")

    monkeypatch.setattr(render, "cell_corners", no_corners)
    with pytest.raises(GasketError, match="off the level-3 drawing lattice"):
        render_svg(2, **kwargs)


def test_bad_input_exit_code(capsys):
    code = cli.main(["winding", "--path", '["/1/+"]', "--sigma", "0"])  # not closed
    assert code == 1
    closed = json.dumps(["10/0/+", "11/1/+", "12/2/+"])
    for sigma in ("05", "1x"):
        assert cli.main(["winding", "--path", closed, "--sigma", sigma]) == 1
        out, err = capsys.readouterr()
        assert "invalid word" in err and out == ""


@pytest.mark.parametrize("edge", ["0/0/", "0/0/+-", "0/x/+"])
def test_integrate_refuses_an_edge_without_a_sign_or_side_with_exit_code_1(edge, capsys):
    """A missing or doubled sign is refused, not read as the reversed edge."""
    form = json.dumps(fm.fdg(f0, f1).to_json())
    assert cli.main(["integrate", "--form", form, "--path", json.dumps([edge])]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "cannot parse edge" in err


@pytest.mark.parametrize("level", [40, 10**6, -1])
def test_vertex_count_mismatch_exits_1_before_enumerating(level, monkeypatch, capsys):
    """A function JSON whose value count cannot fill V_level is refused, by
    ``energy`` and by ``integrate`` with it as g, before V_level is listed."""
    def no_enumeration(n):
        raise AssertionError(f"V_{n} enumerated")

    monkeypatch.setattr(harmonic, "vertices_at_level", no_enumeration)
    g = {"level": level, "values": []}
    form = fm.fdg(fm.ONE, f1).to_json()
    form["universal"][0]["g"] = g
    for args in (["energy", "--input", json.dumps(g)],
                 ["integrate", "--form", json.dumps(form), "--path", json.dumps(path_to_json(lacuna_path("")))]):
        assert cli.main(args) == 1
        out, err = capsys.readouterr()
        assert "vertex set does not match" in err and out == ""


_V0 = [["1/2:1/2", "0/1"], ["1/1:0/1", "0/1"]]  # V_0 less p_0


@pytest.mark.parametrize("args", [
    ["energy", "--input", json.dumps({"level": 0, "values": [["0/1:0/1", "1/0"], *_V0]})],
    ["energy", "--input", json.dumps({"level": 0})],
    ["energy", "--input", json.dumps({"level": 0, "values": [["0/0:0/1", "1/1"], *_V0]})],
    ["integrate", "--form", json.dumps({"harmonic": [["0", "1/0"]]}), "--path", json.dumps(["/1/+"])],
    ["winding", "--sigma", "", "--path", json.dumps(["0/1/+", None])],
], ids=["zero-denominator-value", "missing-values", "zero-denominator-vertex", "zero-denominator-harmonic",
        "non-string-edge"])
def test_malformed_json_exits_1_with_an_error_line(args, capsys):
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_suite",
        lambda depth: {"suite": [{"criterion": "1", "name": "x", "status": "FAIL",
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
