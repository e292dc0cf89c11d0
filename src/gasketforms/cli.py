"""Command-line front end.

Every subcommand is a thin wrapper over the library: inputs are JSON (inline
or in files), outputs are JSON (default) or CSV rows, rationals print as
"p/q" and certified values as value/radius pairs, so results round-trip
losslessly.  Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cohomology as coh
from . import covering as cov
from . import forms as fm
from .errors import GasketError
from .geometry import ElementaryPath, edges_at_level, path_from_json
from .harmonic import VertexFunction
from .render import render_svg
from .verify import run_suite


def _load_json(text_or_path: str):
    t = text_or_path.strip()
    if t.startswith("{") or t.startswith("["):
        return json.loads(t)
    if t == "-":
        return json.load(sys.stdin)
    with open(text_or_path) as fh:
        return json.load(fh)


def _load_form(arg: str) -> fm.SmoothForm:
    return fm.SmoothForm.from_json(_load_json(arg))


def _load_path(arg: str) -> ElementaryPath:
    return path_from_json(_load_json(arg))


def _emit(args, payload: dict, csv_rows=None):
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _frac(text: str) -> Fraction:
    return Fraction(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gasketforms",
        description="Exact and certified calculus of smooth 1-forms on the Sierpinski gasket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, form=False, path=False, depth=None):
        if form:
            p.add_argument("--form", required=True, help="form JSON (inline, file, or '-')")
        if path:
            p.add_argument("--path", required=True, help="path JSON (inline, file, or '-')")
        if depth is not None:
            p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("energy", help="energy of a piecewise-harmonic function")
    p.add_argument("--input", required=True, help="vertex-function JSON")
    common(p)

    p = sub.add_parser("integrate", help="integral of a form along a path")
    common(p, form=True, path=True)
    p.add_argument("--mode", choices=["exact", "certified"], default="exact",
                   help="exact rationals, or certified: the exact value rounded once to a float ± half an ulp")
    p.add_argument("--tolerance", type=_frac, default=Fraction(1, 10**9),
                   help="not read: a certified radius is half an ulp per edge plus the rounding of the sum")

    p = sub.add_parser("periods", help="lacuna periods up to a depth")
    common(p, form=True, depth=3)

    p = sub.add_parser("hodge", help="harmonic coefficients and skeleton primitive")
    common(p, form=True, depth=3)

    p = sub.add_parser("winding", help="winding number of a closed path")
    common(p, path=True)
    p.add_argument("--sigma", required=True, help="lacuna word over {0,1,2} ('' = top)")

    p = sub.add_parser("efflen", help="effective length of a path")
    common(p, path=True, depth=8)

    p = sub.add_parser("homology", help="finite-level homology class of a closed path")
    common(p, path=True, depth=3)

    p = sub.add_parser("potential", help="path integral through the covering potential")
    common(p, form=True, path=True, depth=3)

    p = sub.add_parser("verify", help="run the identity-verification suite")
    common(p, depth=3)
    p.add_argument("--tolerance", type=_frac, default=Fraction(1, 10**9), help="not read by any check")

    p = sub.add_parser("render", help="SVG of a gasket approximation")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--out", help="output SVG file (default stdout)")
    p.add_argument("--highlight-cell", action="append", default=[])
    p.add_argument("--lacuna", action="append", default=[])
    p.add_argument("--path", help="path JSON to overlay")
    p.add_argument("--form", help="color edges by integral magnitude of this form")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (GasketError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "energy":
        u = VertexFunction.from_json(_load_json(args.input))
        e = u.energy()
        _emit(args, {"energy": f"{e.numerator}/{e.denominator}"}, [["energy", e]])
        return 0

    if args.command == "integrate":
        cv = fm.integrate_path(_load_form(args.form), _load_path(args.path),
                               mode=args.mode, tolerance=args.tolerance)
        _emit(args, cv.to_json(), [["value", cv.value, float(cv.radius)]])
        return 0

    if args.command == "periods":
        pv = coh.periods_up_to(_load_form(args.form), args.depth)
        payload = pv.to_json()
        _emit(args, payload, [[w, v, r] for w, v, r in payload["entries"]])
        return 0

    if args.command == "hodge":
        hd = coh.hodge_decompose(_load_form(args.form), args.depth)
        payload = hd.to_json()
        _emit(args, payload, [[w, v, r] for w, v, r in payload["entries"]])
        return 0

    if args.command == "winding":
        n = coh.winding_number(_load_path(args.path), args.sigma)
        _emit(args, {"sigma": args.sigma, "winding": n}, [["winding", n]])
        return 0

    if args.command == "efflen":
        cv = cov.effective_length(_load_path(args.path), depth=args.depth)
        _emit(args, cv.to_json(), [["value", cv.value, float(cv.radius)]])
        return 0

    if args.command == "homology":
        g = cov.homology_class(_load_path(args.path), args.depth)
        coords = [[w, c] for w, c in sorted(g.coords.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        _emit(args, {"depth": g.depth, "coordinates": coords}, coords)
        return 0

    if args.command == "potential":
        cv = cov.potential_difference(_load_form(args.form), _load_path(args.path), args.depth)
        _emit(args, cv.to_json(), [["value", cv.value, float(cv.radius)]])
        return 0

    if args.command == "verify":
        report = run_suite(depth=args.depth, tolerance=args.tolerance)
        rows = [[s["criterion"], s["name"], s["status"], s["expected"], s["got"], s["radius"]]
                for s in report["suite"]]
        _emit(args, report, rows)
        return 0 if report["passed"] else 2

    if args.command == "render":
        path = _load_path(args.path) if args.path else None
        magnitudes = None
        if args.form:
            form = _load_form(args.form)
            top = max(fm._form_data_level(form), args.level)
            coh._check_budget(3 ** min(top + 1, 64), f"a coloring by edge integrals at level {args.level}")
            D, rows = fm.side_integrals_at(form, args.level)
            magnitudes = {e: abs(rows[int(e.cell or "0", 3)][e.side]) / D for e in edges_at_level(args.level)}
        svg = render_svg(args.level, size=args.size, highlight_cells=args.highlight_cell,
                         path=path, lacunas=args.lacuna, edge_magnitudes=magnitudes)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(svg + "\n")
        else:
            print(svg)
        return 0

    raise GasketError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
