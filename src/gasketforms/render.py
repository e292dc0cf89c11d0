"""SVG export of gasket approximations.

Cells are drawn as upward triangles on an integer lattice: every vertex of
V_n is (X, Y·sqrt(3))/2^(n+1) (``geometry.cell_corners``), so the drawing
uses the pairs (X, Y) of one lattice and the only floating constant is a
single sqrt(3) inside the top-level transform.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from .errors import GasketError
from .forms import _check_budget
from .geometry import ElementaryPath, Lattice, OrientedEdge, Word, cell_corners, check_word, lacuna_path, words

_SQRT3 = math.sqrt(3.0)


def _poly(pairs: Iterable[Lattice]) -> str:
    return " ".join(f"{x},{y}" for x, y in pairs)


def _on(fine: int, n: int, pairs: Iterable[Lattice]) -> list[Lattice]:
    """Level-n lattice pairs on the level-``fine`` drawing lattice (n <= fine)."""
    return [(x << fine - n, y << fine - n) for x, y in pairs]


def _check_render_input(
    level: int, size: int, highlight_cells: Iterable[Word], lacunas: Iterable[Word], edges: Iterable[OrientedEdge]
) -> tuple[list[Word], list[Word]]:
    """The highlight and lacuna words as lists.  A negative level, a size
    below 1, an invalid word, or an item off the level-(level + 1) drawing
    lattice (a highlight cell or an edge finer than it, a lacuna of a cell
    finer than the level) raises GasketError."""
    if level < 0:
        raise GasketError(f"render level {level} is negative")
    if size < 1:
        raise GasketError(f"render size {size} is below 1")
    cells, holes = [check_word(w) for w in highlight_cells], [check_word(w) for w in lacunas]
    off = [f"highlight cell {w!r}" for w in cells if len(w) > level + 1]
    off += [f"lacuna {w!r}" for w in holes if len(w) > level]
    off += [f"edge {e}" for e in edges if e.level > level + 1]
    if off:
        raise GasketError(f"{off[0]} is off the level-{level + 1} drawing lattice")
    return cells, holes


def render_svg(
    level: int,
    size: int = 512,
    highlight_cells: Iterable[Word] = (),
    path: Optional[ElementaryPath] = None,
    lacunas: Iterable[Word] = (),
    edge_magnitudes: Optional[dict[OrientedEdge, float]] = None,
) -> str:
    """An SVG document showing the 3^level cells of the given approximation,
    with optional highlighted cells, a path overlay, lacuna outlines, and
    per-edge coloring by magnitude.  A negative level, a size below 1, an
    invalid highlight or lacuna word, an item off the drawing lattice
    (``_check_render_input``), or more than ``_TABLE_ENTRIES_MAX`` cells
    raise GasketError before anything is drawn."""
    edges = [*(path.edges if path is not None else ()), *(edge_magnitudes or ())]
    highlight_cells, lacunas = _check_render_input(level, size, highlight_cells, lacunas, edges)
    _check_budget(3 ** min(level, 64), f"a render at level {level}")
    # the level-(level + 1) lattice also covers lacuna outlines one level down
    fine = level + 1
    scale = 2 ** (fine + 1)
    sx = size / scale
    sy = size / scale * _SQRT3
    height = int(math.ceil(size * _SQRT3 / 2)) + 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{height}" '
        f'viewBox="0 0 {size} {height}">',
        f'<g transform="translate(0,{height - 1}) scale({sx:.10g},{-sy:.10g})">',
    ]
    for word in words(level):
        pts = _poly(_on(fine, level, cell_corners(word)))
        parts.append(f'<polygon class="cell" points="{pts}" fill="#d8d8d8" stroke="none"/>')
    for word in highlight_cells:
        pts = _poly(_on(fine, len(word), cell_corners(word)))
        parts.append(f'<polygon class="highlight" points="{pts}" fill="#7fb3d5"/>')
    if edge_magnitudes:
        top = max(abs(v) for v in edge_magnitudes.values()) or 1.0
        for e, v in sorted(edge_magnitudes.items(), key=lambda kv: str(kv[0])):
            s, t = _on(fine, e.level, e._ends())
            shade = int(240 * (1 - abs(v) / top))
            color = f"rgb(255,{shade},{shade})"
            parts.append(
                f'<line class="form-edge" x1="{s[0]}" y1="{s[1]}" x2="{t[0]}" y2="{t[1]}" '
                f'stroke="{color}" stroke-width="{0.45 / scale * size:.4g}" '
                f'vector-effect="non-scaling-stroke"/>'
            )
    for word in lacunas:
        lp = lacuna_path(word)
        pts = _poly(_on(fine, len(word) + 1, (e._ends()[0] for e in lp.edges)))
        parts.append(f'<polygon class="lacuna" points="{pts}" fill="none" stroke="#c0392b" '
                     'stroke-width="1.5" vector-effect="non-scaling-stroke"/>')
    if path is not None:
        ends = [_on(fine, e.level, e._ends()) for e in path.edges]
        coords = _poly([ends[0][0]] + [t for _, t in ends])
        parts.append(f'<polyline class="path" points="{coords}" fill="none" stroke="#1a5276" '
                     'stroke-width="2" vector-effect="non-scaling-stroke"/>')
    parts.append("</g></svg>")
    return "\n".join(parts)
