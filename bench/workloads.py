"""The benchmark's workloads: seeded pools of calls into gasketforms.

Each workload turns a seed into a fixed pool of operations.  The pool's
*structure* (how many groups, which levels, depths and op kinds) is the same
for every seed; the seed only draws the data (harmonic values, lacuna words
and coefficients, edges, walks).  So different seeds give different exact
outputs but the same mix of work, which keeps the timing metrics comparable
across seeds.  One caller runs the pool round after round (a closed loop).

``exact_calculus``
    Random m-harmonic data at m = 0..3 and forms
    ``F dv + sum c_s dz_s + dU``.  Loads harmonic descent and Fraction
    arithmetic (energy levels, exact integrals, periods, exact Q, Hodge);
    bypasses the float engines.  In half of the groups F = u + w is a sum
    of functions of two levels, so ``VertexFunction.extend`` runs the way
    users hit it.
``certified_engines``
    Forms with product left factors ``(a b) dg`` alone and mixed with lacuna
    forms, plus harmonic-left and lacuna/exact forms as cross-checks, on
    positively oriented edges of level 0..2 and Q at max level 10..12,
    tolerance 1e-9.  Loads the Riemann-doubling and level-sum engines and
    their arrays; bypasses the exact kernels for the product forms.
``covering_paths``
    Seeded closed and open walks on the level 1..4 graphs, lacuna and
    perimeter loops, and random homology classes.  Many small calls into
    ``covering``/``cohomology`` that depend on the ``a_entry``/``b_entry``/
    ``cell_corners`` caches, and potentials from one Hodge decomposition
    built at set-up.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import gasketforms as gf
from gasketforms import cohomology, covering, forms, geometry

TOL = Fraction(1, 10**9)
EXACT = Fraction(0)


@dataclass
class Op:
    """One call into the library and the check of its output.

    ``check(result, first)`` returns an error message or None; ``first`` maps
    op keys to the results of the first round, for cross-op checks.
    ``tolerance`` is the radius the caller asked for: 0 for exact ops, None
    when the op takes no tolerance.
    """

    key: str
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    tolerance: Optional[Fraction]


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("012") for _ in range(rng.randint(lo, hi)))


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _lacunas(rng: random.Random, max_len: int) -> dict:
    """Two lacuna-form coefficients, on words of length max_len and 0..max_len."""
    return {_word(rng, max_len, max_len): _coeff(rng), _word(rng, 0, max_len): _coeff(rng)}


def _is_exact(cv) -> bool:
    return isinstance(cv, gf.CertifiedValue) and cv.exact


def _finite(cv) -> bool:
    return math.isfinite(float(cv.value)) and cv.radius >= 0


def _contains(cv, exact_value) -> Optional[str]:
    if not _finite(cv):
        return f"non-finite certified value {cv!r}"
    if not cv.contains(exact_value):
        return f"certified {cv!r} does not enclose exact {exact_value}"
    return None


# ---------------------------------------------------------------------------
# exact_calculus
# ---------------------------------------------------------------------------

EXACT_PARAMS = {
    "groups": 16,
    "data_levels": [0, 1, 2, 3],
    "energy_levels_above_data": 5,
    "period_depth": "5 in groups 0 and 8, 4 elsewhere",
    "hodge_depth": 3,
    "lacuna_terms": 2,
    "ops_per_group": 11,
}


def _exact_group(rng: random.Random, i: int) -> list[Op]:
    p = EXACT_PARAMS
    m = p["data_levels"][i % 4]
    depth = 5 if i % 8 == 0 else 4
    u = gf.random_harmonic(m, rng)
    w = gf.random_harmonic(max(m - 1, 0), rng)
    v = gf.random_harmonic(m, rng)
    potential = gf.random_harmonic(m, rng)
    # groups 4-7 and 12-15 write the left factor as a sum of two levels,
    # which the library re-extends to a common level on every use
    left = gf.Sum([gf.Atom(u), gf.Atom(w)]) if (i // 4) % 2 else gf.Atom(u)
    lacunas = _lacunas(rng, m)
    omega = gf.fdg(left, v) + gf.SmoothForm(harmonic=lacunas) + gf.d(potential)
    single = (gf.d(v), gf.fdg(u, v))
    # lacunas and perimeters of cells finer than, at and coarser than the
    # data level: lengths are fixed per slot, the seed draws the letters
    lengths = (m + 1, m, max(m - 1, 0))
    lacuna_words = [_word(rng, n, n) for n in lengths]
    perimeter_words = [_word(rng, n, n) for n in lengths]
    top = m + p["energy_levels_above_data"]
    g = f"g{i}"

    def check_energy(levels, first):
        if len(levels) != top - m + 1 or any(e != levels[0] for e in levels):
            return f"energy_levels not constant: {levels}"
        return None

    def check_lacuna(word):
        def check(cv, first):
            if not _is_exact(cv):
                return "exact lacuna integral is not exact"
            period = first[f"{g}.periods"].entries[word]
            if period.value != cv.value:
                return f"lacuna integral {cv.value} differs from period {period.value}"
            return None
        return check

    def check_exact(cv, first):
        return None if _is_exact(cv) else f"exact integral returned {cv!r}"

    def check_periods(pv, first):
        if len(pv.entries) != (3 ** (depth + 1) - 1) // 2:
            return "wrong number of periods"
        if not all(cv.exact for cv in pv.entries.values()):
            return "inexact period"
        return None

    def check_q(pair):
        def check(value, first):
            if not isinstance(value, Fraction):
                return f"exact Q returned {value!r}"
            cert = gf.q_inner_certified(*pair, max_level=10, strict=False)
            return _contains(cert, value)
        return check

    def check_hodge(hd, first):
        if len(hd.k) != (3 ** (p["hodge_depth"] + 1) - 1) // 2:
            return "wrong number of harmonic coefficients"
        anchor = hd.potential[geometry.P0]
        if not (anchor.exact and anchor.value == 0):
            return "skeleton primitive is not anchored at p0"
        if hd.residual_bound < 0:
            return "negative residual bound"
        return None

    return [
        Op(f"{g}.energy", "energy_levels", lambda: u.energy_levels(top), check_energy, EXACT),
        *[Op(f"{g}.lacuna{j}", "integrate_path", lambda s=s: gf.integrate_path(omega, gf.lacuna_path(s)),
             check_lacuna(s), EXACT) for j, s in enumerate(lacuna_words)],
        *[Op(f"{g}.perimeter{j}", "integrate_path", lambda r=r: gf.integrate_path(omega, gf.perimeter_path(r)),
             check_exact, EXACT) for j, r in enumerate(perimeter_words)],
        Op(f"{g}.periods", "periods_up_to", lambda: gf.periods_up_to(omega, depth), check_periods, EXACT),
        Op(f"{g}.q_single", "q_inner_exact", lambda: gf.q_inner_exact(*single), check_q(single), EXACT),
        Op(f"{g}.q_quad", "q_inner_exact", lambda: gf.q_inner_exact(omega, omega), check_q((omega, omega)), EXACT),
        Op(f"{g}.hodge", "hodge_decompose", lambda: gf.hodge_decompose(omega, p["hodge_depth"]),
           check_hodge, None),
    ]


def _exact_calculus(rng: random.Random) -> list[Op]:
    return [op for i in range(EXACT_PARAMS["groups"]) for op in _exact_group(rng, i)]


# ---------------------------------------------------------------------------
# certified_engines
# ---------------------------------------------------------------------------

CERTIFIED_PARAMS = {
    "groups": 18,
    "edge_levels": [0, 1, 2],
    "q_max_levels": [10, 11, 12],
    "data_level": 1,
    "lacuna_word_max_len": 2,
    "tolerance": str(TOL),
    "ops_per_group": 8,
}


def _certified_group(rng: random.Random, i: int) -> list[Op]:
    p = CERTIFIED_PARAMS
    level = p["edge_levels"][i % 3]
    max_level = p["q_max_levels"][(i // 3) % 3]
    a = gf.random_harmonic(p["data_level"], rng)
    b = gf.random_harmonic(0, rng)
    h = gf.random_harmonic(p["data_level"], rng)
    potential = gf.random_harmonic(p["data_level"], rng)
    lac = gf.SmoothForm(harmonic=_lacunas(rng, p["lacuna_word_max_len"]))
    prod = gf.fdg(gf.Product([gf.Atom(a), gf.Atom(b)]), h)
    mix = prod + lac
    harm = gf.fdg(a, h)
    lacx = lac + gf.d(potential)
    # Positive orientation only: on a reversed edge the certified route
    # currently returns the forward value (the sign is applied twice).
    edge = gf.OrientedEdge(_word(rng, level, level), rng.randrange(3), 1)
    g = f"g{i}"

    def integral(form):
        return lambda: gf.integrate_edge(form, edge, mode="certified", tolerance=TOL)

    def q(form):
        return lambda: gf.q_inner_certified(form, tolerance=TOL, max_level=max_level, strict=False)

    def check_finite(cv, first):
        return None if _finite(cv) else f"non-finite certified value {cv!r}"

    def check_mix(cv, first):
        # integrals are additive: mix = prod + lac, with lac exact
        expected = first[f"{g}.int_prod"] + gf.integrate_edge(lac, edge)
        if not _finite(cv) or not cv.overlaps(expected):
            return f"certified {cv!r} disagrees with prod + lacuna {expected!r}"
        return None

    def check_encloses(form):
        def check(cv, first):
            return _contains(cv, gf.integrate_edge(form, edge).value)
        return check

    def check_lacx(cv, first):
        exact = gf.integrate_edge(lacx, edge)
        if not (cv.exact and cv.value == exact.value):
            return f"lacuna/exact form gave {cv!r}, exact route {exact!r}"
        return None

    def check_q_nonneg(cv, first):
        if not _finite(cv) or cv.value + cv.radius < 0:
            return f"certified Q {cv!r} excludes every nonnegative value"
        return None

    def check_q_encloses(form):
        def check(cv, first):
            return _contains(cv, gf.q_inner_exact(form, form))
        return check

    return [
        Op(f"{g}.int_prod", "integrate_edge.certified", integral(prod), check_finite, TOL),
        Op(f"{g}.int_mix", "integrate_edge.certified", integral(mix), check_mix, TOL),
        Op(f"{g}.int_harm", "integrate_edge.certified", integral(harm), check_encloses(harm), TOL),
        Op(f"{g}.int_lacx", "integrate_edge.certified", integral(lacx), check_lacx, TOL),
        Op(f"{g}.q_prod", "q_inner_certified", q(prod), check_q_nonneg, TOL),
        Op(f"{g}.q_mix", "q_inner_certified", q(mix), check_q_nonneg, TOL),
        Op(f"{g}.q_harm", "q_inner_certified", q(harm), check_q_encloses(harm), TOL),
        Op(f"{g}.q_lac", "q_inner_certified", q(lac), check_q_encloses(lac), TOL),
    ]


def _certified_engines(rng: random.Random) -> list[Op]:
    return [op for i in range(CERTIFIED_PARAMS["groups"]) for op in _certified_group(rng, i)]


# ---------------------------------------------------------------------------
# covering_paths
# ---------------------------------------------------------------------------

COVERING_PARAMS = {
    "groups": 128,
    "walk_levels": [1, 2, 3, 4],
    "walk_steps": "4 + 2 * level, then a shortest way back",
    "homology_depths": [3, 4],
    "effective_length_depths": [6, 7, 8],
    "hodge_depth": 4,
    "group_class_depth": 3,
    "ops_per_group": 11,
}


def _skeleton(n: int) -> dict:
    """Oriented edges leaving each vertex of the level-n graph."""
    out = collections.defaultdict(list)
    for e in gf.edges_at_level(n):
        out[e.source].append(e)
        out[e.target].append(e.reversed())
    for edges in out.values():
        edges.sort(key=str)
    return out


def _walk(rng: random.Random, adj: dict, steps: int, closed: bool):
    start = rng.choice(sorted(adj, key=geometry.vertex_id))
    p, edges = start, []
    for _ in range(steps):
        e = rng.choice(adj[p])
        edges.append(e)
        p = e.target
    if closed and p != start:
        # breadth-first way back to the start
        prev = {p: None}
        frontier = [p]
        while start not in prev:
            nxt = []
            for x in frontier:
                for e in adj[x]:
                    if e.target not in prev:
                        prev[e.target] = e
                        nxt.append(e.target)
            frontier = nxt
        back, x = [], start
        while prev[x] is not None:
            back.append(prev[x])
            x = prev[x].source
        edges.extend(reversed(back))
    return gf.validate_path(edges)


def _covering_paths(rng: random.Random) -> list[Op]:
    p = COVERING_PARAMS
    u = gf.random_harmonic(1, rng)
    v = gf.random_harmonic(1, rng)
    form = gf.fdg(u, v) + gf.SmoothForm(harmonic=_lacunas(rng, 2))
    hd = gf.hodge_decompose(form, p["hodge_depth"])
    skeletons = {n: _skeleton(n) for n in p["walk_levels"]}
    kernel = cohomology.TriangularKernel()
    ops: list[Op] = []
    for i in range(p["groups"]):
        n = p["walk_levels"][i % 4]
        hdepth = p["homology_depths"][(i // 4) % 2]
        edepth = p["effective_length_depths"][i % 3]
        loop = _walk(rng, skeletons[n], 4 + 2 * n, closed=True)
        open_walk = _walk(rng, skeletons[n], 4 + 2 * n, closed=False)
        # word lengths are fixed per group; the seed draws the letters
        sigma = _word(rng, i % 4, i % 4)
        lac_word = _word(rng, i % 3, i % 3)
        lac = gf.lacuna_path(lac_word)
        perimeter = gf.perimeter_path(_word(rng, 3 - i % 4, 3 - i % 4))
        cls = covering.HomologyElement(
            p["group_class_depth"],
            {"": rng.choice((-2, -1, 1, 2)), _word(rng, 1, 1): rng.randint(-2, 2),
             _word(rng, 2, 2): rng.randint(-2, 2)},
        )
        chain_word = _word(rng, 3 + i % 3, 3 + i % 3)
        g = f"g{i}"

        def check_int(value, first):
            return None if type(value) is int else f"winding number {value!r} is not an int"

        def check_lacuna_winding(value, first):
            return None if value == 1 else f"lacuna winding {value!r} != 1"

        def check_homology(sigma=sigma, g=g, hdepth=hdepth):
            def check(h, first):
                if not all(type(c) is int for c in h.coords.values()):
                    return "non-integer homology coordinate"
                if len(sigma) < hdepth and h.coords.get(sigma, 0) != first[f"{g}.winding"]:
                    return f"homology coordinate at {sigma!r} disagrees with winding_number"
                return None
            return check

        def check_lacuna_homology(lac_word=lac_word):
            def check(h, first):
                return None if h.coords == {lac_word: 1} else f"lacuna class {h.coords} != {{{lac_word!r}: 1}}"
            return check

        def check_length(cv, first):
            if not (cv.value > 0 and cv.radius >= 0 and cv.value - cv.radius >= 0):
                return f"effective length {cv!r} is not a nonnegative enclosure"
            return None

        def check_group_length(cls=cls):
            def check(cv, first):
                if not cv.exact or cv.value < 0 or (cv.value == 0) != cls.is_zero():
                    return f"group length {cv!r} for class {cls.coords}"
                return None
            return check

        def check_potential(path):
            def check(cv, first):
                return _contains(cv, gf.integrate_path(form, path).value)
            return check

        def check_chain(result, first):
            chain, B, A = result
            size = len(chain)
            for r in range(size):
                for c in range(size):
                    if sum(A[r][k] * B[k][c] for k in range(size)) != (1 if r == c else 0):
                        return f"A B != I on the chain of {chain[-1]!r}"
            return None

        ops += [
            Op(f"{g}.winding", "winding_number", lambda P=loop, s=sigma: gf.winding_number(P, s), check_int, EXACT),
            Op(f"{g}.winding_lacuna", "winding_number", lambda L=lac, s=lac_word: gf.winding_number(L, s),
               check_lacuna_winding, EXACT),
            Op(f"{g}.homology", "homology_class", lambda P=loop, d=hdepth: gf.homology_class(P, d),
               check_homology(), EXACT),
            Op(f"{g}.homology_lacuna", "homology_class", lambda L=lac, d=hdepth: gf.homology_class(L, d),
               check_lacuna_homology(), EXACT),
            Op(f"{g}.efflen_loop", "effective_length", lambda P=loop, d=edepth: gf.effective_length(P, d),
               check_length, None),
            Op(f"{g}.efflen_perimeter", "effective_length",
               lambda P=perimeter, d=edepth: gf.effective_length(P, d), check_length, None),
            Op(f"{g}.group_length", "group_length", lambda c=cls: gf.group_length(c), check_group_length(), EXACT),
            Op(f"{g}.potential_open", "potential_difference",
               lambda P=open_walk: gf.potential_difference(form, P, p["hodge_depth"], decomposition=hd),
               check_potential(open_walk), None),
            Op(f"{g}.potential_loop", "potential_difference",
               lambda P=loop: gf.potential_difference(form, P, p["hodge_depth"], decomposition=hd),
               check_potential(loop), None),
            Op(f"{g}.potential_lacuna", "potential_difference",
               lambda P=lac: gf.potential_difference(form, P, p["hodge_depth"], decomposition=hd),
               check_potential(lac), None),
            Op(f"{g}.chain", "chain_matrices", lambda w=chain_word: kernel.chain_matrices(w), check_chain, EXACT),
        ]
    return ops


WORKLOADS = {
    "exact_calculus": (_exact_calculus, EXACT_PARAMS),
    "certified_engines": (_certified_engines, CERTIFIED_PARAMS),
    "covering_paths": (_covering_paths, COVERING_PARAMS),
}


def build(name: str, seed: int) -> list[Op]:
    """The seeded op pool of one workload, plus the cold kernel solves every
    process pays before its first exact integral or Q."""
    make, _ = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    for side in range(3):
        forms.edge_kernel(side)
    forms.q_kernel()
    return make(rng)


# ---------------------------------------------------------------------------
# output views
# ---------------------------------------------------------------------------

def radius_of(result) -> Fraction:
    """The certified radius an op's result carries (0 for exact results)."""
    if isinstance(result, gf.CertifiedValue):
        return Fraction(result.radius)
    if isinstance(result, cohomology.PeriodVector):
        return max((Fraction(cv.radius) for cv in result.entries.values()), default=EXACT)
    if isinstance(result, cohomology.HodgeDecomposition):
        return Fraction(result.residual_bound)
    return EXACT


def canonical(x, floats: bool) -> str:
    """A stable text form of an op's result.  With ``floats`` off, float
    values are replaced by a marker, so the text depends on exact outputs
    only and can be compared across commits."""
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x.hex() if floats else "~"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(e, floats) for e in x) + "]"
    if isinstance(x, dict):
        items = sorted((canonical(k, floats), canonical(v, floats)) for k, v in x.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(x, gf.CertifiedValue):
        if isinstance(x.value, float) and not floats:
            return "cv(~)"
        return f"cv({canonical(x.value, floats)},{canonical(Fraction(x.radius), floats)})"
    if isinstance(x, geometry.Point):
        return geometry.vertex_id(x)
    if isinstance(x, cohomology.PeriodVector):
        return f"periods({x.depth},{canonical(x.entries, floats)},{canonical(x.level_sum_bound, floats)})"
    if isinstance(x, cohomology.HodgeDecomposition):
        parts = (x.depth, x.k, x.potential, x.potential_radius, x.residual_bound)
        return "hodge" + canonical(list(parts), floats)
    if isinstance(x, covering.HomologyElement):
        return f"class({x.depth},{canonical(x.coords, floats)})"
    raise TypeError(f"no canonical form for {type(x).__name__}")
