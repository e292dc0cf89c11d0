"""`kernels.solve_unique`, the square integer (Bareiss) solve, against a
Fraction Gauss–Jordan oracle (`reference_solve`), with its refusals of a
singular system and of a non-integral solution; the limit builder
`_kernel_limit`, which finds a kernel sequence's recurrence degree modulo a
prime, asks `solve_unique` only for its integer coefficients and runs the
rest in integers, against the linear solve on every coordinate it replaced
(on `reference_solve`); the fraction-free unit-disc test against the
Fraction recursion; and the exact kernels, limits of the cached level
kernels, pinned by their SHA-256 and by their defining identities."""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gasketforms import kernels as kn
from gasketforms.errors import GasketError
from test_harmonic import H_MATRICES

F = Fraction
Q_KERNEL_SHA256 = "f71fb451928625ad48873b831f278e429b8d02f41b291c7d6256df531d3bcdaa"


def reference_solve(rows, rhs):
    """Fraction Gauss–Jordan with first-nonzero pivots (test oracle only)."""
    n = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(n):
        piv = next((k for k in range(r, len(aug)) if aug[k][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = F(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        row_r = aug[r]
        for k in range(len(aug)):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], row_r)]
        pivots[c] = r
        r += 1
    for k in range(r, len(aug)):
        if aug[k][n] != 0:
            raise GasketError("inconsistent linear system")
    if len(pivots) < n:
        raise GasketError("linear system does not pin a unique solution")
    out = [F(0)] * n
    for c, rr in pivots.items():
        out[c] = aug[rr][n]
    return out


# ---------------------------------------------------------------------------
# solve_unique
# ---------------------------------------------------------------------------

_entries = st.integers(-6, 6)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=n, max_size=n),
    st.lists(_entries, min_size=n, max_size=n),
    st.permutations(range(n)),
)))
def test_solve_matches_reference_on_integer_systems(system):
    """A nonsingular integer system L·U·x = b, L unit lower and U upper
    triangular with a nonzero diagonal drawn from one matrix, rows shuffled
    (so leading pivots can be 0), with an integer solution x."""
    M, diag, x, order = system
    n = len(M)
    U = [[diag[i] if j == i else (M[i][j] if j > i else 0) for j in range(n)] for i in range(n)]
    L = [[1 if j == i else (M[i][j] if j < i else 0) for j in range(n)] for i in range(n)]
    rows = [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in order]
    rhs = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
    assert kn.solve_unique(rows, rhs) == reference_solve(rows, rhs) == x


def test_solve_swaps_a_zero_leading_pivot():
    rows, rhs = [[0, 2, 1], [1, 1, 0], [3, 0, 1]], [7, 3, 6]
    assert kn.solve_unique(rows, rhs) == reference_solve(rows, rhs) == [1, 2, 3]


def test_a_non_integral_solution_is_refused():
    rows, rhs = [[1, 1], [1, -1]], [1, 0]
    assert reference_solve(rows, rhs) == [F(1, 2), F(1, 2)]
    with pytest.raises(GasketError, match="no integer solution"):
        kn.solve_unique(rows, rhs)


def test_a_singular_system_is_refused():
    with pytest.raises(GasketError, match="singular"):
        kn.solve_unique([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, 3])


# ---------------------------------------------------------------------------
# the limit builder
# ---------------------------------------------------------------------------

def _halving(j):
    """w_j = (1 + 2^-j, 1 - 2^-j, 1) at rho = 1/2: recurrence roots 1 and 1/2."""
    return (2**j + 1, 2**j - 1, 2**j)


def _doubling(j):
    """u_j = 2^j·v at rho = 1: the recurrence x - 2 has no root at 1."""
    return (2**j, 2 * 2**j, 3 * 2**j)


def _linear(j):
    """w_j = (j, 1) at rho = 1: the recurrence (x - 1)^2 has a double root at 1."""
    return (j, 1)


def _alternating(j):
    """w_j = (1 + (-1)^j, 1, 2 - (-1)^j) at rho = 1: the recurrence
    (x - 1)(x + 1) has the simple root 1, but the sequence oscillates; its
    Cesàro mean is (1, 1, 2)."""
    return (1 + (-1) ** j, 1, 2 - (-1) ** j)


def test_kernel_limit_of_a_convergent_sequence():
    assert kn._kernel_limit(_halving, (), F(1, 2)) == (1, (1, 1, 1))


def test_kernel_limit_refuses_a_root_on_the_unit_circle():
    with pytest.raises(GasketError, match="unit disc"):
        kn._kernel_limit(_alternating, (), F(1))


@pytest.mark.parametrize("sequence, shape, rho", [
    (kn.q_level_kernel, (0, 1), F(5, 3 * 5**3)),
    (kn.riemann_kernel, (1, 1, 0), F(1, 25)),
])
def test_a_cold_limit_build_keeps_only_its_limit(sequence, shape, rho):
    """The level kernels a cold build reads are dropped once the limit is
    built; the levels come back on demand, and the limit is unchanged."""
    level = sequence(*shape, 3)
    cold = kn._kernel_limit.__wrapped__(sequence, shape, rho)
    assert sequence.cache_info().currsize == 0
    assert sequence(*shape, 3) == level
    assert cold == kn._kernel_limit(sequence, shape, rho)


def _poly(factors):
    """The coefficients, lowest degree first, of the product of the factors."""
    out = [F(1)]
    for f in factors:
        out = [sum(f[i] * out[k - i] for i in range(len(f)) if 0 <= k - i < len(out)) for k in range(len(out) + len(f) - 1)]
    return out


def _integers(poly):
    """The rational polynomial scaled by its common denominator to integers."""
    den = math.lcm(*(x.denominator for x in poly))
    return [int(x * den) for x in poly]


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@given(st.lists(_rationals, max_size=4), st.lists(st.tuples(_rationals, _rationals), max_size=2),
       st.fractions(min_value=F(1, 4), max_value=4).filter(bool))
def test_unit_disc_test_on_known_roots(real, pairs, lead):
    """Real roots r and conjugate pairs a ± ib, of modulus^2 a^2 + b^2: the
    test passes exactly when all of them lie strictly inside the unit disc."""
    factors = [(-r, F(1)) for r in real] + [(a * a + b * b, -2 * a, F(1)) for a, b in pairs] + [(lead,)]
    inside = all(abs(r) < 1 for r in real) and all(a * a + b * b < 1 for a, b in pairs)
    assert kn._roots_inside_unit_disc(_integers(_poly(factors))) == inside


def _fraction_schur_cohn(poly):
    """The Schur–Cohn recursion made monic at every step, in Fractions (test
    oracle only)."""
    while len(poly) > 1:
        poly = [F(x, 1) / poly[-1] for x in poly]
        a0 = poly[0]
        if abs(a0) >= 1:
            return False
        poly = [x - a0 * y for x, y in zip(poly[1:], reversed(poly[:-1]))]
    return True


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=9).filter(lambda p: p[-1]))
def test_unit_disc_test_equals_the_fraction_recursion(poly):
    assert kn._roots_inside_unit_disc(poly) == _fraction_schur_cohn(poly)


@pytest.mark.parametrize("sequence", [_doubling, _linear])
def test_kernel_limit_refuses_without_a_simple_root_at_one(sequence):
    with pytest.raises(GasketError, match="not a simple root"):
        kn._kernel_limit(sequence, (), F(1))


def _linear_solve_limit(sequence, shape, rho):
    """The limit builder before the modular echelon (test oracle only): the
    least d whose u_d solves exactly over u_0..u_(d-1) with ``reference_solve``
    on every coordinate, where w_j = u_j·rho^j, then the same convergence
    checks and projection.  u_d = sum_j c'_j·u_j is w_d = sum_j c_j·w_j with
    c_j = c'_j·rho^(d-j).  Coordinates with equal (u_0..u_d) entries give one
    equation, so each distinct equation goes into the solve once."""
    u = []
    for d in range(len(sequence(*shape, 0)) + 1):
        u.append(sequence(*shape, d))
        equations = dict.fromkeys(zip(*u))
        try:
            c = reference_solve([e[:-1] for e in equations], [e[-1] for e in equations])
            break
        except GasketError:
            continue
    c = [x * rho ** (d - j) for j, x in enumerate(c)]
    w = [[x * rho**j for x in uj] for j, uj in enumerate(u)]
    poly = [-x for x in c] + [F(1)]
    quotient = [sum(poly[k + 1 :]) for k in range(d)]
    assert sum(poly) == 0 and sum(quotient) != 0 and kn._roots_inside_unit_disc(_integers(quotient))
    K = [sum(map(operator.mul, quotient, column)) / sum(quotient) for column in zip(*w[:d])]
    den = math.lcm(*(x.denominator for x in K))
    return den, tuple(int(x * den) for x in K)


# every exact kernel in use: the Riemann (p, 0) limits of edge integrals
# (p = 1 is ``edge_kernel``) and the Q one-cell kernels up to (2, 2)
_LIMITS = [
    *[(kn.riemann_kernel, (side, p, 0), F(1, 5 ** (p + 1))) for p in range(4) for side in range(3)],
    *[(kn.q_level_kernel, (p, r), F(5, 3 * 5 ** (p + r + 2))) for p in range(3) for r in range(3)],
]


@pytest.mark.parametrize("sequence, shape, rho", _LIMITS, ids=lambda x: getattr(x, "__name__", str(x)))
def test_kernel_limit_equals_the_linear_solve(sequence, shape, rho):
    assert kn._kernel_limit(sequence, shape, rho) == _linear_solve_limit(sequence, shape, rho)


# SHA-256 of repr((den, ints)) of each limit in ``_LIMITS``, in its order
_LIMIT_SHA256 = [
    '7b7a81b3ab93b49f738e2d59a4ca502f22b71320bc29e3c4efc60c421d4c6e84',
    '9b3a13f690242e12a4e4310cd1b755a37254d762b5d7c1f02b7576dbf16fd88c',
    '21674e4ec637df6a2e4983b05d5c3d1c3fb8c6f31ba3637670161b65765f35a1',
    '0af5fbff0ecbb38dbb3a42fe3a4a80cad9ab2b38110ab3c17d4b7bfe2fdafbd3',
    'df002e1ea6c5481553de55990ad8a95e56d8e3446ac77ac2ead753c8500b351c',
    'a7e1c86f2d9076d2bfe0df4160550860ee8c6c874339f827a4a96371219f4166',
    'bdb61d4cfff181049df07e7d99bce39ba814494dd942b36d8d55cb01dc3f827d',
    'c951c80a45e882cd1ff5ba077cf6ec08f30b9e71744ce14ed2ce82d0cfe6d71f',
    '94e7044696651ded2d5474600febca918ffc1f9d4f66f195bd196fe43f65861b',
    'a1d6fa9b098616bf994a717217d507697e3843761445a89dc55e5cb7655ab1bd',
    '845edb41f10d615a0f8e1bb73d78e6db85bbae245d05a777b0cc854f10b0c35e',
    '47101c589a38300b0b3a29015c2cde52b05005efe1c1d512718c6e507fa746f7',
    '2f53badf13e0e97d28b0d4cf993d7d623c53c1751041854b8ea7fbf9af150b24',
    '937d160898d7906e34a87352e4c4691acd0754e2f5e3ee241380a2e6ef494b6c',
    'aa3529d510686458f037522c997624c64bc162c7b28fba12ab98507d8c94da30',
    'f058cff79e4fd935baf33f126413bf0513ad816fcde061f293f7931e15421e6b',
    '3d6b6c54f7a32a2571e330ec885021b3f91de1645fbca52a2b4d5a7987a7a401',
    '2949cf113f2e46619086b44b3e487070510b31d651d5bccc3f1329169d923e2e',
    '1dab0f8f17c1ea2e3b40d74a6bf26078873e52f77e1268666315b8a52a561dd0',
    '7b16e841c5fce29184e9b0fa841217eb4cc4e1f2fc8acb2fdf44bb7a5ec28a3f',
    'aeb0e9a4b2bb8cce248da545b3782438817cd2d232b5cd97a5c8df49e1688c1c',
]


def test_kernel_limits_pinned():
    """Every exact kernel in use stays byte for byte what it is: a change of
    the limit builder that moves any kernel shows here."""
    digests = [hashlib.sha256(repr(kn._kernel_limit(*limit)).encode()).hexdigest() for limit in _LIMITS]
    assert digests == _LIMIT_SHA256


@pytest.mark.parametrize("side", range(3))
@pytest.mark.parametrize("p, q", [(p, q) for p in range(3) for q in range(1, 4 - p)])
def test_right_slots_integrate_as_left_slots(side, p, q):
    """The (p, q) Riemann limit, slots L_1..L_p, g, R_1..R_q, equals the
    (p + q, 0) limit with the g slot moved last: L·dg·R integrates as
    (L·R)·dg."""
    def limit(p, q):
        den, K = kn._kernel_limit(kn.riemann_kernel, (side, p, q), F(1, 5 ** (p + q + 1)))
        return [F(x, den) for x in K]

    mixed, left = limit(p, q), limit(p + q, 0)
    for digits in itertools.product(range(3), repeat=p + q + 1):
        ls, g, rs = digits[:p], digits[p], digits[p + 1 :]
        assert mixed[int("".join(map(str, (*ls, g, *rs))), 3)] == left[int("".join(map(str, (*ls, *rs, g))), 3)]


def _modular_trap(j):
    """u_0 = (1, 1), u_1 = (1, 3): independent over the rationals, equal mod 2."""
    return ((1, 1), (1, 3), (1, 5))[min(j, 2)]


def test_a_bad_prime_fails_the_integer_check(monkeypatch):
    """A prime under which the level kernels lose rank makes the degree too
    small; the integer recurrence check refuses it instead of returning a
    wrong limit."""
    monkeypatch.setattr(kn, "_PRIME", 2)
    with pytest.raises(GasketError, match="integers"):
        kn._kernel_limit.__wrapped__(_modular_trap, (), F(1))


# ---------------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------------

def _w(W, a, b, c, d):
    return W[((a * 3 + b) * 3 + c) * 3 + d]


def test_q_kernel_pinned():
    text = ",".join(f"{x.numerator}/{x.denominator}" for x in kn.q_kernel())
    assert hashlib.sha256(text.encode()).hexdigest() == Q_KERNEL_SHA256


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_q_kernel_corner_relabelling(perm):
    W = kn.q_kernel()
    for a, b, c, d in itertools.product(range(3), repeat=4):
        assert _w(W, perm[a], perm[b], perm[c], perm[d]) == _w(W, a, b, c, d)


def test_q_kernel_transpose_symmetry():
    W = kn.q_kernel()
    for a, b, c, d in itertools.product(range(3), repeat=4):
        assert _w(W, a, b, c, d) == _w(W, c, d, a, b)


def test_q_kernel_self_similar_fixed_point():
    """W = (5/3)·Σ_i W∘H_i^{⊗4}, entry by entry in rationals."""
    W = kn.q_kernel()
    slots = range(3)
    for a, b, c, d in itertools.product(slots, repeat=4):
        acc = F(0)
        for H in H_MATRICES:
            for j, k, l, m in itertools.product(slots, repeat=4):
                h = H[j][a] * H[k][b] * H[l][c] * H[m][d]
                if h:
                    acc += h * _w(W, j, k, l, m)
        assert F(5, 3) * acc == _w(W, a, b, c, d)


@pytest.mark.parametrize("side", range(3))
def test_edge_kernel_identities(side):
    X = kn.edge_kernel(side)
    src, tgt = (side + 2) % 3, (side + 1) % 3
    # refinement fixed point: X = Σ over the two child cells on the side of H^T X H
    for j, k in itertools.product(range(3), repeat=2):
        refined = sum(
            H[p][j] * X[p][q] * H[q][k]
            for H in (H_MATRICES[src], H_MATRICES[tgt])
            for p, q in itertools.product(range(3), repeat=2)
        )
        assert refined == X[j][k]
    # column sums: the integral of 1·dg is g(target) - g(source)
    for k in range(3):
        assert sum(X[j][k] for j in range(3)) == (k == tgt) - (k == src)
