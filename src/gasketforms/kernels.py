"""The exact one-cell kernels of edge integrals and Q, in integers.

Every exact kernel is the limit of a cached integer level kernel: the
dyadic Riemann kernels ``riemann_kernel`` of edge integrals and the Q level
kernels ``q_level_kernel``, each level the previous one refined by the
integer matrices 5·H_i (``_H5``) on every slot.  They are built from
``_children5``, the one writing of the harmonic extension rule, which every
descent reads; the harmonic energies contract moments with the (0, 0) Q
level kernel.  ``_kernel_limit`` finds the short recurrence of the level
sequence by one row echelon modulo a prime, solves for its integer
coefficients (``solve_unique``, fraction-free) and checks them in integers;
the convergence test (Schur–Cohn, fraction-free) and the projection onto
the limit run on integers too.  ``_int_side_limits`` and ``_exact_q_kernel``
keep the limits as integers over one denominator; ``edge_kernel`` and
``q_kernel`` are their rational views.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .errors import GasketError
from .geometry import words

IntTriple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# integer linear solve
# ---------------------------------------------------------------------------

def solve_unique(rows: list[list[int]], rhs: list[int]) -> list[int]:
    """The integer solution x of the square integer system rows·x = rhs, by
    Bareiss's fraction-free elimination: the rows below the pivot p become
    (p·row - f·pivot_row) / p', p' the previous pivot, an exact division; a
    zero pivot is swapped with a lower row.  GasketError when the system is
    singular or back substitution leaves a remainder (x is not integral)."""
    n = len(rows)
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    prev = 1
    for c in range(n):
        piv = next((k for k in range(c, n) if aug[k][c]), None)
        if piv is None:
            raise GasketError("singular linear system")
        aug[c], aug[piv] = aug[piv], aug[c]
        p, tail = aug[c][c], aug[c][c + 1 :]
        for k in range(c + 1, n):
            f = aug[k][c]
            aug[k][c + 1 :] = [(p * x - f * y) // prev for x, y in zip(aug[k][c + 1 :], tail)]
        prev = p
    x = [0] * n
    for c in reversed(range(n)):
        x[c], rest = divmod(aug[c][n] - sum(aug[c][j] * x[j] for j in range(c + 1, n)), aug[c][c])
        if rest:
            raise GasketError("linear system has no integer solution")
    return x


# ---------------------------------------------------------------------------
# the level kernels
# ---------------------------------------------------------------------------

def _children5(a: int, b: int, c: int) -> tuple[IntTriple, IntTriple, IntTriple]:
    """The harmonic extension rule 5·H_i: children 0, 1, 2 of a cell with corners
    (a, b, c), times 5.  Child i keeps 5 t_i at corner i; its corner j != i
    gets 2 t_i + 2 t_j + t_k = s + t_i + t_j, with s = a + b + c."""
    s = a + b + c
    x, y, z = s + a + b, s + a + c, s + b + c
    return (5 * a, x, y), (x, 5 * b, z), (y, z, 5 * c)


# 5·H_i as integer matrices: column k of 5·H_i is child i of the unit triple e_k
_H5 = tuple(tuple(zip(*(_children5(*(int(j == k) for j in range(3)))[i] for k in range(3)))) for i in range(3))


def _refine_modes(T: Sequence[int], A: Sequence[Sequence[int]], k: int) -> list[int]:
    """The flat order-k tensor T with A applied to every mode:
    out[i_1..i_k] = sum_j T[j_1..j_k]·A[j_1][i_1]⋯A[j_k][i_k].

    Each pass transforms the last mode and moves it to the front, so k passes
    transform every mode once and restore the mode order."""
    third = len(T) // 3
    for _ in range(k):
        out = [0] * len(T)
        for r in range(third):
            x, y, z = T[3 * r : 3 * r + 3]
            for i in range(3):
                out[i * third + r] = x * A[0][i] + y * A[1][i] + z * A[2][i]
        T = out
    return T


# Work budget of the kernel routes: a monomial with k slots (its factors and
# g) contracts a dense kernel of 3^k integers, its exact limit or a cached
# level; larger forms are refused before any kernel is built.
_KERNEL_SLOTS_MAX = 6


@lru_cache(maxsize=None)
def riemann_kernel(side: int, p: int, q: int, n: int) -> tuple[int, ...]:
    """Level-n dyadic Riemann kernel of L_1⋯L_p(t)·(g(t) - g(s))·R_1⋯R_q(s)
    over one canonical side, t its target corner and s its source corner.

    A dense flat tensor over {0,1,2}^(p+1+q), slots in the order L_1..L_p, g,
    R_1..R_q with the first slot most significant, scaled by 5^((p+1+q)·n) to
    integers: contracted with the factors' corner triples on a cell it gives
    5^((p+1+q)·n)·I_n over that cell's side.  The level-0 sum seeds it; each
    level applies the side's two child letters (5·H_i on every mode) and adds,
    because the side's sub-edges lie in those two children."""
    k = p + 1 + q
    if k > _KERNEL_SLOTS_MAX:
        raise GasketError(f"a Riemann kernel of {k} slots exceeds the budget of {_KERNEL_SLOTS_MAX}")
    s, t = (side + 2) % 3, (side + 1) % 3
    if n == 0:
        R = [0] * 3**k  # flat index: the slots' corners read as base-3 digits
        R[int(f"{t}" * (p + 1) + f"{s}" * q, 3)] = 1
        R[int(f"{t}" * p + f"{s}" * (q + 1), 3)] = -1
        return tuple(R)
    for level in range(n):  # in increasing order: a cold level recurses one frame, not n
        prev = riemann_kernel(side, p, q, level)
    return tuple(x + y for x, y in zip(_refine_modes(prev, _H5[s], k), _refine_modes(prev, _H5[t], k)))


@lru_cache(maxsize=None)
def q_level_kernel(p: int, r: int, j: int) -> tuple[int, ...]:
    """One cell's share of the Q level sum j levels below it: the sum over
    its 3^j sub-cells and their sides of [L_1⋯L_p(t)·(g(t) - g(s))]·
    [M_1⋯M_r(t)·(k(t) - k(s))], t and s the side's target and source corners.

    Stored like ``riemann_kernel``: dense and flat over {0,1,2}^(p+r+2),
    slots L_1..L_p, g, M_1..M_r, k, scaled by 5^((p+r+2)·j) to integers.
    Each level applies all three letters (5·H_i on every mode) and adds.
    ``forms.q_level_sums`` checks the slot budget before it builds any."""
    d = p + r + 2
    if j == 0:
        K = [0] * 3**d
        for i in range(3):
            t, s = (i + 1) % 3, (i + 2) % 3
            sign = {t: 1, s: -1}
            for a, b in itertools.product((t, s), repeat=2):
                K[int(f"{t}" * p + f"{a}" + f"{t}" * r + f"{b}", 3)] += sign[a] * sign[b]
        return tuple(K)
    for level in range(j):  # in increasing order: a cold level recurses one frame, not j
        prev = q_level_kernel(p, r, level)
    return tuple(map(sum, zip(*(_refine_modes(prev, H, d) for H in _H5))))


# ---------------------------------------------------------------------------
# the limit builder
# ---------------------------------------------------------------------------

def _roots_inside_unit_disc(poly: Sequence[int]) -> bool:
    """Whether every root of the integer polynomial ``poly`` (lowest degree
    first, leading coefficient nonzero) lies strictly inside the unit disc,
    by the Schur–Cohn (Jury) test, fraction-free.  p of degree n >= 1
    passes iff |p(0)| < |p_n| and (p_n·p(x) - p(0)·x^n·p(1/x)) / x passes:
    that is p_n^2 times the step of the monic test (Rouché's theorem on the
    unit circle), of degree n - 1 with leading coefficient p_n^2 - p(0)^2,
    and each step is divided by its content, which keeps the integers short
    (as in Bistritz's fraction-free unit-circle tests).  A constant has no
    roots."""
    while len(poly) > 1:
        a0, an = poly[0], poly[-1]
        if abs(a0) >= abs(an):
            return False
        poly = [an * x - a0 * y for x, y in zip(poly[1:], reversed(poly[:-1]))]
        g = math.gcd(*poly)  # >= 1: the leading coefficient an^2 - a0^2 is not 0
        poly = [x // g for x in poly]
    return True


# the prime of the modular row echelon that finds a recurrence's degree
_PRIME = 2**61 - 1


@lru_cache(maxsize=None)
def _kernel_limit(
    sequence: Callable[..., tuple[int, ...]], shape: tuple[int, ...], rho: Fraction
) -> tuple[int, tuple[int, ...]]:
    """(den, K): the limit of w_j = sequence(*shape, j)·rho^j, entry by entry
    as K/den with den the least common denominator.

    The w_j are a Krylov sequence T^j·w_0 of one refinement operator.  At the
    least d with w_d = sum_j c_j·w_j (j < d) the span of w_0..w_(d-1) is
    T-invariant, so P(x) = x^d - sum_j c_j·x^j annihilates the sequence and
    its recurrence holds for every j.  The sequence converges exactly when 1
    is a simple root of P and every other root lies strictly inside the unit
    disc; then, with P = (x - 1)·P~, the limit is the projection
    P~(T)·w_0 / P~(1) = sum_j p~_j·w_j / P~(1).  Both are checked, the disc
    by the Schur–Cohn test on P~ (``_roots_inside_unit_disc``): GasketError
    when either fails.

    d is found by one incremental row echelon of the integer level kernels
    u_j = w_j / rho^j modulo ``_PRIME``.  Its d pivot coordinates give a
    square system that is nonsingular mod p, so over the rationals too;
    ``solve_unique`` solves it for u_d = sum_j c'_j·u_j, integers by Gauss's
    lemma, and the recurrence is then checked on every coordinate in
    integers.  The rank mod p is at most the rank over the rationals, so a
    bad prime can only make d too small; the solve or the integer check
    refuses that with GasketError, so the builder never returns a wrong
    limit.  With rho = N/R, P scaled by R^d, P~ (by synthetic division)
    and the projection are integers over one denominator.  The limit is
    cached here, so once the levels are read an lru-cached sequence's cache
    is cleared: a cold build keeps only its limit, and a later level sum
    refills the levels it reads."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, row reduced mod p with 1 at its pivot)
    u: list[tuple[int, ...]] = []
    while True:
        u.append(sequence(*shape, len(u)))
        v = [x % _PRIME for x in u[-1]]
        for piv, row in basis:
            f = v[piv]
            if f:
                v = [(a - f * b) % _PRIME for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            break
        inv = pow(v[piv], -1, _PRIME)
        basis.append((piv, [x * inv % _PRIME for x in v]))
    if hasattr(sequence, "cache_clear"):
        sequence.cache_clear()
    d = len(basis)
    *u, ud = u
    pivots = [piv for piv, _ in basis]
    c = solve_unique([[uj[i] for uj in u] for i in pivots], [ud[i] for i in pivots])
    if any(sum(map(operator.mul, c, column)) != y for *column, y in zip(*u, ud)):
        raise GasketError("kernel sequence fails its recurrence in integers: the modular degree is too small")
    # R^d·P, lowest degree first: w_d = sum_j c'_j·rho^(d-j)·w_j
    N, R = rho.numerator, rho.denominator
    poly = [-x * N ** (d - j) * R**j for j, x in enumerate(c)] + [R**d]
    quotient = [sum(poly[k + 1 :]) for k in range(d)]  # R^d·P~, P~ = P / (x - 1) when P(1) = 0
    if sum(poly) != 0 or sum(quotient) == 0:
        raise GasketError("kernel sequence does not converge: 1 is not a simple root of its recurrence")
    if not _roots_inside_unit_disc(quotient):
        raise GasketError("kernel sequence does not converge: its recurrence has a root other than 1 off the open unit disc")
    # K = sum_j q_j·rho^j·u_j / sum_j q_j, scaled by R^(d-1) to integers; the
    # denominator is positive, as P~(1) is R^d times the product of 1 - r
    # over the other roots r, all inside the unit disc
    ints = [q * N**j * R ** (d - 1 - j) for j, q in enumerate(quotient)]
    K = [sum(map(operator.mul, ints, column)) for column in zip(*u)]
    den = R ** (d - 1) * sum(quotient)
    g = math.gcd(den, *K)
    return den // g, tuple(x // g for x in K)


# ---------------------------------------------------------------------------
# the exact kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _int_side_limits(p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, kernels): D times the exact kernel of L_1⋯L_p·dg over the sides
    i = 0, 1, 2, the limits of ``riemann_kernel(i, p, 0, n)`` / 5^((p+1)·n)
    over integers, flat over the slots L_1..L_p, g, with one denominator D.
    Only side 0 is built: turning the cell by i maps side 0 onto side i and
    corner j onto corner j + i, so K_i[j_1..j_k] = K_0[j_1-i..j_k-i] mod 3."""
    D, K0 = _kernel_limit(riemann_kernel, (0, p, 0), Fraction(1, 5 ** (p + 1)))
    turns = [str.maketrans("012", "012"[-i:] + "012"[:-i]) for i in range(3)]  # letter j -> j - i
    return D, tuple(tuple(K0[int(w.translate(turn), 3)] for w in words(p + 1)) for turn in turns)


@lru_cache(maxsize=None)
def _exact_q_kernel(p: int, r: int) -> tuple[int, tuple[int, ...]]:
    """(den, K): K/den is Q on one cell of 0-harmonic data between pieces
    with p and r left factors, flat over the slots of their moment (L_1..L_p,
    g, M_1..M_r, k): the limit of the renormalized level kernels
    (5/3)^j·``q_level_kernel(p, r, j)`` / 5^((p+r+2)·j)."""
    return _kernel_limit(q_level_kernel, (p, r), Fraction(5, 3 * 5 ** (p + r + 2)))


def edge_kernel(side: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact edge-integral kernel X over one canonical side, X[j][k]
    pairing the left factor's corner j with g's corner k: the limit of the
    Riemann kernels ``riemann_kernel(side, 1, 0, n)`` / 25^n, read from
    ``_int_side_limits(1)``."""
    D, kernels = _int_side_limits(1)
    K = kernels[side]
    return tuple(tuple(Fraction(x, D) for x in K[3 * j : 3 * j + 3]) for j in range(3))


def q_kernel() -> tuple[Fraction, ...]:
    """Quadrilinear kernel W with W[f,g,h,k] = Q(f dg, h dk) on 0-harmonic
    basis 4-tuples: the (1, 1) limit ``_exact_q_kernel``."""
    den, K = _exact_q_kernel(1, 1)
    return tuple(Fraction(x, den) for x in K)
