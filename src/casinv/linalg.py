"""Exact linear algebra over Expr entries, and nullspaces modulo a prime.

Everything here is small and dense: pivot blocks of structure matrices and
coefficient systems extracted from closedness conditions.  One Gauss-Jordan
reduction with exact arithmetic serves the determinant and the solve; the
Expr type keeps quotients gcd-reduced at every step, which is what stops
intermediate expression swell.  The sampled closedness systems are reduced
modulo a prime and their nullspace is lifted to the rationals by rational
reconstruction, unchecked: what the callers build from it is certified
exactly downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import EXPR_ONE, EXPR_ZERO, Expr
from .poly import _PRIME

# Wang's bound: a fraction n/d with |n|, d <= _HALF is determined by n/d mod _PRIME
_HALF = math.isqrt(_PRIME // 2)

__all__ = ["det_exact", "solve_exact", "nullspace_fractions", "SingularMatrixError"]


class SingularMatrixError(Exception):
    pass


def _rref(m: list, width: int, is_zero) -> tuple:
    """Reduce m in place to reduced row echelon form over its first `width` columns.

    Rows are pivoted on the first nonzero entry at or below the current row,
    so the pivots are the ones forward elimination finds.  Returns the pivot
    columns and the product of the pivots with one sign flip per row swap
    (the determinant when m is square and every column has a pivot).
    """
    pivots = []
    det = 1
    r = 0
    for c in range(width):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        pv = m[r][c]
        det = det * pv
        inv = 1 / pv
        m[r][c:] = [v * inv for v in m[r][c:]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i][c:] = [vi - f * vr for vi, vr in zip(m[i][c:], m[r][c:])]
        pivots.append(c)
        r += 1
    return pivots, det


def det_exact(rows: list) -> Expr:
    """Determinant of a square Expr matrix."""
    n = len(rows)
    pivots, det = _rref([list(r) for r in rows], n, Expr.is_zero)
    if len(pivots) < n:
        return EXPR_ZERO
    return det if n else EXPR_ONE


def solve_exact(a: list, b: list) -> list:
    """Solve A X = B exactly for Expr matrices.

    `b` is a list of right-hand-side columns (each a list of Exprs); the
    result is the list of solution columns.  Raises SingularMatrixError when
    A is symbolically singular.
    """
    n = len(a)
    m = [list(a[i]) + [col[i] for col in b] for i in range(n)]
    pivots, _ = _rref(m, n, Expr.is_zero)
    if len(pivots) < n:
        missing = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"no pivot in column {missing}")
    return [[m[i][n + j] for i in range(n)] for j in range(len(b))]


def nullspace_fractions(rows: list) -> list:
    """Basis of the right nullspace of a rational matrix, lifted from its RREF mod _PRIME.

    Entries are ints, such as the residues of the sampled closedness rows, or
    Fractions, taken as n * d^-1 mod _PRIME.  There is one tuple of Fractions
    per free column, in column order, with 1 there and 0 at the other free
    columns; its pivot entries are lifted by rational reconstruction, and a
    vector with an entry past Wang's bound is dropped.  Nothing is checked
    against the rows: the result is the canonical RREF basis over Q when the
    rank mod p is the rational rank and every entry is within the bound, and
    otherwise a vector may be missing or wrong.  Callers certify what they
    use (see integrate).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    m = [[v.numerator * pow(v.denominator, -1, _PRIME) % _PRIME for v in row] for row in rows]
    pivots = _rref_mod_p(m, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            if m[ri][fc]:
                v[pc] = _reconstruct(_PRIME - m[ri][fc])
        if None not in v:
            basis.append(tuple(v))
    return basis


def _rref_mod_p(m: list, width: int) -> list:
    """Reduce the int matrix m in place to its RREF mod _PRIME; returns the pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = pow(m[r][c], -1, _PRIME)
        row = m[r] = [v * inv % _PRIME for v in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if f and i != r:
                m[i] = [(a - f * b) % _PRIME for a, b in zip(m[i], row)]
        pivots.append(c)
        r += 1
    return pivots


def _reconstruct(a: int):
    """The Fraction n/d with |n|, d <= _HALF and n = a*d mod _PRIME, or None (Wang)."""
    r0, r1 = _PRIME, a
    t0, t1 = 0, 1
    while r1 > _HALF:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _HALF or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)
