"""Exact linear algebra over Expr entries and over plain Fractions.

Everything here is small and dense: pivot blocks of structure matrices and
coefficient systems extracted from closedness conditions.  One Gauss-Jordan
reduction with exact arithmetic serves the determinant and the solve; the
Expr type keeps quotients gcd-reduced at every step, which is what stops
intermediate expression swell.  The rational nullspace is computed modulo a
prime and each basis vector is then checked exactly against every row, which
certifies it as the canonical one; the exact reduction is its fallback when
that certificate cannot be given.
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
    """Basis of the right nullspace of a Fraction matrix.

    Returns tuples, one per free column of the reduced row echelon form,
    ordered by free-column index.  The basis is the canonical RREF one: each
    vector has a 1 in its own free column and zeros in the others.

    The rows are scaled to integers (which keeps the nullspace) and reduced
    mod _PRIME.  A nonzero minor mod p is nonzero over Z, so rank_p <= rank_Q:
    full rank mod p proves the nullspace trivial.  Otherwise each free
    column's RREF vector mod p is lifted entry by entry by rational
    reconstruction and checked exactly against every integer row.  When all
    ncols - rank_p vectors pass, they are independent kernel vectors, so
    nullity_Q = nullity_p and they span the kernel.  Each vector's last
    nonzero entry sits in its own free column, so these are free columns
    over Q as well, the same ones, and each vector is the unique kernel
    vector with a 1 in its free column and 0 in the others: the canonical
    RREF basis over Q.  A row denominator divisible by p, a failed
    reconstruction or a failed check falls back to the exact reduction.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ints = []
    for row in rows:
        dens = [v.denominator for v in row]
        scale = math.lcm(*dens)
        if scale % _PRIME == 0:
            # the entries that carry the factor p vanish mod p, so the image
            # would likely lose rank and fail the check below
            return _nullspace_rref(rows, ncols)
        ints.append([v.numerator * (scale // d) for v, d in zip(row, dens)])
    m = [[v % _PRIME for v in row] for row in ints]
    pivots = _rref_mod_p(m, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            if m[ri][fc]:
                q = _reconstruct(_PRIME - m[ri][fc])
                if q is None:
                    return _nullspace_rref(rows, ncols)
                v[pc] = q
        scale = math.lcm(*(q.denominator for q in v))
        w = [q.numerator * (scale // q.denominator) for q in v]
        if any(sum(a * b for a, b in zip(row, w)) for row in ints):
            return _nullspace_rref(rows, ncols)
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


def _nullspace_rref(rows: list, ncols: int) -> list:
    """nullspace_fractions by Gauss-Jordan over Fractions: the fallback and the reference."""
    m = [list(r) for r in rows]
    pivots, _ = _rref(m, ncols, lambda v: v == 0)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(tuple(v))
    return basis
