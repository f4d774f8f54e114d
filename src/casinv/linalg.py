"""Exact linear algebra over Expr entries and over plain Fractions.

Everything here is small and dense: pivot blocks of structure matrices and
coefficient systems extracted from closedness conditions.  One Gauss-Jordan
reduction with exact arithmetic serves the determinant, the solve and the
nullspace; the Expr type keeps quotients gcd-reduced at every step, which is
what stops intermediate expression swell.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import EXPR_ONE, EXPR_ZERO, Expr

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
    """
    if not rows:
        return []
    ncols = len(rows[0])
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
