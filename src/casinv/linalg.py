"""Exact linear algebra over Expr entries, and nullspaces modulo a prime.

Everything here is small: pivot blocks of structure matrices and
coefficient systems extracted from closedness conditions.  A pivot block is
a principal block of a skew matrix, so it is skew, and its determinant and
solve split over the connected components of its nonzero pattern.  A
component's determinant is its Pfaffian squared, and its solve goes through
the Pfaffians of its minors (the adjugate).  Both come from one zero-skipping
row expansion with no division, so for polynomial entries no gcd runs until
the one division by the Pfaffian.  A singular skew matrix is reported from a
zero Pfaffian, and a matrix that is not skew is refused.  On a dense
component the expansion's cost grows exponentially with its size (a dense
20-row block of entries c*x_i*x_j takes seconds).  The sampled
closedness systems are reduced modulo a prime and their nullspace is lifted
to the rationals by rational reconstruction, unchecked: what the callers
build from it is certified exactly downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import EXPR_ONE, EXPR_ZERO, Expr, sum_products
from .poly import _PRIME

# Wang's bound: a fraction n/d with |n|, d <= _HALF is determined by n/d mod _PRIME
_HALF = math.isqrt(_PRIME // 2)

__all__ = ["det_exact", "solve_exact", "nullspace_fractions", "SingularMatrixError"]


class SingularMatrixError(Exception):
    pass


def det_exact(rows: list, pfaffians: dict | None = None) -> Expr:
    """Determinant of a square skew Expr matrix; ValueError if it is not skew.

    `pfaffians`, when given, is filled with the components of the matrix's
    nonzero pattern and the Pfaffians of the principal blocks the expansion
    met, by index tuple; solve_exact on the same matrix takes it and neither
    scans the pattern nor expands those blocks again.
    """
    pfaffians = {} if pfaffians is None else pfaffians
    det = EXPR_ONE
    for c in _components(rows, pfaffians):
        pf = EXPR_ZERO if len(c) % 2 else _pfaffian(rows, tuple(c), pfaffians)
        if pf.is_zero():
            return EXPR_ZERO
        det = det * (pf * pf)
    return det


def solve_exact(a: list, b: list, pfaffians: dict | None = None) -> list:
    """Solve A X = B exactly for a skew Expr matrix A.

    `b` is a list of right-hand-side columns (each a list of Exprs); the
    result is the list of solution columns.  `pfaffians` is det_exact's memo
    of A's components and Pfaffians, if there is one; it is extended here.
    Raises SingularMatrixError when A is symbolically singular, and
    ValueError when A is not skew (unless det_exact took A's memo first).
    """
    pfaffians = {} if pfaffians is None else pfaffians
    cols = [[EXPR_ZERO] * len(a) for _ in b]
    for c in _components(a, pfaffians):
        _solve_pfaffian(a, b, c, cols, pfaffians)
    return cols


def _components(a: list, memo: dict) -> list:
    """_skew_components of a, kept in the Pfaffian memo under the key "components"."""
    comps = memo.get("components")
    if comps is None:
        comps = memo["components"] = _skew_components(a)
    return comps


def _skew_components(a: list):
    """The connected components of a skew matrix's nonzero pattern.

    Each component is an ascending list of indices, and the components are
    ordered by their least index.  A skew matrix is block diagonal over its
    components after a symmetric permutation, which leaves the determinant
    unchanged and splits a solve into one solve per component.  Raises
    ValueError, naming the first offending entry, when a is not skew.
    """
    n = len(a)
    nbrs = [[] for _ in range(n)]
    for i in range(n):
        if not a[i][i].is_zero():
            raise ValueError(f"not skew: entry ({i}, {i}) is nonzero")
        for j in range(i + 1, n):
            e = a[i][j]
            if e.is_zero():
                if a[j][i].is_zero():
                    continue
            elif a[j][i] == -e:
                nbrs[i].append(j)
                nbrs[j].append(i)
                continue
            raise ValueError(f"not skew: entries ({i}, {j}) and ({j}, {i}) do not cancel")
    comps = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, todo = [s], [s]
        while todo:
            for j in nbrs[todo.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def _pfaffian(a: list, idx: tuple, memo: dict) -> Expr:
    """Pf of the principal block of the skew matrix a on the ascending indices idx.

    Expands along the block's first row, Pf = sum_k (-1)^k a[i][j_k] Pf(idx
    without i, j_k) over the other indices j_k (k from 0), as one
    sum_products, which skips zero minors.  A zero entry's minor is not
    expanded.  Each minor's Pfaffian is memoised on its index tuple, so the
    minors a caller asks for share their subexpansions.
    """
    if not idx:
        return EXPR_ONE
    got = memo.get(idx)
    if got is not None:
        return got
    row, rest = a[idx[0]], idx[1:]
    pf = memo[idx] = sum_products(
        (-row[j] if k % 2 else row[j], _pfaffian(a, rest[:k] + rest[k + 1 :], memo))
        for k, j in enumerate(rest)
        if not row[j].is_zero()
    )
    return pf


def _adjugate(a: list, idx: tuple, memo: dict) -> list:
    """The skew matrix N of the block of a on idx with A N = -Pf I.

    N[k][l] = (-1)^(k+l+1) Pf(idx without its k-th and l-th index) for k < l
    (0-based positions in idx), and N[l][k] = -N[k][l].
    """
    m = len(idx)
    adj = [[EXPR_ZERO] * m for _ in range(m)]
    for k in range(m):
        for l in range(k + 1, m):
            minor = _pfaffian(a, idx[:k] + idx[k + 1 : l] + idx[l + 1 :], memo)
            if not minor.is_zero():
                adj[k][l] = minor if (k + l) % 2 else -minor
                adj[l][k] = -adj[k][l]
    return adj


def _solve_pfaffian(a: list, b: list, c: list, cols: list, memo: dict) -> None:
    """Solve the component c of the skew system A X = B into c's slots of cols.

    A N = -Pf I and N is skew, so A^-1 = N^T / Pf on the component: no
    elimination, and the one division is by Pf.  Each entry of N^T B is one
    sum_products, so an entry that cancels runs no gcd.
    """
    idx = tuple(c)
    pf = EXPR_ZERO if len(c) % 2 else _pfaffian(a, idx, memo)
    if pf.is_zero():
        raise SingularMatrixError(f"zero Pfaffian on the component with rows {c}")
    adj = _adjugate(a, idx, memo)
    inv = EXPR_ONE / pf
    for out, col in zip(cols, b):
        rhs = [(adj[l], col[i]) for l, i in enumerate(c) if not col[i].is_zero()]
        for k, i in enumerate(c):
            acc = sum_products((row[k], v) for row, v in rhs)
            if not acc.is_zero():
                out[i] = acc * inv


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
