"""Structure matrices: skewness, the Jacobi identity, rank, pivot blocks.

A StructureMatrix holds the n x n matrix of bracket coefficients J[i][j] as
exact expressions.  Three facts about it drive everything downstream:

* it must be skew-symmetric and satisfy the Jacobi identity (checked here),
* its rank 2m is even and generically constant,
* some 2m x 2m principal block is invertible; the rows outside that block
  are the dependent ones whose degeneracy relations yield the invariants.

The rank and the block are decided modulo the prime p = 2^31 - 1 at one
random point, with no tolerance (see decompose); the chosen block's
determinant is then certified exactly.

Row/column indices are 0-based internally.  Everything user-facing (reports,
error messages, returned row labels) is 1-based, matching the way systems
are written down in the input files.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass

from .expr import (
    Domain,
    EXPR_ONE,
    EXPR_ZERO,
    Expr,
    VariableSet,
    ZeroVerdict,
    differentiate,
    residue,
    sample_points,
    zero_verdict,
)
from .linalg import _rref_mod_p, det_exact
from .poly import _PRIME

__all__ = [
    "StructureError",
    "SkewViolation",
    "JacobiFailure",
    "JacobiReport",
    "PivotDecomposition",
    "StructureMatrix",
]


CANDIDATE_BUDGET = 5000  # decompose enumerates at most this many principal blocks


class StructureError(Exception):
    pass


@dataclass(frozen=True)
class SkewViolation:
    row: int  # 1-based
    col: int
    residual: Expr


@dataclass(frozen=True)
class JacobiFailure:
    triple: tuple[int, int, int]  # 1-based
    verdict: ZeroVerdict


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triples_checked: int
    failures: tuple
    sampled_only: tuple  # triples passed only by sampling (ln atoms in play)


@dataclass(frozen=True)
class PivotDecomposition:
    rank: int
    pivot_rows: tuple  # 0-based, ascending
    dependent_rows: tuple
    pivot_block: tuple  # rank x rank tuple of Exprs
    pivot_det: Expr

    @property
    def pivot_rows_1based(self) -> tuple:
        return tuple(i + 1 for i in self.pivot_rows)

    @property
    def dependent_rows_1based(self) -> tuple:
        return tuple(i + 1 for i in self.dependent_rows)


class StructureMatrix:
    """Skew matrix of bracket coefficients over a variable set."""

    def __init__(self, symbols: VariableSet, rows, domain: Domain | None = None, name: str = ""):
        n = symbols.n
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructureError(f"matrix must be {n}x{n} to match the {n} variables")
        self.symbols = symbols
        self.rows = rows
        self.domain = domain or Domain()
        self.name = name

    @classmethod
    def from_upper(
        cls,
        symbols: VariableSet,
        upper: dict,
        domain: Domain | None = None,
        name: str = "",
    ) -> "StructureMatrix":
        """Build the full skew matrix from entries J[i][j] with 1 <= i < j <= n."""
        n = symbols.n
        grid = [[EXPR_ZERO for _ in range(n)] for _ in range(n)]
        for (i, j), e in upper.items():
            if not (1 <= i < j <= n):
                raise StructureError(
                    f"entry J[{i}][{j}] is out of place: need 1 <= i < j <= {n} "
                    "(only the upper triangle is given, the rest is implied)"
                )
            grid[i - 1][j - 1] = e
            grid[j - 1][i - 1] = -e
        return cls(symbols, grid, domain, name)

    @property
    def n(self) -> int:
        return self.symbols.n

    def apply(self, vec) -> tuple:
        """J * vec, each component summed in column order.

        Only products of two nonzero factors are formed.  This is the one
        matrix-vector product: J * grad(C) for the bracket components, and
        J * w_i for the degeneracy relations, whose forms w_i are kernel
        vectors of J.
        """
        live = [(j, v) for j, v in enumerate(vec) if not v.is_zero()]
        out = []
        for row in self.rows:
            acc = EXPR_ZERO
            for j, v in live:
                if not row[j].is_zero():
                    acc = acc + row[j] * v
            out.append(acc)
        return tuple(out)

    # -- structural checks -----------------------------------------------------

    def check_skew(self) -> list:
        """Violations of J[i][j] = -J[j][i] (empty list means skew)."""
        out = []
        for i in range(self.n):
            for j in range(i, self.n):
                r = self.rows[i][j] + self.rows[j][i] if i != j else self.rows[i][i]
                if not r.is_zero():
                    out.append(SkewViolation(i + 1, j + 1, r))
        return out

    def jacobi_report(self, samples: int = 20, tol: float = 1e-9, seed: int = 0) -> JacobiReport:
        """Check the Jacobi identity over every index triple of a skew matrix.

        The sum for the triple (i, j, k) runs over l:
        J[l][i] dJ[j][k]/dx_l + J[l][j] dJ[k][i]/dx_l + J[l][k] dJ[i][j]/dx_l.
        Only terms with both factors nonzero are formed.  Each nonzero upper
        entry is differentiated once; its mirror J[b][a] = -J[a][b] takes the
        negated derivatives.  Only triples with some such term are visited; a
        triple whose sum is exactly zero is proved and draws no sample point.
        """
        n = self.n
        names = self.symbols.variables
        grads = {}  # (a, b) -> {l: dJ[a][b]/dx_l}, nonzero derivatives only
        for a, b in itertools.combinations(range(n), 2):
            e = self.rows[a][b]
            if e.is_zero():
                continue
            d = {}
            for l, name in enumerate(names):
                g = differentiate(e, name, self.symbols)
                if not g.is_zero():
                    d[l] = g
            grads[(a, b)] = d
            grads[(b, a)] = {l: -g for l, g in d.items()}
        cols = [
            {l: self.rows[l][c] for l in range(n) if not self.rows[l][c].is_zero()}
            for c in range(n)
        ]
        # a triple has a term only if, for one of its pairs (a, b) and its third
        # index c, some l has dJ[a][b]/dx_l != 0 and J[l][c] != 0
        live = {
            tuple(sorted((a, b, c)))
            for (a, b), d in grads.items()
            for c, col in enumerate(cols)
            if c not in (a, b) and not col.keys().isdisjoint(d)
        }

        failures = []
        sampled = []
        for i, j, k in sorted(live):
            terms = []
            for pos, (c, pair) in enumerate(((i, (j, k)), (j, (k, i)), (k, (i, j)))):
                col = cols[c]
                terms += [(l, pos, col[l], g) for l, g in grads.get(pair, {}).items() if l in col]
            # added by l, then i, j, k: every order gives the same canonical
            # sum, but this one keeps the partial sums as small as the dense loop's
            terms.sort(key=lambda t: t[:2])
            s = EXPR_ZERO
            for _, _, e, g in terms:
                s = s + e * g
            if s.is_zero():
                continue
            rng = random.Random(f"jacobi:{seed}:{i}:{j}:{k}")
            v = zero_verdict(s, self.symbols, self.domain, samples=samples, tol=tol, rng=rng)
            if v.is_nonzero:
                failures.append(JacobiFailure((i + 1, j + 1, k + 1), v))
            elif v.status == "probably-zero":
                sampled.append((i + 1, j + 1, k + 1))
        return JacobiReport(
            ok=not failures,
            triples_checked=math.comb(n, 3),
            failures=tuple(failures),
            sampled_only=tuple(sampled),
        )


    # -- rank and pivot selection ------------------------------------------------

    def decompose(self, seed: int = 0) -> PivotDecomposition:
        """Find the rank and a certified invertible principal block.

        J is taken mod _PRIME at one random point (ln atoms take random
        residues; a point with a pole mod _PRIME is skipped), and _grow's
        elimination gives its rank r and a greedy invertible block.  Among
        the blocks of size r with a nonzero residue minor we prefer the
        structurally simplest: fewest symbolically nonzero entries, then
        fewest monomials, then lowest row indices.  That keeps the degeneracy
        relations (and hence the invariants) as plain as the matrix allows.
        When C(n, r) exceeds CANDIDATE_BUDGET the grown block is the only
        candidate.  The first candidate whose determinant certifies wins.

        A minor that is nonzero at a random point is a nonzero function
        (Schwartz-Zippel), so for ln-free J the first candidate certifies.
        With ln atoms the residue rank can exceed the rank (ln(x*y) - ln(x)
        - ln(y) is a nonzero canonical form): if no block of size r
        certifies, r - 2 is tried, down to rank 0.  A block that is too
        small fails solve_gamma's check of J w_i = 0 on every column; at
        rank 0, casimir_check's check of J grad(x_i).  A determinant that no
        point of the domain can evaluate raises.
        """
        n = self.n

        def residues(point):
            s = [[0 if e.is_zero() else residue(e, point, rng) for e in row] for row in self.rows]
            if any((s[i][j] + s[j][i]) % _PRIME for i in range(n) for j in range(i, n)):
                raise StructureError("the matrix is not skew-symmetric at a sample point")
            return s

        rng = random.Random(f"structure-sample:{seed}")
        s = next(sample_points(self.symbols, self.domain, rng, 1, residues, exact=_PRIME), None)
        if s is None:
            raise StructureError("could not sample points where the matrix is regular")
        nnz = [[int(not e.is_zero()) for e in row] for row in self.rows]
        monos = [[0 if e.is_zero() else e.monomial_count() for e in row] for row in self.rows]
        row_nnz = [sum(row) for row in nnz]
        order = sorted(
            itertools.combinations(range(n), 2), key=lambda p: (row_nnz[p[0]] + row_nnz[p[1]], p)
        )
        pairs = _grow([list(row) for row in s], order)

        def key(subset):
            pick = operator.itemgetter(*subset)
            return (
                sum([sum(pick(nnz[p])) for p in subset]),
                sum([sum(pick(monos[p])) for p in subset]),
                subset,
            )

        for r in range(2 * len(pairs), 0, -2):
            if math.comb(n, r) <= CANDIDATE_BUDGET:
                candidates = sorted(itertools.combinations(range(n), r), key=key)
            else:
                candidates = [tuple(sorted(itertools.chain(*pairs[: r // 2])))]
            for subset in candidates:
                if len(_rref_mod_p([[s[p][q] for q in subset] for p in subset], r)) < r:
                    continue
                sym = tuple(tuple(self.rows[p][q] for q in subset) for p in subset)
                det = det_exact(sym)
                if det.is_zero():
                    continue
                v = zero_verdict(det, self.symbols, self.domain, rng=random.Random(f"pivot:{seed}"))
                if v.is_nonzero:
                    dep = tuple(i for i in range(n) if i not in subset)
                    return PivotDecomposition(r, subset, dep, sym, det)
                if not v.samples:
                    raise StructureError("could not sample points where the matrix is regular")
        return PivotDecomposition(0, (), tuple(range(n)), (), EXPR_ONE)


def _grow(s: list, order) -> list:
    """The pairs that symplectic elimination of the skew residue matrix s takes, in order.

    Each step takes the first pair (i, j) in `order` with s[i][j] != 0 and
    replaces s, in place, by its Schur complement against the 2x2 block on
    i, j, which zeroes rows and columns i and j.  The principal block on the
    pairs taken before plus (i, j) is invertible exactly when s[i][j] != 0
    there, so this grows the greedy block two rows at a time (odd skew
    blocks are singular), and the rank of s is 2 * len(pairs).
    """
    pairs = []
    while (ij := next(((i, j) for i, j in order if s[i][j]), None)) is not None:
        i, j = ij
        pairs.append(ij)
        inv = pow(s[i][j], -1, _PRIME)
        si, sj = s[i], s[j]
        for r, row in enumerate(s):
            if row[i] or row[j]:
                a, b = row[j] * inv % _PRIME, row[i] * inv % _PRIME
                s[r] = [(v - a * x + b * y) % _PRIME for v, x, y in zip(row, si, sj)]
    return pairs
