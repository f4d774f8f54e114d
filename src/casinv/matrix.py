"""Structure matrices: skewness, the Jacobi identity, rank, pivot blocks.

A StructureMatrix holds the n x n matrix of bracket coefficients J[i][j] as
exact expressions.  Three facts about it drive everything downstream:

* it must be skew-symmetric and satisfy the Jacobi identity (checked here),
* its rank 2m is even and generically constant, found by sampling,
* some 2m x 2m principal block is invertible; the rows outside that block
  are the dependent ones whose degeneracy relations yield the invariants.

Row/column indices are 0-based internally.  Everything user-facing (reports,
error messages, returned row labels) is 1-based, matching the way systems
are written down in the input files.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .expr import (
    Domain,
    EXPR_ONE,
    EXPR_ZERO,
    Expr,
    VariableSet,
    ZeroVerdict,
    differentiate,
    sample_values,
    zero_verdict,
)
from .linalg import det_exact

__all__ = [
    "StructureError",
    "RankInstabilityError",
    "PivotCertificationError",
    "SkewViolation",
    "JacobiFailure",
    "JacobiReport",
    "PivotDecomposition",
    "StructureMatrix",
]


CANDIDATE_BUDGET = 5000  # decompose enumerates at most this many principal blocks


class StructureError(Exception):
    pass


class RankInstabilityError(StructureError):
    pass


class PivotCertificationError(StructureError):
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
    rank_samples: tuple

    @property
    def pivot_rows_1based(self) -> tuple:
        return tuple(i + 1 for i in self.pivot_rows)

    @property
    def dependent_rows_1based(self) -> tuple:
        return tuple(i + 1 for i in self.dependent_rows)


def numeric_rank(m: np.ndarray, tol: float):
    """Singular values above tol times the largest; a block is invertible at full rank.

    A stack of matrices (k, r, c) gets one SVD call and an array of k ranks.
    """
    s = np.linalg.svd(m, compute_uv=False)
    ranks = np.sum(s > tol * s[..., :1], axis=-1)
    return ranks if m.ndim > 2 else int(ranks)


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

    def entry(self, i: int, j: int) -> Expr:
        return self.rows[i][j]

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
        negated derivatives.  A triple whose sum is exactly zero is proved
        and draws no sample point.
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

        failures = []
        sampled = []
        for i, j, k in itertools.combinations(range(n), 3):
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

    def _rank_profile(self, samples: int, tol: float, seed: int):
        n = self.n
        rng = random.Random(f"structure-sample:{seed}")
        entries = [e for row in self.rows for e in row]
        draws = sample_values(entries, self.symbols, self.domain, rng, 50 * max(samples, 1))
        mats = [np.array(v).reshape(n, n) for _, v in itertools.islice(draws, samples)]
        if len(mats) < samples:
            raise StructureError("could not sample points where the matrix is regular")
        ranks = [numeric_rank(m, tol) for m in mats]
        counts = Counter(ranks)
        best, cnt = counts.most_common(1)[0]
        if cnt * 2 <= len(ranks):
            raise RankInstabilityError(
                f"numeric rank is unstable across sample points: {sorted(counts.items())}"
            )
        if best % 2:
            raise RankInstabilityError(
                f"numeric rank {best} is odd; a skew-symmetric matrix has even rank "
                "(tolerance or domain trouble)"
            )
        return best, tuple(ranks), mats

    def decompose(
        self,
        samples: int = 7,
        tol: float = 1e-9,
        seed: int = 0,
    ) -> PivotDecomposition:
        """Find the rank and a certified invertible principal block.

        Among all numerically invertible principal blocks of size rank we
        prefer the structurally simplest one: fewest symbolically nonzero
        entries, then fewest monomials, then lowest row indices.  That keeps
        the degeneracy relations (and hence the invariants) as plain as the
        matrix allows.  The winner's determinant is certified symbolically;
        candidates whose determinant cannot be certified nonzero are skipped.

        When C(n, rank) exceeds CANDIDATE_BUDGET, a greedy pass grows the
        block two rows at a time instead of enumerating.
        """
        rank, ranks, mats = self._rank_profile(samples, tol, seed)
        n = self.n
        if rank == 0:
            return PivotDecomposition(0, (), tuple(range(n)), (), EXPR_ONE, ranks)

        if math.comb(n, rank) <= CANDIDATE_BUDGET:
            candidates = itertools.combinations(range(n), rank)
        else:
            candidates = [self._greedy_pivot(mats, rank, tol)]

        stack = np.stack(mats)
        scored = []
        for subset in candidates:
            rows, cols = np.ix_(subset, subset)
            good = int(np.sum(numeric_rank(stack[:, rows, cols], tol) == rank))
            if good * 2 <= len(mats):
                continue
            sym = [[self.rows[p][q] for q in subset] for p in subset]
            nnz = sum(1 for row in sym for e in row if not e.is_zero())
            monos = sum(e.monomial_count() for row in sym for e in row if not e.is_zero())
            scored.append(((nnz, monos, subset), subset, sym))
        if not scored:
            raise PivotCertificationError(
                f"no numerically invertible {rank}x{rank} principal block found"
            )
        scored.sort(key=lambda t: t[0])

        for _, subset, sym in scored:
            det = det_exact(sym)
            if det.is_zero():
                continue
            v = zero_verdict(det, self.symbols, self.domain, rng=random.Random(f"pivot:{seed}"))
            if v.is_nonzero:
                chosen = set(subset)
                dep = tuple(i for i in range(n) if i not in chosen)
                return PivotDecomposition(
                    rank=rank,
                    pivot_rows=tuple(subset),
                    dependent_rows=dep,
                    pivot_block=tuple(tuple(r) for r in sym),
                    pivot_det=det,
                    rank_samples=ranks,
                )
        raise PivotCertificationError(
            "every numerically invertible principal block failed symbolic certification"
        )

    def _greedy_pivot(self, mats, rank: int, tol: float) -> tuple:
        """Grow a principal block two rows at a time (odd skew blocks are singular)."""
        m = mats[0]
        n = self.n
        row_nnz = [sum(1 for e in self.rows[i] if not e.is_zero()) for i in range(n)]
        chosen: list = []
        while len(chosen) < rank:
            found = None
            pairs = itertools.combinations((i for i in range(n) if i not in chosen), 2)
            for i, j in sorted(pairs, key=lambda p: (row_nnz[p[0]] + row_nnz[p[1]], p)):
                trial = sorted(chosen + [i, j])
                if numeric_rank(m[np.ix_(trial, trial)], tol) == len(trial):
                    found = (i, j)
                    break
            if found is None:
                raise PivotCertificationError(
                    f"greedy pivot growth stalled at size {len(chosen)} (target {rank})"
                )
            chosen = sorted(chosen + list(found))
        return tuple(chosen)
