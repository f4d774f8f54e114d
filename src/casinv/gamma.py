"""Degeneracy relations: dependent rows as combinations of pivot rows.

With an invertible pivot block J[p][q] (p, q over the pivot rows) in hand,
every dependent row i of the structure matrix satisfies

    J[i][j] = sum_k gamma[i][k] * J[k][j]        for all columns j,

with k running over the pivot rows.  Restricting j to the pivot columns
gives a square linear system that pins gamma down; the remaining columns
are then a theorem, not a choice, so we recheck the relation on all n
columns and refuse to hand back coefficients that fail anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import Expr, zero_verdict
from .linalg import SingularMatrixError, solve_exact
from .matrix import PivotDecomposition, StructureMatrix

__all__ = ["GammaCertificationError", "GammaMatrix", "solve_gamma"]


class GammaCertificationError(Exception):
    def __init__(self, dep_row: int, col: int, message: str):
        super().__init__(message)
        self.dep_row = dep_row  # 1-based
        self.col = col


@dataclass(frozen=True)
class GammaMatrix:
    """Coefficients gamma[i][k] tying dependent row i to pivot row k (0-based keys)."""

    pivot_rows: tuple
    dependent_rows: tuple
    coeffs: dict  # (dep, pivot) -> Expr
    sampled_columns: tuple  # (dep+1, col+1) pairs certified only numerically

    def coefficient(self, dep: int, pivot: int) -> Expr:
        return self.coeffs[(dep, pivot)]

    def items_1based(self):
        """((dep, pivot), coefficient) with 1-based indices, deterministic order."""
        for dep in self.dependent_rows:
            for k in self.pivot_rows:
                yield (dep + 1, k + 1), self.coeffs[(dep, k)]


def solve_gamma(
    mat: StructureMatrix,
    decomp: PivotDecomposition,
    samples: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> GammaMatrix:
    """Solve for the degeneracy coefficients and certify them on every column."""
    pivots = decomp.pivot_rows
    deps = decomp.dependent_rows
    r = decomp.rank
    if r == 0 or not deps:
        return GammaMatrix(pivots, deps, {}, ())

    # unknowns x_k per dependent row: sum_k J[k][q] x_k = J[i][q] for pivot
    # columns q; the coefficient matrix is the transposed pivot block
    a_t = [[decomp.pivot_block[k][q] for k in range(r)] for q in range(r)]
    rhs = [[mat.rows[i][q] for q in pivots] for i in deps]
    try:
        solutions = solve_exact(a_t, rhs)
    except SingularMatrixError as e:
        # cannot happen with a certified pivot determinant; keep the trail anyway
        raise GammaCertificationError(
            deps[0] + 1, 0, f"pivot block went singular during the solve: {e}"
        ) from e

    coeffs = {}
    for di, i in enumerate(deps):
        for ki, k in enumerate(pivots):
            coeffs[(i, k)] = solutions[di][ki]

    # certification on all n columns
    sampled = []
    for i in deps:
        for j in range(mat.n):
            residual = mat.rows[i][j]
            for k in pivots:
                residual = residual - coeffs[(i, k)] * mat.rows[k][j]
            if residual.is_zero():
                continue
            rng = random.Random(f"gamma-cert:{seed}:{i}:{j}")
            v = zero_verdict(
                residual, mat.symbols, mat.domain, samples=samples, tol=tol, rng=rng
            )
            if v.is_nonzero:
                raise GammaCertificationError(
                    i + 1,
                    j + 1,
                    f"degeneracy relation for row {i + 1} breaks at column {j + 1}: "
                    f"residual {residual} is not zero",
                )
            sampled.append((i + 1, j + 1))
    return GammaMatrix(pivots, deps, coeffs, tuple(sampled))
