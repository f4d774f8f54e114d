"""Degeneracy relations: dependent rows as combinations of pivot rows.

With an invertible pivot block J[p][q] (p, q over the pivot rows) in hand,
every dependent row i of the structure matrix satisfies

    J[i][j] = sum_k gamma[i][k] * J[k][j]        for all columns j,

with k running over the pivot rows.  Restricting j to the pivot columns
gives a square linear system that pins gamma down.  The relation is kept as
the vector w_i = e_i - sum_k gamma[i][k] e_k, the coefficients of row i's
Pfaffian form w_i . dx: for a skew J the relation says J w_i = 0, so w_i is
a kernel vector of J, just as grad(C) is for a Casimir C.  The columns
outside the pivot block are then a theorem, not a choice, so we recheck
J w_i = 0 on all n components and refuse to hand back coefficients that
fail anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import EXPR_ONE, EXPR_ZERO, Expr, zero_verdict
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
    """The degeneracy relations, one kernel vector of J per dependent row (0-based).

    forms[d] belongs to dependent_rows[d]: 1 in its own slot, -gamma[i][k]
    in pivot slot k, 0 elsewhere.  At rank 0 every row is dependent and its
    form is a unit vector.
    """

    pivot_rows: tuple
    dependent_rows: tuple
    forms: tuple  # one n-tuple of Exprs per dependent row
    sampled_columns: tuple  # (dep+1, col+1) pairs certified only numerically
    # the nonzero components of J * w_i the certificate checked, form by form
    # in component order; verify.degeneracy_residual samples them
    products: tuple

    def coefficient(self, dep: int, pivot: int) -> Expr:
        return -self.forms[self.dependent_rows.index(dep)][pivot]

    def items_1based(self):
        """((dep, pivot), coefficient) with 1-based indices, deterministic order."""
        for dep, w in zip(self.dependent_rows, self.forms):
            for k in self.pivot_rows:
                yield (dep + 1, k + 1), -w[k]


def solve_gamma(
    mat: StructureMatrix,
    decomp: PivotDecomposition,
    samples: int = 20,
    tol: float = 1e-9,
    seed: int = 0,
) -> GammaMatrix:
    """Solve for the degeneracy coefficients and certify them on every column.

    mat must be skew (as every from_upper matrix is): the residual of row
    i's relation at column j, J[i][j] - sum_k gamma[i][k] J[k][j], is then
    -(J w_i)[j], and that is what is certified.
    """
    pivots = decomp.pivot_rows
    deps = decomp.dependent_rows
    r = decomp.rank
    solutions = [()] * len(deps)
    if r and deps:
        # unknowns x_k per dependent row: sum_k J[k][q] x_k = J[i][q] for pivot
        # columns q, a system in the transposed pivot block A^T = -A; solved as
        # A x = -J[i][pivots] on the block itself, with decompose's Pfaffians
        rhs = [[-mat.rows[i][q] for q in pivots] for i in deps]
        try:
            solutions = solve_exact(decomp.pivot_block, rhs, decomp._pfaffians)
        except SingularMatrixError as e:
            # cannot happen with a certified pivot determinant; keep the trail anyway
            raise GammaCertificationError(
                deps[0] + 1, 0, f"pivot block went singular during the solve: {e}"
            ) from e

    forms = []
    for i, sol in zip(deps, solutions):
        w = [EXPR_ZERO] * mat.n
        w[i] = EXPR_ONE
        for k, g in zip(pivots, sol):
            if not g.is_zero():
                w[k] = -g
        forms.append(tuple(w))

    # certification on all n columns; at rank 0 this checks that J's columns vanish
    sampled, products = [], []
    for i, w in zip(deps, forms):
        for j, jw in enumerate(mat.apply(w)):
            if jw.is_zero():
                continue
            products.append(jw)
            residual = -jw
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
    return GammaMatrix(pivots, deps, tuple(forms), tuple(sampled), tuple(products))
