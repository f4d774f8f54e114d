"""Test-side references: proportional gradients, random Hamiltonians, monomial degrees."""

import random
from fractions import Fraction

import numpy as np

from casinv.expr import EXPR_ZERO, Domain, Expr, VariableSet, number, sample_values, symbol
from casinv.verify import VerificationError, gradient, numeric_rank


def gradients_parallel(
    a: Expr,
    b: Expr,
    symbols: VariableSet,
    domain: Domain | None = None,
    points: int = 10,
    tol: float = 1e-9,
    seed: int = 0,
) -> bool:
    """True when grad(a) and grad(b) are proportional at every sample point."""
    grads = gradient(a, symbols) + gradient(b, symbols)
    rng = random.Random(f"parallel:{seed}")
    done = 0
    for v in sample_values(grads, symbols, domain, rng, points):
        done += 1
        if numeric_rank(np.array(v).reshape(2, symbols.n), tol) != 1:
            return False
    if done == 0:
        raise VerificationError("no usable sample points for the parallel check")
    return True


def random_polynomial_hamiltonian(
    symbols: VariableSet, rng: random.Random, max_degree: int = 2
) -> Expr:
    """Random polynomial of degree <= 2 with small coefficients (|c| <= 1/4).

    Small coefficients keep random trajectories from blowing up inside the
    integration window, which would poison drift measurements.
    """
    names = symbols.variables
    total = EXPR_ZERO
    monos = [(i,) for i in range(len(names))]
    if max_degree >= 2:
        monos += [(i, j) for i in range(len(names)) for j in range(i, len(names))]
    for m in monos:
        c = Fraction(rng.randint(-4, 4), 16)
        if not c:
            continue
        term = number(c)
        for i in m:
            term = term * symbol(names[i])
        total = total + term
    if total.is_zero():
        total = symbol(names[0]) * number(Fraction(1, 16))
    return total


def mono_degree(m) -> int:
    """Total degree of a monomial given as (atom, exponent) pairs."""
    return sum(e for _, e in m)
