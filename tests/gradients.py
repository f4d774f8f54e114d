"""Test-side reference: are two gradients proportional at sample points?"""

import random

import numpy as np

from casinv.expr import Domain, Expr, VariableSet, sample_values
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
