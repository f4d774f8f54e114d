"""Verification: is a claimed invariant actually conserved?

Three independent lines of evidence, none of which shares machinery with
the solver that produced the candidate:

* symbolic: every component of J * grad(C) must vanish identically,
* numeric residuals: the same components sampled at random points,
* dynamic: RK4 trajectories of x' = J * grad(H) must hold C constant to
  tight drift, for the system's own Hamiltonian and for random ones.

Gradient-rank helpers used for independence checks live here too.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .expr import (
    Domain,
    EXPR_ZERO,
    Expr,
    VariableSet,
    compile_exprs,
    differentiate,
    number,
    sample_values,
    symbol,
    zero_verdict,
)
from .matrix import StructureMatrix, numeric_rank

__all__ = [
    "FLOW_DRIFT_TOL",
    "CasimirCheck",
    "FlowResult",
    "VerificationError",
    "bracket_components",
    "casimir_check",
    "degeneracy_residual",
    "flow_conservation",
    "gradient",
    "gradient_rank",
    "gradients_parallel",
    "random_polynomial_hamiltonian",
]


# drift above this fails the flow check; the Hamiltonian's own drift above it
# marks an attempt the integrator did not resolve
FLOW_DRIFT_TOL = 1e-6


class VerificationError(Exception):
    pass


def gradient(e: Expr, symbols: VariableSet) -> tuple:
    return tuple(differentiate(e, v, symbols) for v in symbols.variables)


def bracket_components(mat: StructureMatrix, e: Expr) -> tuple:
    """Components of J * grad(e); all zero exactly when e is an invariant."""
    g = gradient(e, mat.symbols)
    out = []
    for i in range(mat.n):
        acc = EXPR_ZERO
        for j in range(mat.n):
            if not mat.rows[i][j].is_zero() and not g[j].is_zero():
                acc = acc + mat.rows[i][j] * g[j]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class CasimirCheck:
    symbolic_ok: bool
    failed_components: tuple  # 1-based indices with a nonzero bracket component
    sampled_components: tuple  # 1-based indices accepted only by sampling
    max_residual: float
    samples: int


def casimir_check(
    mat: StructureMatrix,
    e: Expr,
    samples: int = 30,
    tol: float = 1e-9,
    seed: int = 0,
) -> CasimirCheck:
    comps = bracket_components(mat, e)
    failed = []
    sampled = []
    for i, comp in enumerate(comps):
        if comp.is_zero():
            continue
        rng = random.Random(f"casimir-sym:{seed}:{i}")
        v = zero_verdict(comp, mat.symbols, mat.domain, samples=samples, tol=tol, rng=rng)
        if v.is_nonzero:
            failed.append(i + 1)
        else:
            sampled.append(i + 1)

    rng = random.Random(f"casimir-num:{seed}")
    live = [c for c in comps if not c.is_zero()]
    worst = 0.0
    done = 0
    for _, vals in islice(sample_values(live, mat.symbols, mat.domain, rng, 50 * samples), samples):
        done += 1
        worst = max([worst, *map(abs, vals)])
    return CasimirCheck(
        symbolic_ok=not failed,
        failed_components=tuple(failed),
        sampled_components=tuple(sampled),
        max_residual=worst,
        samples=done,
    )


def degeneracy_residual(
    mat: StructureMatrix,
    gammas,
    points: int = 20,
    seed: int = 0,
) -> float:
    """Worst |J[i][j] - sum_k gamma[i][k] J[k][j]| over dependent rows and points."""
    residuals = []
    for i in gammas.dependent_rows:
        for j in range(mat.n):
            r = mat.rows[i][j]
            for k in gammas.pivot_rows:
                r = r - gammas.coeffs[(i, k)] * mat.rows[k][j]
            if not r.is_zero():
                residuals.append(r)
    if not residuals:
        return 0.0
    rng = random.Random(f"degeneracy:{seed}")
    worst = 0.0
    for _, vals in islice(sample_values(residuals, mat.symbols, mat.domain, rng, 50 * points), points):
        worst = max([worst, *map(abs, vals)])
    return worst


# -- independence ------------------------------------------------------------


def gradient_rank(
    exprs,
    symbols: VariableSet,
    domain: Domain | None = None,
    points: int = 10,
    tol: float = 1e-9,
    seed: int = 0,
) -> int:
    """Numeric rank of the stacked gradients, majority vote over sample points."""
    exprs = list(exprs)
    if not exprs:
        return 0
    grads = [d for e in exprs for d in gradient(e, symbols)]
    rng = random.Random(f"gradrank:{seed}")
    draws = islice(sample_values(grads, symbols, domain, rng, 50 * points), points)
    ranks = [numeric_rank(np.array(v).reshape(len(exprs), symbols.n), tol) for _, v in draws]
    if not ranks:
        raise VerificationError("no usable sample points for the gradient rank")
    return Counter(ranks).most_common(1)[0][0]


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
    for _, v in islice(sample_values(grads, symbols, domain, rng, 50 * points), points):
        done += 1
        if numeric_rank(np.array(v).reshape(2, symbols.n), tol) != 1:
            return False
    if done == 0:
        raise VerificationError("no usable sample points for the parallel check")
    return True


# -- flow conservation ---------------------------------------------------------


@dataclass(frozen=True)
class FlowResult:
    invariant_drifts: tuple  # one per invariant, max over completed trajectories
    hamiltonian_drift: float
    trajectories: int
    steps_per_trajectory: int
    completed: int  # trajectories that made it through the full window
    aborted: tuple  # (trajectory, time, scale) attempts retried at a smaller scale


def flow_conservation(
    mat: StructureMatrix,
    hamiltonian: Expr,
    invariants,
    dt: float = 1e-3,
    t_end: float = 1.0,
    trajectories: int = 5,
    seed: int = 0,
    scales: tuple = (1.0, 0.5, 0.25, 0.125, 0.0625),
) -> FlowResult:
    """Integrate x' = J grad(H) with RK4 and measure invariant drift.

    Initial variable and parameter values are drawn uniformly from the box
    scale * [1, 2].  Quadratic and cubic brackets can blow up in finite
    time at unit scale, where a fixed-step integrator measures nothing but
    its own truncation error, so each trajectory backs off down the scale
    ladder until the whole window [0, t_end] completes: an attempt is
    abandoned when a declared-positive variable dips below 1e-6 or any
    coordinate escapes past 1e6.  An attempt that completes with the
    Hamiltonian drifting by more than FLOW_DRIFT_TOL is retried the same way:
    H is conserved by construction, so that drift is integrator error, not
    evidence against any invariant.  The last scale is judged as it comes.
    Conservation is scale-free, so drift over a completed window at a
    resolvable scale is the honest measurement.  Drift is |f(x_t) - f(x_0)|
    scaled by 1 + |f(x_0)|, maximized over steps and completed trajectories.
    """
    symbols = mat.symbols
    invariants = list(invariants)
    field = bracket_components(mat, hamiltonian)
    f_field = compile_exprs(field, symbols)
    watchers = invariants + [hamiltonian]
    f_watch = compile_exprs(watchers, symbols)

    guarded = [
        idx
        for idx, v in enumerate(symbols.variables)
        if mat.domain.guarded_positive(v)
    ]
    rng = random.Random(f"flow:{seed}")
    steps = int(round(t_end / dt))
    drifts = [0.0] * len(watchers)
    aborted = []
    completed = 0

    for traj in range(trajectories):
        for k, scale in enumerate(scales):
            x = [scale * rng.uniform(1.0, 2.0) for _ in symbols.variables]
            pvals = [scale * rng.uniform(1.0, 2.0) for _ in symbols.parameters]
            base = f_watch(*x, *pvals)
            norm = [1.0 + abs(v) for v in base]
            trial = [0.0] * len(watchers)
            survived = True
            for step in range(steps):
                try:
                    x = _rk4_step(f_field, x, pvals, dt)
                except OverflowError:
                    survived = False
                else:
                    if any(x[g] < 1e-6 for g in guarded) or any(abs(v) > 1e6 for v in x):
                        survived = False
                if not survived:
                    aborted.append((traj, round((step + 1) * dt, 12), scale))
                    break
                now = f_watch(*x, *pvals)
                for i, v in enumerate(now):
                    d = abs(v - base[i]) / norm[i]
                    if d > trial[i]:
                        trial[i] = d
            if survived and trial[-1] > FLOW_DRIFT_TOL and k < len(scales) - 1:
                aborted.append((traj, round(steps * dt, 12), scale))
                continue
            if survived:
                completed += 1
                for i, d in enumerate(trial):
                    if d > drifts[i]:
                        drifts[i] = d
                break
    return FlowResult(
        invariant_drifts=tuple(drifts[: len(invariants)]),
        hamiltonian_drift=drifts[-1],
        trajectories=trajectories,
        steps_per_trajectory=steps,
        completed=completed,
        aborted=tuple(aborted),
    )


def _rk4_step(f, x, pvals, h):
    k1 = f(*x, *pvals)
    k2 = f(*(xi + 0.5 * h * ki for xi, ki in zip(x, k1)), *pvals)
    k3 = f(*(xi + 0.5 * h * ki for xi, ki in zip(x, k2)), *pvals)
    k4 = f(*(xi + h * ki for xi, ki in zip(x, k3)), *pvals)
    return [
        xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


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
