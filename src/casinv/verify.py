"""Verification: is a claimed invariant actually conserved?

Three independent lines of evidence, none of which shares machinery with
the solver that produced the candidate:

* symbolic: every component of J * grad(C) must vanish identically,
* numeric residuals: the same components sampled at random points,
* dynamic: RK4 trajectories of x' = J * grad(H) must hold C constant to
  tight drift.  The CLI's flow check runs the system's own Hamiltonian;
  the tests also run random ones from random_polynomial_hamiltonian.  Each
  flow check generates one Python kernel that runs a whole attempt over
  local floats, so the per-step cost is the arithmetic alone.

The sampled gradient-rank vote lives here too.  integrate_all proves
independence from the multipliers modulo a prime instead, and votes only
from the first multiplier it cannot reduce that way (an ln atom).  The vote
is the one place that ranks floats, so numpy is imported there, on first use.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Domain,
    EXPR_ZERO,
    Expr,
    VariableSet,
    differentiate,
    number,
    python_source,
    sample_values,
    symbol,
    zero_verdict,
)
from .matrix import StructureMatrix

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
    "numeric_rank",
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
    return mat.apply(gradient(e, mat.symbols))


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

    # a proved invariant has no live component and draws no point
    live = [c for c in comps if not c.is_zero()]
    worst = 0.0
    done = 0
    if live:
        rng = random.Random(f"casimir-num:{seed}")
        for vals in sample_values(live, mat.symbols, mat.domain, rng, samples):
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
    """Worst |(J w_i)[j]| over the forms w_i of gammas, components j and points.

    For a skew mat, -(J w_i)[j] is the relation residual
    J[i][j] - sum_k gamma[i][k] J[k][j], with the same absolute value.
    """
    residuals = [c for w in gammas.forms for c in mat.apply(w) if not c.is_zero()]
    if not residuals:
        return 0.0
    rng = random.Random(f"degeneracy:{seed}")
    worst = 0.0
    for vals in sample_values(residuals, mat.symbols, mat.domain, rng, points):
        worst = max([worst, *map(abs, vals)])
    return worst


# -- independence ------------------------------------------------------------


def numeric_rank(m, tol: float) -> int:
    """Singular values of the matrix m (2-D, or a list of rows) above tol times the largest."""
    import numpy as np  # only the ln fallback ranks in floats

    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * s[:1]))


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
    n = symbols.n
    draws = sample_values(grads, symbols, domain, rng, points)
    ranks = [numeric_rank([v[k : k + n] for k in range(0, len(v), n)], tol) for v in draws]
    if not ranks:
        raise VerificationError("no usable sample points for the gradient rank")
    return Counter(ranks).most_common(1)[0][0]


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
    abandoned when a declared-positive variable dips below 1e-6, any
    coordinate escapes past 1e6, or a step leaves the domain of the field
    or a watched function (overflow, division by zero, ln of a non-positive
    value).  The attempts run in one kernel from _rk4_kernel, compiled once
    per call.  An attempt that completes with the Hamiltonian drifting by
    more than FLOW_DRIFT_TOL is retried the same way: H is conserved by
    construction, so that drift is integrator error, not evidence against
    any invariant.  The last scale is judged as it comes.
    Conservation is scale-free, so drift over a completed window at a
    resolvable scale is the honest measurement.  Drift is |f(x_t) - f(x_0)|
    scaled by 1 + |f(x_0)|, maximized over steps and completed trajectories.
    """
    symbols = mat.symbols
    invariants = list(invariants)
    watchers = invariants + [hamiltonian]
    guarded = [
        idx
        for idx, v in enumerate(symbols.variables)
        if mat.domain.guarded_positive(v)
    ]
    run = _rk4_kernel(bracket_components(mat, hamiltonian), watchers, symbols, guarded)
    rng = random.Random(f"flow:{seed}")
    steps = int(round(t_end / dt))
    drifts = [0.0] * len(watchers)
    aborted = []
    completed = 0

    for traj in range(trajectories):
        for k, scale in enumerate(scales):
            x = [scale * rng.uniform(1.0, 2.0) for _ in symbols.variables]
            pvals = [scale * rng.uniform(1.0, 2.0) for _ in symbols.parameters]
            done, trial = run(*x, *pvals, dt, steps)
            if trial is None:
                aborted.append((traj, round(done * dt, 12), scale))
                continue
            if trial[-1] > FLOW_DRIFT_TOL and k < len(scales) - 1:
                aborted.append((traj, round(steps * dt, 12), scale))
                continue
            completed += 1
            drifts = [max(d, t) for d, t in zip(drifts, trial)]
            break
    return FlowResult(
        invariant_drifts=tuple(drifts[: len(invariants)]),
        hamiltonian_drift=drifts[-1],
        trajectories=trajectories,
        steps_per_trajectory=steps,
        completed=completed,
        aborted=tuple(aborted),
    )


def _rk4_kernel(field, watchers, symbols: VariableSet, guarded):
    """Compile one flow attempt into `_run(*values, h, steps) -> (step, drifts)`.

    `_run` takes the start point and the parameters in symbols.all_symbols()
    order, then runs up to `steps` RK4 steps of size h along x' = field.
    After each step it applies the abort guards (a guarded variable below
    1e-6, any coordinate past 1e6) and tracks each watcher's drift
    |w(x_t) - w(x_0)| / (1 + |w(x_0)|).  It returns (steps, drifts) for a
    completed window, and (k, None) for an attempt that ends at step k: by a
    guard, or by an evaluation that overflows, divides by zero or leaves
    log's domain (k = 0 when that happens at the start point).

    The body is straight-line code over locals, one name per coordinate and
    stage, and every float operation is the one the plain loop would do, in
    its order, so the floats are the same bit for bit; 0.5 * h and h / 6.0
    are hoisted, since `0.5 * h * k` multiplies them first anyway.  Generated
    names all start with `_`, which no system identifier can, so no symbol
    shadows them.
    """
    n = symbols.n
    xs = [f"_s{i}" for i in range(n)]
    ys = [f"_y{i}" for i in range(n)]
    ps = [f"_s{n + j}" for j in range(len(symbols.parameters))]
    m = len(watchers)

    def at(exprs, point):
        py = dict(zip(symbols.all_symbols(), point + ps))
        return [python_source(e, py) for e in exprs]

    body = ["_hh = 0.5 * _h", "_h6 = _h / 6.0", "try:"]
    body += [f"    _b{j} = {src}" for j, src in enumerate(at(watchers, xs))]
    body += ["except _FAIL:", "    return 0, None"]
    body += [f"_m{j} = 1.0 + abs(_b{j})" for j in range(m)]
    body += [f"_t{j} = 0.0" for j in range(m)]
    body += ["for _i in range(_n):", "    try:"]
    stage = xs
    for k, lead in ((1, "_hh"), (2, "_hh"), (3, "_h"), (4, None)):
        body += [f"        _k{k}_{i} = {src}" for i, src in enumerate(at(field, stage))]
        if lead:
            body += [f"        _y{i} = _s{i} + {lead} * _k{k}_{i}" for i in range(n)]
            stage = ys
    body += [
        f"        _s{i} = _s{i} + _h6 * (_k1_{i} + 2.0 * _k2_{i} + 2.0 * _k3_{i} + _k4_{i})"
        for i in range(n)
    ]
    escape = [f"_s{g} < 1e-6" for g in guarded] + [f"abs(_s{i}) > 1e6" for i in range(n)]
    body += [f"        if {' or '.join(escape)}:", "            return _i + 1, None"]
    body += [f"        _w{j} = {src}" for j, src in enumerate(at(watchers, xs))]
    body += ["    except _FAIL:", "        return _i + 1, None"]
    for j in range(m):
        body += [f"    _d = abs(_w{j} - _b{j}) / _m{j}", f"    if _d > _t{j}:", f"        _t{j} = _d"]
    body += [f"return _n, ({', '.join(f'_t{j}' for j in range(m))},)"]
    src = f"def _run({', '.join(xs + ps)}, _h, _n):\n" + "\n".join("    " + line for line in body)
    ns = {"log": math.log, "_FAIL": (OverflowError, ZeroDivisionError, ValueError)}
    exec(src, ns)
    return ns["_run"]


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
