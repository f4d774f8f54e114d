"""Verification: is a claimed invariant actually conserved?

Three independent lines of evidence, none of which shares machinery with
the solver that produced the candidate:

* symbolic: every component of J * grad(C) must vanish identically,
* numeric residuals: the same components sampled at random points,
* dynamic: RK4 trajectories of x' = J * grad(H) must hold C constant to
  tight drift.  The CLI's flow check runs the system's own Hamiltonian;
  the tests also run random polynomial ones.  Each flow check generates
  one Python kernel that runs a whole attempt over local floats.  The
  kernel splits every field component and watched function into
  coefficients and variable parts: the coefficients, all the parameter
  arithmetic, are computed once per attempt, and each step does only the
  variable arithmetic, with each ln of a variable argument taken once per
  stage.

The sampled gradient-rank vote lives here too, as a public check that
shares nothing with the solver: integrate_all proves independence from the
multipliers modulo a prime and never votes.  numeric_rank is the one place
that ranks floats, so numpy is imported there, on first use.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from .expr import (
    Domain,
    EXPR_ZERO,
    Expr,
    VariableSet,
    _from_poly,
    _number_source,
    _reduce,
    differentiate,
    free_symbols,
    python_source,
    sample_values,
    zero_verdict,
)
from .matrix import StructureMatrix
from .poly import Poly, mono_order_key

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
]


# drift above this fails the flow check; the Hamiltonian's own drift above it
# marks an attempt the integrator did not resolve
FLOW_DRIFT_TOL = 1e-6


class VerificationError(Exception):
    pass


def gradient(e: Expr, symbols: VariableSet) -> tuple:
    """The partials of e in every variable, differentiating only in those e involves."""
    involved = free_symbols(e)
    return tuple(
        differentiate(e, v, symbols) if v in involved else EXPR_ZERO for v in symbols.variables
    )


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
    J[i][j] - sum_k gamma[i][k] J[k][j], with the same absolute value.  The
    nonzero components are the ones solve_gamma formed and certified
    (gammas.products); they are sampled, not formed again.
    """
    residuals = gammas.products
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
    import numpy as np  # the pipeline never ranks in floats, so never loads numpy

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
    coordinate escapes past 1e6 or stops being finite, a drift is NaN, or a
    step leaves the domain of the field or a watched function (overflow,
    division by zero, ln of a non-positive value).  The attempts run in one
    kernel from _rk4_kernel, compiled once per call.  An attempt that
    completes with the Hamiltonian drifting by more than FLOW_DRIFT_TOL is
    retried the same way: H is conserved by construction, so that drift is
    integrator error, not evidence against any invariant.  The last scale is
    judged as it comes.
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


def _split(e: Expr, variables) -> tuple:
    """e = N/D as sums over variable parts: (num, den), lists of (coefficient, part).

    A variable part is a monomial in the variables and in the ln atoms whose
    argument involves a variable; the coefficient is the rest, an Expr in the
    parameters and in ln of parameter-only arguments.  Each list is in
    graded-lex order of the parts, so N = sum(c * part for c, part in num).
    When D has no variable part, each coefficient is divided by D exactly and
    den is None; otherwise D = sum(d * part for d, part in den).
    """

    def parts(p: Poly) -> list:
        moving = {
            a for a in p.atoms()
            if (a in variables if isinstance(a, str) else free_symbols(a.arg) & variables)
        }
        out: dict = {}
        for m, c in p.terms.items():
            part = tuple(ae for ae in m if ae[0] in moving)
            rest = tuple(ae for ae in m if ae[0] not in moving)
            out.setdefault(part, {})[rest] = c
        ordered = sorted(out.items(), key=lambda pd: mono_order_key(pd[0]))
        return [(Poly(d), part) for part, d in ordered]

    num, den = parts(e.num), parts(e.den)
    if len(den) == 1 and not den[0][1]:
        return [(_reduce(c, e.den), part) for c, part in num], None
    return [(_from_poly(c), m) for c, m in num], [(_from_poly(d), m) for d, m in den]


def _rk4_kernel(field, watchers, symbols: VariableSet, guarded):
    """One flow attempt compiled from _rk4_source: `_run(*values, h, steps) -> (step, drifts)`."""
    ns = {"log": math.log, "_FAIL": (OverflowError, ZeroDivisionError, ValueError)}
    exec(_rk4_source(field, watchers, symbols, guarded), ns)
    return ns["_run"]


def _rk4_source(field, watchers, symbols: VariableSet, guarded) -> str:
    """Source of one flow attempt, `_run(*values, h, steps) -> (step, drifts)`.

    `_run` takes the start point and the parameters in symbols.all_symbols()
    order, then runs up to `steps` RK4 steps of size h along x' = field.
    After each step it applies the abort guards (a guarded variable below
    1e-6, any coordinate past 1e6 or not finite) and tracks each watcher's
    drift |w(x_t) - w(x_0)| / (1 + |w(x_0)|).  It returns (steps, drifts)
    for a completed window, and (k, None) for an attempt that ends at step k:
    by a guard, by a drift that is NaN, or by an evaluation that overflows,
    divides by zero or leaves log's domain.  k = 0 when that happens at the
    start point, and k = 1 when a coefficient only the field uses fails.

    The kernel is specialised to each attempt's parameters.  Every field
    component and watcher is written through _split as sums over variable
    parts, and each distinct coefficient that is not a number gets one local
    (_c0, _c1, ...), computed once per attempt, up to sign; numbers are
    inlined and +-1 dropped.  So a step does no parameter arithmetic, except
    inside an ln argument that mixes variables and parameters, and no
    division unless a denominator has a variable part.  Within a stage, and
    across the watchers, each ln atom with a variable argument is computed
    once (_l0, _l1, ...).  A square is written f*f, so an overflow there
    gives inf, which the guards catch at the same step, where pow raised.
    The body is straight-line code over locals, one name per coordinate and
    stage.  Generated names all start with `_`,
    which no system identifier can, so no symbol shadows them.
    """
    n = symbols.n
    xs = [f"_s{i}" for i in range(n)]
    ys = [f"_y{i}" for i in range(n)]
    ps = [f"_s{n + j}" for j in range(len(symbols.parameters))]
    params = dict(zip(symbols.parameters, ps))
    variables = set(symbols.variables)
    coefs: dict = {}  # coefficient with a positive leading term -> its local
    hoisted = []  # the lines computing them, in order of first use
    written: dict = {}  # coefficient -> (negative, source)

    def coef(c: Expr):
        """(negative, source), source None for a unit coefficient."""
        if c in written:
            return written[c]
        if c.is_constant():
            v = c.const_value()
            written[c] = v < 0, None if abs(v) == 1 else _number_source(abs(v))
            return written[c]
        negative = c.num.leading()[1] < 0
        key = -c if negative else c
        if key not in coefs:
            coefs[key] = f"_c{len(coefs)}"
            hoisted.append(f"{coefs[key]} = {python_source(key, params)}")
        written[c] = negative, coefs[key]
        return written[c]

    def emit(splits, point):
        """Lines computing the shared ln atoms at point, and each split expression's source."""
        names = dict(zip(symbols.variables, point))
        atoms: dict = {}

        def total(terms):
            out = []
            for k, (c, part) in enumerate(terms):
                negative, src = coef(c)
                factors = [] if src is None else [src]
                for a, e in part:
                    f = names[a] if isinstance(a, str) else atoms.setdefault(a, f"_l{len(atoms)}")
                    factors.append(f if e == 1 else f"({f}*{f})" if e == 2 else f"{f}**{e}")
                body = "*".join(factors) or "1.0"
                sign = "-" if negative else ("" if k == 0 else "+")
                out.append(f"{sign}{body}" if k == 0 else f" {sign} {body}")
            return "".join(out) or "0.0"

        srcs = [
            total(num) if den is None else f"({total(num)})/({total(den)})" for num, den in splits
        ]
        py = {**names, **params}
        lines = [f"{name} = log({python_source(a.arg, py)})" for a, name in atoms.items()]
        return lines, srcs

    m = len(watchers)
    watched = [_split(e, variables) for e in watchers]
    moved = [_split(e, variables) for e in field]
    base_logs, base = emit(watched, xs)
    watcher_coefs = len(hoisted)  # emitted first; the rest only the field uses
    stages = []
    point = xs
    for k, lead in ((1, "_hh"), (2, "_hh"), (3, "_h"), (4, None)):
        stages.append((k, lead, emit(moved, point)))
        point = ys
    logs, now = emit(watched, xs)

    body = ["_hh = 0.5 * _h", "_h6 = _h / 6.0", "try:"]
    body += ["    " + line for line in hoisted[:watcher_coefs] + base_logs]
    body += [f"    _b{j} = {src}" for j, src in enumerate(base)]
    body += ["except _FAIL:", "    return 0, None"]
    if hoisted[watcher_coefs:]:
        body += ["try:", *("    " + line for line in hoisted[watcher_coefs:])]
        body += ["except _FAIL:", "    return 1, None"]
    body += [f"_m{j} = 1.0 + abs(_b{j})" for j in range(m)]
    body += [f"_t{j} = 0.0" for j in range(m)]
    body += ["for _i in range(_n):", "    try:"]
    for k, lead, (lines, srcs) in stages:
        body += ["        " + line for line in lines]
        body += [f"        _k{k}_{i} = {src}" for i, src in enumerate(srcs)]
        if lead:
            body += [f"        _y{i} = _s{i} + {lead} * _k{k}_{i}" for i in range(n)]
    body += [
        f"        _s{i} = _s{i} + _h6 * (_k1_{i} + 2.0 * _k2_{i} + 2.0 * _k3_{i} + _k4_{i})"
        for i in range(n)
    ]
    # chained comparisons are False for NaN, so a non-finite coordinate escapes too
    inside = [f"{'1e-6' if i in guarded else '-1e6'} <= _s{i} <= 1e6" for i in range(n)]
    body += [f"        if not ({' and '.join(inside)}):", "            return _i + 1, None"]
    body += ["        " + line for line in logs]
    body += [f"        _w{j} = {src}" for j, src in enumerate(now)]
    body += ["    except _FAIL:", "        return _i + 1, None"]
    for j in range(m):
        body += [
            f"    _d = abs(_w{j} - _b{j}) / _m{j}",
            f"    if not _d <= _t{j}:",
            "        if _d != _d:",
            "            return _i + 1, None",
            f"        _t{j} = _d",
        ]
    body += [f"return _n, ({', '.join(f'_t{j}' for j in range(m))},)"]
    return f"def _run({', '.join(xs + ps)}, _h, _n):\n" + "\n".join("    " + line for line in body)

