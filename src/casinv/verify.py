"""Verification: is a claimed invariant actually conserved?

Three independent lines of evidence, none of which shares machinery with
the solver that produced the candidate:

* symbolic: every component of J * grad(C) must vanish identically,
* numeric residuals: the same components sampled at random points,
* dynamic: RK4 trajectories of x' = J * grad(H) must hold C constant to
  tight drift.  The step size is controlled by Richardson step doubling
  (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The CLI's flow check
  runs the system's own Hamiltonian; the tests also run random polynomial
  ones.  A plain loop runs each attempt over a few straight-line functions
  generated once per check, which split the field and the watched functions
  into coefficients, computed once per attempt, and variable parts.

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
from functools import cache

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
# the local error a flow step may make, relative to 1 + |x_i|
FLOW_STEP_TOL = 1e-3 * FLOW_DRIFT_TOL
# what a float evaluation raises where it leaves its domain
_FLOAT_FAIL = (OverflowError, ZeroDivisionError, ValueError)


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
    """Integrate x' = J grad(H) with error-controlled RK4 and measure invariant drift.

    Each step is taken whole and as two halves; their difference estimates
    the local error relative to 1 + |x_i|, which must stay within
    FLOW_STEP_TOL, and the next step size follows from it.  dt is the first
    step and the smallest, so no attempt takes more than ceil(t_end/dt)
    accepted steps; dt and t_end must be finite and positive (ValueError).
    Initial variable and parameter values are drawn uniformly from the box
    scale * [1, 2].  Quadratic and cubic brackets can blow up in finite time
    at unit scale, where the step would have to shrink without bound, so
    each trajectory backs off down the scale ladder until the whole window
    [0, t_end] completes: an attempt is abandoned when its step would drop
    below dt, a declared-positive variable dips below 1e-6, any coordinate
    escapes past 1e6 or stops being finite, a drift is NaN, or a step leaves
    the domain of the field or a watched function (overflow, division by
    zero, ln of a non-positive value); the time of the state that failed is
    recorded.  An attempt that completes with the Hamiltonian drifting by
    more than FLOW_DRIFT_TOL is retried the same way: H is conserved by
    construction, so that drift is integrator error, not evidence against
    any invariant.  The last scale is judged as it comes: there a step that
    asks for less than dt is held at dt and accepted whatever its error.
    Conservation is scale-free, so drift over a completed window at a
    resolvable scale is the honest measurement.  Drift is |f(x_t) - f(x_0)|
    scaled by 1 + |f(x_0)|, maximized over both half points of every
    accepted step and over completed trajectories.  steps_per_trajectory is
    the most accepted steps a completed trajectory took.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError(f"dt and t_end must be finite and positive, got {dt!r} and {t_end!r}")
    symbols = mat.symbols
    invariants = list(invariants)
    watchers = invariants + [hamiltonian]
    functions = _flow_functions(mat, hamiltonian, watchers)
    rng = random.Random(f"flow:{seed}")
    last = len(scales) - 1
    drifts = [0.0] * len(watchers)
    aborted = []
    completed = 0
    longest = 0

    for traj in range(trajectories):
        for k, scale in enumerate(scales):
            x = [scale * rng.uniform(1.0, 2.0) for _ in symbols.variables]
            pvals = [scale * rng.uniform(1.0, 2.0) for _ in symbols.parameters]
            t, steps, trial = _attempt(functions, x, pvals, dt, t_end, k == last)
            if trial is None:
                aborted.append((traj, round(t, 12), scale))
                continue
            if trial[-1] > FLOW_DRIFT_TOL and k < last:
                aborted.append((traj, round(t_end, 12), scale))
                continue
            completed += 1
            longest = max(longest, steps)
            drifts = [max(d, v) for d, v in zip(drifts, trial)]
            break
    return FlowResult(
        invariant_drifts=tuple(drifts[: len(invariants)]),
        hamiltonian_drift=drifts[-1],
        trajectories=trajectories,
        steps_per_trajectory=longest,
        completed=completed,
        aborted=tuple(aborted),
    )


def _attempt(functions, x, pvals, dt, t_end, hold) -> tuple:
    """One attempt from x: (t, accepted steps, drifts or None), see flow_conservation.

    An evaluation failing in a step's first half ends the attempt at t + h/2,
    one in the rest at t + h; an accepted step checks the midpoint (t + h/2)
    and then the extrapolated state (t + h).  The start point is not guarded:
    its watchers failing give t = 0, and a field coefficient failing t = dt.
    """
    watching, moving, double = functions
    try:
        drifts, trial = watching(x, *pvals)
    except _FLOAT_FAIL:
        return 0.0, 0, None
    try:
        field, step = moving(*pvals)
    except _FLOAT_FAIL:
        return dt, 0, None

    def fails(y):
        try:
            inside, now = drifts(y)
        except _FLOAT_FAIL:
            return True
        for i, d in enumerate(now):
            if not d <= trial[i]:
                if d != d:
                    return True
                trial[i] = d
        # a failed attempt's drifts are dropped, so the guards may come last
        return not inside

    t, h, steps, held = 0.0, dt, 0, False
    while True:
        end = h >= t_end - t - 1e-9 * t_end
        if end:
            h = t_end - t
        try:
            k1 = field(x)
            mid = step(x, k1, 0.5 * h)
        except _FLOAT_FAIL:
            return t + 0.5 * h, steps, None
        try:
            half = step(mid, field(mid), 0.5 * h)
            whole = step(x, k1, h)
        except _FLOAT_FAIL:
            return t + h, steps, None
        err, extrapolated = double(half, whole)
        if err <= FLOW_STEP_TOL or held:
            if fails(mid):
                return t + 0.5 * h, steps, None
            x = extrapolated
            if fails(x):
                return t + h, steps, None
            steps += 1
            if end:
                return t_end, steps, trial
            t = t + h
        f = 0.9 * (FLOW_STEP_TOL / err) ** 0.2 if err else 4.0
        # a NaN error shrinks the step as far as it can
        h = h * (0.2 if not f >= 0.2 else 4.0 if f > 4.0 else f)
        held = h < dt
        if held:
            if not hold:
                return t, steps, None
            h = dt


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


def _flow_functions(mat: StructureMatrix, hamiltonian: Expr, watchers) -> tuple:
    """(watching, moving, double) for x' = J grad(H), compiled from _flow_source."""
    lower = [1e-6 if mat.domain.guarded_positive(v) else -1e6 for v in mat.symbols.variables]
    ns = {"log": math.log}
    exec(_flow_source(bracket_components(mat, hamiltonian), watchers, mat.symbols, lower), ns)
    return ns["_watching"], ns["_moving"], ns["_double"]


def _flow_source(field, watchers, symbols: VariableSet, lower) -> str:
    """Source of the straight-line functions of one flow check; states are tuples.

    * `_watching(x0, *params) -> (_drifts, zeros)`: `_drifts(x)` is whether
      every x_i lies in [lower_i, 1e6], and each watcher's drift
      |w(x) - w(x0)| / (1 + |w(x0)|); zeros is a new list of the drifts at x0.
    * `_moving(*params) -> (_field, _step)`: `_step(x, k, h)` is one RK4 step
      of size h from x, whose first stage k = _field(x) is given.
    * `_double(e, w) -> (err, extrapolated)` for a step taken as two halves (e)
      and whole (w): err is max_i |e_i - w_i| / (15 (1 + |e_i|)), NaN when a
      term is NaN or infinite (the controller takes both alike), and
      extrapolated is e + (e - w)/15.

    The factories run once per attempt.  Expressions are written through
    _split, each distinct coefficient that is not a number computed once by
    its factory (_c0, _c1, ...), up to sign; numbers are inlined and +-1
    dropped.  So an evaluation does no parameter arithmetic outside an ln
    argument that mixes variables and parameters, and takes each ln atom of a
    variable argument once (_l0, _l1, ...).  A square is written f*f: its
    overflow gives inf, which the guards catch where pow raised.  Generated
    names start with `_`, which no system identifier can, so none shadows.
    """
    n = symbols.n
    xs = [f"_x{i}" for i in range(n)]
    ys = [f"_y{i}" for i in range(n)]
    params = {p: f"_p{j}" for j, p in enumerate(symbols.parameters)}
    variables = set(symbols.variables)

    def evaluate(exprs, point) -> tuple:
        """(coefficient lines, ln atom lines, source of each expression) at point."""
        coefs: dict = {}  # coefficient with a positive leading term -> its local
        names = dict(zip(symbols.variables, point))
        atoms: dict = {}

        @cache
        def coef(c: Expr):
            """(negative, source), source None for a unit coefficient."""
            if c.is_constant():
                v = c.const_value()
                return v < 0, None if abs(v) == 1 else _number_source(abs(v))
            negative = c.num.leading()[1] < 0
            return negative, coefs.setdefault(-c if negative else c, f"_c{len(coefs)}")

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

        srcs = []
        for e in exprs:
            num, den = _split(e, variables)
            srcs.append(total(num) if den is None else f"({total(num)})/({total(den)})")
        py = {**names, **params}
        hoisted = [f"{name} = {python_source(c, params)}" for c, name in coefs.items()]
        logs = [f"{name} = log({python_source(a.arg, py)})" for a, name in atoms.items()]
        return hoisted, logs, srcs

    def define(head, unpack, body, returned):
        """Lines of `def head`: unpack each (tuple, locals) pair, run body, return returned."""
        lines = [f"def {head}:"]
        lines += [f"    {', '.join(names)}, = {arg}" for arg, names in unpack]
        return lines + ["    " + line for line in body] + [f"    return {returned}"]

    def tup(items):
        return f"({', '.join(items)},)"

    m = len(watchers)
    hoisted, logs, srcs = evaluate(watchers, xs)
    base = logs + [f"_b{j} = {src}" for j, src in enumerate(srcs)]
    base += [f"_m{j} = 1.0 + abs(_b{j})" for j in range(m)]
    now = logs + [f"_v{j} = {src}" for j, src in enumerate(srcs)]
    inside = " and ".join(f"{lo!r} <= {x} <= 1e6" for lo, x in zip(lower, xs))
    drifts = tup(f"abs(_v{j} - _b{j}) / _m{j}" for j in range(m))
    drifts_fn = define("_drifts(_x)", [("_x", xs)], now, f"{inside}, {drifts}")
    head = f"_watching({', '.join(['_x', *params.values()])})"
    zeros = f"[{', '.join(['0.0'] * m)}]"
    watching = define(head, [("_x", xs)], hoisted + base + drifts_fn, f"_drifts, {zeros}")

    hoisted, logs, srcs = evaluate(field, ys)
    ks = [[f"_k{k}_{i}" for i in range(n)] for k in range(1, 5)]
    stages = [logs + [f"{k} = {src}" for k, src in zip(out, srcs)] for out in ks]
    field_fn = define("_field(_x)", [("_x", ys)], stages[0], tup(ks[0]))
    body = ["_hh = 0.5 * _h"]
    for prev, stage, lead in zip(ks, stages[1:], ("_hh", "_hh", "_h")):
        body += [f"{y} = {x} + {lead} * {k}" for y, x, k in zip(ys, xs, prev)]
        body += stage
    body.append("_h6 = _h / 6.0")
    new = [f"{x} + _h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for x, a, b, c, d in zip(xs, *ks)]
    step_fn = define("_step(_x, _k, _h)", [("_x", xs), ("_k", ks[0])], body, tup(new))
    head = f"_moving({', '.join(params.values())})"
    moving = define(head, [], hoisted + field_fn + step_fn, "_field, _step")

    es, ws, qs = ([f"_{c}{i}" for i in range(n)] for c in "ewq")
    errs = [f"{q} = abs({e} - {w}) / (15.0 * (1.0 + abs({e})))" for q, e, w in zip(qs, es, ws)]
    err = f"max({', '.join(['0.0', *qs])}) + 0.0 * ({' + '.join(qs)})"
    extrapolated = tup(f"{e} + ({e} - {w}) / 15.0" for e, w in zip(es, ws))
    double = define("_double(_e, _w)", [("_e", es), ("_w", ws)], errs, f"{err}, {extrapolated}")
    return "\n".join(watching + moving + double) + "\n"
