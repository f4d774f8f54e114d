"""Verification: is a claimed invariant actually conserved?

Three independent lines of evidence, none of which shares machinery with
the solver that produced the candidate:

* symbolic: every component of J * grad(C) must vanish identically,
* numeric residuals: the same components sampled at random points,
* dynamic: RK4 trajectories of x' = J * grad(H) must hold C constant to
  tight drift.  The step size is controlled by Richardson step doubling
  (Hairer, Norsett & Wanner, Solving ODEs I, II.4): each step is taken
  whole and as two halves, their difference bounds the local error, and
  the extrapolated value is kept.  The CLI's flow check runs the system's
  own Hamiltonian; the tests also run random polynomial ones.  Each flow
  check generates one Python kernel that runs a whole attempt over local
  floats.  The kernel splits every field component and watched function
  into coefficients and variable parts: the coefficients, all the parameter
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
# the local error a flow step may make, relative to 1 + |x_i|
FLOW_STEP_TOL = 1e-3 * FLOW_DRIFT_TOL


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
    step and the smallest: no attempt takes more than ceil(t_end/dt)
    accepted steps.  Initial variable and parameter values are drawn uniformly from
    the box scale * [1, 2].  Quadratic and cubic brackets can blow up in
    finite time at unit scale, where the step would have to shrink without
    bound, so each trajectory backs off down the scale ladder until the
    whole window [0, t_end] completes: an attempt is abandoned when its
    step would drop below dt, a declared-positive variable dips below 1e-6,
    any coordinate escapes past 1e6 or stops being finite, a drift is NaN,
    or a step leaves the domain of the field or a watched function
    (overflow, division by zero, ln of a non-positive value); the time of
    the state that failed is recorded.  The attempts run in one kernel from
    _rk4_kernel, compiled once per call.  An attempt that completes with the
    Hamiltonian drifting by more than FLOW_DRIFT_TOL is retried the same
    way: H is conserved by construction, so that drift is integrator error,
    not evidence against any invariant.  The last scale is judged as it
    comes: there a step that asks for less than dt is held at dt and
    accepted whatever its error.  Conservation is scale-free, so drift over
    a completed window at a resolvable scale is the honest measurement.
    Drift is |f(x_t) - f(x_0)| scaled by 1 + |f(x_0)|, maximized over both
    half points of every accepted step and over completed trajectories.
    steps_per_trajectory is the most accepted steps a completed trajectory
    took.
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
    last = len(scales) - 1
    drifts = [0.0] * len(watchers)
    aborted = []
    completed = 0
    longest = 0

    for traj in range(trajectories):
        for k, scale in enumerate(scales):
            x = [scale * rng.uniform(1.0, 2.0) for _ in symbols.variables]
            pvals = [scale * rng.uniform(1.0, 2.0) for _ in symbols.parameters]
            t, steps, trial = run(*x, *pvals, dt, t_end, k == last)
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
    """One flow attempt compiled from _rk4_source.

    `_run(*values, dt, t_end, hold) -> (t, steps, drifts)`.
    """
    ns = {"log": math.log, "_FAIL": (OverflowError, ZeroDivisionError, ValueError)}
    exec(_rk4_source(field, watchers, symbols, guarded), ns)
    return ns["_run"]


def _rk4_source(field, watchers, symbols: VariableSet, guarded) -> str:
    """Source of one flow attempt, `_run(*values, dt, t_end, hold) -> (t, steps, drifts)`.

    `_run` takes the start point and the parameters in symbols.all_symbols()
    order, then integrates x' = field over [0, t_end] by RK4 with Richardson
    step doubling (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A step
    of size H starts as dt; it is taken once whole (w) and twice as H/2
    (through the midpoint a, to e), the whole step and the first half sharing
    their first stage.  Its error is err = max_i |e_i - w_i| / (15 (1 +
    |e_i|)), NaN if any term is.  A step with err <= FLOW_STEP_TOL is
    accepted and the state becomes e + (e - w)/15, the locally extrapolated
    value.  Accepted or not, the next H is H times 0.9 (tol/err)^(1/5)
    clamped to [0.2, 4] (0.2 for a NaN err, 4 for a zero one), shortened to
    land on t_end.  dt is the floor: when H drops below it the attempt is cut
    short at the time reached, unless hold is true; then H is held at dt and
    the next step is accepted whatever its error.  Every step but the last is
    at least dt long, so an attempt takes at most ceil(t_end/dt) accepted
    steps.

    At both half points a and the new state of an accepted step the kernel
    applies the abort guards (a guarded variable below 1e-6, any coordinate
    past 1e6 or not finite) and tracks each watcher's drift
    |w(x_t) - w(x_0)| / (1 + |w(x_0)|).  It returns (t_end, steps, drifts)
    for a completed window and (t, steps, None) for an attempt that ends at
    time t: by the step floor, by a guard, by a drift that is NaN, or by an
    evaluation that overflows, divides by zero or leaves log's domain.  A
    state's failure reports its own time; an evaluation failure inside a
    step reports the half point it was computing toward.  t = 0 when the
    watchers fail at the start point, and t = dt when a coefficient only the
    field uses fails.

    The kernel is specialised to each attempt's parameters.  Every field
    component and watcher is written through _split as sums over variable
    parts, and each distinct coefficient that is not a number gets one local
    (_c0, _c1, ...), computed once per attempt, up to sign; numbers are
    inlined and +-1 dropped.  So a step does no parameter arithmetic, except
    inside an ln argument that mixes variables and parameters, and no
    division unless a denominator has a variable part.  Within a stage, and
    across the watchers, each ln atom with a variable argument is computed
    once (_l0, _l1, ...).  A square is written f*f, so an overflow there
    gives inf, which the guards catch at the same point, where pow raised.
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

    def stage(k, point):
        """Lines evaluating the field at point into _k{k}_0, _k{k}_1, ..."""
        lines, srcs = emit(moved, point)
        return lines + [f"_k{k}_{i} = {src}" for i, src in enumerate(srcs)]

    def step(start, ks, half, h, h6, out):
        """RK4 of size h from start, its first stage _k{ks[0]} already computed, into out."""
        lines = []
        for prev, k, lead in zip(ks, ks[1:], (half, half, h)):
            lines += [f"_y{i} = {start}{i} + {lead} * _k{prev}_{i}" for i in range(n)]
            lines += stage(k, ys)
        a, b, c, d = (f"_k{k}_" for k in ks)
        lines += [
            f"{out}{i} = {start}{i} + {h6} * ({a}{i} + 2.0 * {b}{i} + 2.0 * {c}{i} + {d}{i})"
            for i in range(n)
        ]
        return lines

    def check(point, when):
        """Lines applying the guards and the watchers' drift at point; a failure returns when."""
        fail = f"return {when}, _n, None"
        # chained comparisons are False for NaN, so a non-finite coordinate escapes too
        inside = [f"{'1e-6' if i in guarded else '-1e6'} <= {point}{i} <= 1e6" for i in range(n)]
        lines = [f"if not ({' and '.join(inside)}):", f"    {fail}", "try:"]
        logs, now = emit(watched, [f"{point}{i}" for i in range(n)])
        lines += ["    " + line for line in logs]
        lines += [f"    _v{j} = {src}" for j, src in enumerate(now)]
        lines += ["except _FAIL:", f"    {fail}"]
        for j in range(m):
            lines += [
                f"_d = abs(_v{j} - _b{j}) / _m{j}",
                f"if not _d <= _t{j}:",
                "    if _d != _d:",
                f"        {fail}",
                f"    _t{j} = _d",
            ]
        return lines

    first_half = stage(1, xs) + step("_s", (1, 2, 3, 4), "_hq", "_hh", "_hh6", "_a")
    second_half = stage(5, [f"_a{i}" for i in range(n)])
    second_half += step("_a", (5, 6, 7, 8), "_hq", "_hh", "_hh6", "_e")
    whole = step("_s", (1, 9, 10, 11), "_hh", "_H", "_h6", "_w")
    error = [f"_err = abs(_e0 - _w0) / (15.0 * (1.0 + abs(_e0)))"]
    for i in range(1, n):
        error += [
            f"_q = abs(_e{i} - _w{i}) / (15.0 * (1.0 + abs(_e{i})))",
            "if _q > _err or _q != _q:",
            "    _err = _q",
        ]

    body = ["try:"]
    body += ["    " + line for line in hoisted[:watcher_coefs] + base_logs]
    body += [f"    _b{j} = {src}" for j, src in enumerate(base)]
    body += ["except _FAIL:", "    return 0.0, 0, None"]
    if hoisted[watcher_coefs:]:
        body += ["try:", *("    " + line for line in hoisted[watcher_coefs:])]
        body += ["except _FAIL:", "    return _dt, 0, None"]
    body += [f"_m{j} = 1.0 + abs(_b{j})" for j in range(m)]
    body += [f"_t{j} = 0.0" for j in range(m)]
    body += ["_now = 0.0", "_H = _dt", "_n = 0", "_held = False", "while True:"]
    loop = [
        "_end = _H >= _T - _now - 1e-9 * _T",
        "if _end:",
        "    _H = _T - _now",
        "_hh = 0.5 * _H",
        "_hq = 0.5 * _hh",
        "_h6 = _H / 6.0",
        "_hh6 = _hh / 6.0",
        "try:",
        *("    " + line for line in first_half),
        "except _FAIL:",
        "    return _now + _hh, _n, None",
        "try:",
        *("    " + line for line in second_half + whole),
        "except _FAIL:",
        "    return _now + _H, _n, None",
        *error,
        f"if _err <= {FLOW_STEP_TOL!r} or _held:",
        *("    " + line for line in check("_a", "_now + _hh")),
        *(f"    _s{i} = _e{i} + (_e{i} - _w{i}) / 15.0" for i in range(n)),
        *("    " + line for line in check("_s", "_now + _H")),
        "    _n += 1",
        "    if _end:",
        f"        return _T, _n, ({', '.join(f'_t{j}' for j in range(m))},)",
        "    _now = _now + _H",
        f"_f = 0.9 * ({FLOW_STEP_TOL!r} / _err) ** 0.2 if _err else 4.0",
        "_H = _H * (0.2 if not _f >= 0.2 else 4.0 if _f > 4.0 else _f)",
        "_held = _H < _dt",
        "if _held:",
        "    if not _hold:",
        "        return _now, _n, None",
        "    _H = _dt",
    ]
    body += ["    " + line for line in loop]
    head = f"def _run({', '.join(xs + ps)}, _dt, _T, _hold):\n"
    return head + "\n".join("    " + line for line in body)
