"""Verification layer: bracket residuals, gradient ranks, flow drift."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casinv.expr import (
    EXPR_ZERO,
    VariableSet,
    _from_poly,
    compile_exprs,
    evaluate,
    free_symbols,
    parse,
    random_point,
    sample_values,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv.gamma import solve_gamma
from casinv.integrate import integrate_all
from casinv.poly import Poly
from casinv.sysfile import parse_system
from casinv.verify import (
    FLOW_DRIFT_TOL,
    FLOW_STEP_TOL,
    FlowResult,
    bracket_components,
    casimir_check,
    degeneracy_residual,
    flow_conservation,
    gradient,
    gradient_rank,
    numeric_rank,
)
from casinv.verify import _attempt, _flow_functions, _flow_source, _split
from gradients import gradients_parallel, random_polynomial_hamiltonian

VS = VariableSet(("x", "y"), ("a",))


def test_gradient_components():
    e = parse("x^2*y + a*x", VS)
    gx, gy = gradient(e, VS)
    assert gx == parse("2*x*y + a", VS)
    assert gy == parse("x^2", VS)


def test_bracket_annihilates_fixture_casimirs():
    for name in ("so3", "lv3-j1", "lv3-j2", "light-top"):
        sys_ = load_fixture(name)
        for expected, _tag in sys_.expect.casimirs.values():
            comps = bracket_components(sys_.matrix, expected)
            assert all(c.is_zero() for c in comps), name


def test_casimir_check_accepts_reference():
    sys_ = load_fixture("so3")
    expected, _ = sys_.expect.casimirs[1]
    chk = casimir_check(sys_.matrix, expected)
    assert chk.symbolic_ok
    assert chk.failed_components == ()
    assert chk.max_residual < 1e-12
    # every component is proved zero, so no point is drawn
    assert chk.samples == 0


def test_casimir_check_rejects_non_invariant():
    sys_ = load_fixture("so3")
    chk = casimir_check(sys_.matrix, parse("x1", sys_.symbols))
    assert not chk.symbolic_ok
    assert chk.failed_components
    assert chk.max_residual > 1e-3
    assert chk.samples == 30


def test_degeneracy_residual_small_on_all_fixtures():
    for name in fixture_names():
        sys_ = load_fixture(name)
        decomp = sys_.matrix.decompose()
        gammas = solve_gamma(sys_.matrix, decomp)
        assert degeneracy_residual(sys_.matrix, gammas) < 1e-9, name


def test_numeric_rank_counts_singular_values_above_tol():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 5, 5))
    stack = a - a.transpose(0, 2, 1)  # generic skew 5x5: rank 4
    stack[3] = 0.0
    stack[4, :2, :] = stack[4, :, :2] = 0.0  # a 3x3 skew block is left: rank 2
    assert [numeric_rank(m, 1e-9) for m in stack] == [4, 4, 4, 0, 2, 4]


def test_gradient_rank_counts_independents():
    e1 = parse("x^2 + y^2", VS)
    e2 = parse("x*y", VS)
    assert gradient_rank([e1, e2], VS, None) == 2
    assert gradient_rank([e1, e1 + e1], VS, None) == 1
    assert gradient_rank([], VS, None) == 0


def test_gradients_parallel_scaling_and_not():
    e = parse("x^2 + y^2", VS)
    assert gradients_parallel(e, parse("3*x^2 + 3*y^2", VS), VS)
    assert not gradients_parallel(e, parse("x*y", VS), VS)


def test_compile_matches_evaluate():
    exprs = [parse("x^2*y/(a + 1)", VS), parse("ln(x) - y", VS)]
    f = compile_exprs(exprs, VS)
    rng = random.Random(3)
    for _ in range(5):
        pt = random_point(VS, None, rng)
        vals = [float(pt[s]) for s in VS.all_symbols()]
        got = f(*vals)
        want = [evaluate(e, pt) for e in exprs]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12)


def test_compile_single_expression_still_tuple():
    f = compile_exprs([parse("x + y", VS)], VS)
    assert f(1.0, 2.0, 0.0) == (3.0,)


def test_flow_preserves_fixture_invariants():
    sys_ = load_fixture("so3")
    result = integrate_all(sys_.matrix)
    flow = flow_conservation(
        sys_.matrix, sys_.hamiltonian, [c.expr for c in result.casimirs]
    )
    # the controlled step grows past dt = 1e-3, far inside the fixed budget of 1000 steps
    assert 0 < flow.steps_per_trajectory < 100
    assert all(d < 1e-6 for d in flow.invariant_drifts)
    assert flow.hamiltonian_drift < 1e-6


def test_flow_detects_non_invariant():
    # the Hamiltonian is resolved, so no retry can hide the wrong invariants
    sys_ = load_fixture("so3")
    wrong = [parse("x1", sys_.symbols), parse("x1 + x2", sys_.symbols)]
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, wrong)
    assert flow.hamiltonian_drift < FLOW_DRIFT_TOL
    assert all(d > 1e-3 for d in flow.invariant_drifts)


def test_flow_random_hamiltonians_preserve_casimirs():
    sys_ = load_fixture("lv3-j1")
    result = integrate_all(sys_.matrix)
    invariants = [c.expr for c in result.casimirs]
    for k in range(3):
        rng = random.Random(f"ham:{k}")
        h = random_polynomial_hamiltonian(sys_.symbols, rng)
        flow = flow_conservation(sys_.matrix, h, invariants, seed=k)
        assert all(d < 1e-5 for d in flow.invariant_drifts), k


def test_flow_is_deterministic():
    sys_ = load_fixture("light-top")
    result = integrate_all(sys_.matrix)
    invariants = [c.expr for c in result.casimirs]
    a = flow_conservation(sys_.matrix, sys_.hamiltonian, invariants, seed=11)
    b = flow_conservation(sys_.matrix, sys_.hamiltonian, invariants, seed=11)
    assert a == b


def test_random_hamiltonian_degree_bound():
    rng = random.Random(0)
    h = random_polynomial_hamiltonian(VS, rng)
    assert not h.is_zero()
    for m, _c in h.num.terms.items():
        assert sum(e for _a, e in m) <= 2
    assert h.den.is_one()


def test_bracket_of_zero_is_zero():
    sys_ = load_fixture("so3")
    comps = bracket_components(sys_.matrix, EXPR_ZERO)
    assert all(c.is_zero() for c in comps)


# x' = -12*x*y, y' = -y: x decays by up to e^-12 while the step error is
# controlled relative to 1 + |x|, so ln(x) in H drifts past FLOW_DRIFT_TOL on
# some trajectories
DECAY = "system decay\nvars x y\ndomain x > 0\nJ[1][2] = x*y\nH = -12*y + ln(x)\n"
# x' = 100*y, y' = -100*x: RK4's error at dt = 1e-3 is far above FLOW_STEP_TOL
FAST = "system fast\nvars x y\nJ[1][2] = 1\nH = 50*x^2 + 50*y^2\n"
# x' = x^2 blows up at t = 1/x0
BLOW = "system blow\nvars x y\nJ[1][2] = x^2\nH = y\n"


def test_flow_judges_the_last_scale_as_it_comes():
    # the Hamiltonian drifts past FLOW_DRIFT_TOL; with no smaller scale left
    # the attempt still counts, drift and all
    sys_ = parse_system(DECAY)
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, [], scales=(1.0,))
    assert flow.completed == 5
    assert flow.aborted == ()
    assert flow.hamiltonian_drift > FLOW_DRIFT_TOL


def test_compile_accepts_keyword_and_log_names():
    vs = VariableSet(("lambda", "log"), ("None",))
    exprs = [parse("ln(lambda)*log + None", vs), parse("3", vs)]
    f = compile_exprs(exprs, vs)
    got = f(2.0, 3.0, 5.0)
    assert got == (math.log(2.0) * 3.0 + 5.0, 3.0)
    assert isinstance(got[1], float)


def test_sample_values_skips_singular_points_in_draw_order():
    exprs = [parse("1/(x - 2)", VS), parse("ln(y - 5)", VS)]
    for cap in (3, 40):
        rng = random.Random(5)
        draws = list(sample_values(exprs, VS, None, rng, cap))
        # replay random_point order up to the `cap`-th usable point
        replay = random.Random(5)
        usable = []
        skipped = 0
        while len(usable) < cap:
            pt = random_point(VS, None, replay)
            if pt["x"] != 2 and pt["y"] > 5:
                usable.append(pt)
            else:
                skipped += 1
        assert len(draws) == cap
        for pt, values in zip(usable, draws):
            for e, v in zip(exprs, values):
                assert math.isclose(v, evaluate(e, pt), rel_tol=1e-12)
        # and no point is drawn after the last one used
        assert rng.getstate() == replay.getstate()
    assert skipped > 0


def split_evaluator(exprs, symbols):
    """Float values of exprs through verify._split, in the generated functions' operations.

    Returns (coefficients, at).  coefficients(values) evaluates the
    non-numeric coefficients once, at the start point and parameters;
    at(values, coefs) takes each ln atom of a variable argument once, forms
    each term as its coefficient times its factors, left to right (a square
    as f * f, a higher power with **), and sums the terms left to right.
    Numeric and +-1 coefficients, which the generated code inlines or drops, enter
    as floats: multiplying by 1.0 or -1.0 is exact.
    """
    n = symbols.n
    variables = set(symbols.variables)
    splits = [_split(e, variables) for e in exprs]
    sums = [s for num, den in splits for s in (num, den) if s is not None]
    coefs = list(dict.fromkeys(c for s in sums for c, _ in s if not c.is_constant()))
    numbers = {c: float(c.const_value()) for s in sums for c, _ in s if c.is_constant()}
    atoms = list(
        dict.fromkeys(a for s in sums for _, part in s for a, _ in part if not isinstance(a, str))
    )
    f_coef = compile_exprs(coefs, symbols)
    f_arg = compile_exprs([a.arg for a in atoms], symbols)
    # a coefficient's slot: the compiled ones, then the numbers; a factor's
    # slot in the point: the variables, then the ln atoms
    cslot = {c: k for k, c in enumerate(coefs + list(numbers))}
    slot = {v: i for i, v in enumerate(symbols.variables)}
    slot.update((a, n + k) for k, a in enumerate(atoms))
    plan = [
        tuple(
            None if s is None else [(cslot[c], [(slot[a], e) for a, e in part]) for c, part in s]
            for s in pair
        )
        for pair in splits
    ]

    def coefficients(values):
        return list(f_coef(*values)) + list(numbers.values())

    def total(terms, point, cv):
        acc = None
        for c, factors in terms:
            t = cv[c]
            for i, e in factors:
                f = point[i]
                t = t * (f if e == 1 else f * f if e == 2 else f**e)
            acc = t if acc is None else acc + t
        return 0.0 if acc is None else acc

    def at(values, cv):
        point = values[:n] + [math.log(v) for v in f_arg(*values)]
        return [
            total(num, point, cv) if den is None else total(num, point, cv) / total(den, point, cv)
            for num, den in plan
        ]

    return coefficients, at


def canonical_evaluator(exprs, symbols):
    """The canonical forms N/D compiled whole, in split_evaluator's interface."""
    f = compile_exprs(exprs, symbols)
    return (lambda values: []), (lambda values, cv: f(*values))


FLOAT_FAIL = (OverflowError, ZeroDivisionError, ValueError)


def reference_flow(
    mat,
    hamiltonian,
    invariants,
    dt=1e-3,
    t_end=1.0,
    trajectories=5,
    seed=0,
    scales=(1.0, 0.5, 0.25, 0.125, 0.0625),
    evaluator=split_evaluator,
):
    """flow_conservation as a plain loop over the split forms, each attempt by reference_attempt.

    The float operations are the ones the generated functions must reproduce, in
    the same order.  The watchers' coefficients are evaluated with the
    watchers at the start point (a failure ends the attempt at t = 0), the
    field's next (a failure ends it at t = dt).  With
    evaluator=canonical_evaluator it is the loop over the canonical forms.
    """
    symbols = mat.symbols
    invariants = list(invariants)
    field_coefs, field = evaluator(bracket_components(mat, hamiltonian), symbols)
    watchers = invariants + [hamiltonian]
    watch_coefs, watch = evaluator(watchers, symbols)
    lower = [1e-6 if mat.domain.guarded_positive(v) else -1e6 for v in symbols.variables]
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
            try:
                wc = watch_coefs(x + pvals)
                base = watch(x + pvals, wc)
            except FLOAT_FAIL:
                aborted.append((traj, 0.0, scale))
                continue
            try:
                fc = field_coefs(x + pvals)
            except FLOAT_FAIL:
                aborted.append((traj, round(dt, 12), scale))
                continue
            t, steps, trial = reference_attempt(
                lambda y: field(y + pvals, fc),
                lambda y: watch(y + pvals, wc),
                base,
                lower,
                x,
                dt,
                t_end,
                k == last,
            )
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


def reference_attempt(f, watch, base, lower, x, dt, t_end, hold):
    """One attempt by RK4 with Richardson step doubling: (t, accepted steps, drifts or None).

    A step of size h is taken whole and as two halves; the error is the
    largest |half_i - whole_i| / (15 (1 + |half_i|)), NaN if any is.  Below
    FLOW_STEP_TOL (or when the step is held) the step is accepted: the
    midpoint and then the extrapolated state half + (half - whole)/15 pass
    the guards and the drift check.  The next h is h * 0.9 (tol/err)^(1/5)
    clamped to [0.2, 4]; below dt the attempt ends, or with hold the step is
    held at dt and accepted as it comes.
    """
    norm = [1.0 + abs(v) for v in base]
    trial = [0.0] * len(base)

    def fails(y):
        if not all(lo <= v <= 1e6 for lo, v in zip(lower, y)):
            return True
        try:
            now = watch(y)
        except FLOAT_FAIL:
            return True
        for i, v in enumerate(now):
            d = abs(v - base[i]) / norm[i]
            if not d <= trial[i]:
                if d != d:
                    return True
                trial[i] = d
        return False

    t, h, steps, held = 0.0, dt, 0, False
    while True:
        end = h >= t_end - t - 1e-9 * t_end
        if end:
            h = t_end - t
        try:
            k1 = f(x)
            mid = _rk4_step(f, x, 0.5 * h, k1)
        except FLOAT_FAIL:
            return t + 0.5 * h, steps, None
        try:
            half = _rk4_step(f, mid, 0.5 * h, f(mid))
            whole = _rk4_step(f, x, h, k1)
        except FLOAT_FAIL:
            return t + h, steps, None
        errs = [abs(a - b) / (15.0 * (1.0 + abs(a))) for a, b in zip(half, whole)]
        err = math.nan if any(q != q for q in errs) else max(errs)
        if err <= FLOW_STEP_TOL or held:
            if fails(mid):
                return t + 0.5 * h, steps, None
            x = [a + (a - b) / 15.0 for a, b in zip(half, whole)]
            if fails(x):
                return t + h, steps, None
            steps += 1
            if end:
                return t_end, steps, trial
            t = t + h
        # max(0.2, nan) is 0.2: a NaN error shrinks the step as far as it can
        h = h * min(4.0, max(0.2, 0.9 * (FLOW_STEP_TOL / err) ** 0.2 if err else 4.0))
        held = h < dt
        if held:
            if not hold:
                return t, steps, None
            h = dt


def _rk4_step(f, x, h, k1):
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [
        xi + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    ]


FLOW_FIXTURES = ["light-top", "lv3-j1", "lv3-j2", "so3", "symplectic2"]


@pytest.mark.parametrize("name", FLOW_FIXTURES)
def test_flow_matches_reference_loop_on_fixtures(name):
    # FlowResult == compares the drifts as floats: equal means bit-equal
    sys_ = load_fixture(name)
    invariants = [e for e, _tag in sys_.expect.casimirs.values()]
    for seed in range(5):
        args = (sys_.matrix, sys_.hamiltonian, invariants)
        assert flow_conservation(*args, seed=seed) == reference_flow(*args, seed=seed), seed


@pytest.mark.parametrize("name", ["lv3-j1", "light-top"])
def test_flow_matches_reference_loop_on_random_hamiltonians(name):
    sys_ = load_fixture(name)
    invariants = [e for e, _tag in sys_.expect.casimirs.values()]
    for k in range(2):
        h = random_polynomial_hamiltonian(sys_.symbols, random.Random(f"ham:{k}"))
        args = (sys_.matrix, h, invariants)
        assert flow_conservation(*args, seed=k) == reference_flow(*args, seed=k), k


def test_flow_matches_reference_loop_through_drift_retries():
    sys_ = parse_system(DECAY)
    args = (sys_.matrix, sys_.hamiltonian, [parse("y", sys_.symbols)])
    flow = flow_conservation(*args)
    assert any(t == 1.0 for _traj, t, _scale in flow.aborted)
    assert flow == reference_flow(*args)


def test_flow_matches_reference_loop_through_blow_up():
    # x' = x^2 blows up at t = 1/x0, inside the window at unit scale, where
    # the controller asks for a step below dt and cuts each attempt short
    sys_ = parse_system(BLOW)
    args = (sys_.matrix, sys_.hamiltonian, [])
    flow = flow_conservation(*args)
    assert flow.completed == 5
    assert {traj for traj, _t, scale in flow.aborted if scale == 1.0} == set(range(5))
    assert flow == reference_flow(*args)
    # held at dt on the only scale, the steps run on until the 1e6 escape; one
    # RK4 step from |x| <= 1e6 stays far below float overflow
    flow = flow_conservation(*args, scales=(1.0,))
    assert flow.completed == 0
    assert flow == reference_flow(*args, scales=(1.0,))


@pytest.mark.parametrize("dt, t_end", [(1e-3, 1.0), (0.01, 3.0), (0.25, 2.0)])
def test_flow_attempts_take_at_most_t_end_over_dt_steps(dt, t_end):
    # every accepted step but the last is at least dt long, so no attempt,
    # completed or cut short, held or not, goes past the fixed-step budget
    budget = round(t_end / dt)
    lv3 = load_fixture("lv3-j1")
    cases = [(parse_system(text), []) for text in (FAST, BLOW, DECAY)]
    cases.append((lv3, [e for e, _tag in lv3.expect.casimirs.values()]))
    rng = random.Random(0)
    for sys_, inv in cases:
        symbols = sys_.symbols
        functions = _flow_functions(sys_.matrix, sys_.hamiltonian, inv + [sys_.hamiltonian])
        for hold in (False, True):
            for _ in range(5):
                values = [rng.uniform(1.0, 2.0) for _ in symbols.all_symbols()]
                x, pvals = values[: symbols.n], values[symbols.n :]
                _t, steps, _drifts = _attempt(functions, x, pvals, dt, t_end, hold)
                assert steps <= budget, (symbols.variables, hold, steps)


def test_flow_holds_an_unresolved_step_at_dt_on_the_last_scale():
    # every step of the fast rotation is held at dt, and the held steps meet
    # the budget of 1000 exactly, with no sliver of a step past it
    sys_ = parse_system(FAST)
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, [], scales=(1.0,))
    assert flow.completed == 5
    assert flow.steps_per_trajectory == 1000
    assert flow == reference_flow(sys_.matrix, sys_.hamiltonian, [], scales=(1.0,))
    # on any other scale the first step already asks for less than dt
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, [], scales=(1.0, 0.5))
    assert [(t, scale) for _traj, t, scale in flow.aborted] == [(0.0, 1.0)] * 5


def test_flow_start_point_below_the_guard_aborts_at_the_first_half_point():
    # x starts in 1e-7 * [1, 2], below the 1e-6 guard of x > 0.  The start
    # point is not guarded, so each attempt ends at the first midpoint
    sys_ = parse_system(DECAY)
    args = (sys_.matrix, sys_.hamiltonian, [])
    flow = flow_conservation(*args, scales=(1e-7,))
    assert flow.completed == 0
    assert [t for _traj, t, _scale in flow.aborted] == [0.0005] * 5
    assert flow == reference_flow(*args, scales=(1e-7,))


@pytest.mark.parametrize(
    "bad", [{"dt": 0.0}, {"dt": math.nan}, {"t_end": -1.0}], ids=["dt-0", "dt-nan", "t_end-negative"]
)
def test_flow_rejects_a_step_or_window_that_is_not_finite_and_positive(bad):
    # dt = 0 or NaN would never advance t, and a negative t_end would run backwards
    sys_ = load_fixture("so3")
    with pytest.raises(ValueError, match="finite and positive"):
        flow_conservation(sys_.matrix, sys_.hamiltonian, [], **bad)


def test_flow_start_point_outside_a_watcher_domain_aborts_at_t0():
    # ln(x1 - 3) is undefined on every start box scale * [1, 2]
    sys_ = load_fixture("so3")
    args = (sys_.matrix, sys_.hamiltonian, [parse("ln(x1 - 3)", sys_.symbols)])
    flow = flow_conservation(*args, trajectories=2)
    assert flow.completed == 0
    assert [t for _traj, t, _scale in flow.aborted] == [0.0] * 10
    assert flow == reference_flow(*args, trajectories=2)


@pytest.mark.parametrize("watched", [[], ["ln(a)*x"]], ids=["field-only", "shared-parameter"])
def test_flow_undefined_field_coefficient_aborts_at_the_first_step(watched):
    # x' = ln(a - 3) is undefined for every a in scale * [1, 2].  The field's
    # factory computes that coefficient once per attempt, and its failure still ends
    # the attempt where the first field evaluation used to, at t = dt
    sys_ = parse_system("system f\nvars x y\nparams a\nJ[1][2] = ln(a - 3)\nH = y\n")
    inv = [parse(w, sys_.symbols) for w in watched]
    args = (sys_.matrix, sys_.hamiltonian, inv)
    flow = flow_conservation(*args, trajectories=2)
    assert flow.completed == 0
    assert [t for _traj, t, _scale in flow.aborted] == [0.001] * 10
    assert flow == reference_flow(*args, trajectories=2)


def test_flow_field_number_past_the_float_range_aborts_at_the_first_step():
    # x' = 10^400 has no float; the generated code keeps the exact literal, so the
    # first step overflows and ends the attempt instead of the build raising.
    # The failure is on the way to the first half point, t = dt/2
    sys_ = parse_system("system wide\nvars x y z\nJ[1][2] = 10^400\nH = x + y\n")
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, [parse("z", sys_.symbols)])
    assert flow.completed == 0
    assert {t for _traj, t, _scale in flow.aborted} == {0.0005}


def test_flow_nan_state_fails_the_check():
    # x' = 1e300*y overflows in the first stage and the state turns NaN.  NaN
    # compares False with everything, so it must be rejected explicitly.  The
    # NaN step error asks for a step below dt, which ends the attempt at t = 0;
    # on the last scale the step is held at dt and its NaN midpoint ends it
    sys_ = parse_system("system huge\nvars x y\nJ[1][2] = 10^300\nH = 1/2*x^2 + 1/2*y^2\n")
    args = (sys_.matrix, sys_.hamiltonian, [])
    flow = flow_conservation(*args)
    assert flow.completed == 0
    ends = {(t, scale == 0.0625) for _traj, t, scale in flow.aborted}
    assert ends == {(0.0, False), (0.0005, True)}
    assert flow == reference_flow(*args)


def test_flow_nan_drift_ends_the_attempt():
    # the state stays finite while the watched 1e308*(q^2 - p^2) overflows
    # at unit scale: inf - inf is NaN, which compares False with everything,
    # so the drift check must end the attempt itself, at the first half point
    sys_ = load_fixture("symplectic2")
    inv = [parse("10^308*q^2 - 10^308*p^2", sys_.symbols)]
    args = (sys_.matrix, sys_.hamiltonian, inv)
    flow = flow_conservation(*args)
    assert (0, 0.0005, 1.0) in flow.aborted
    assert flow == reference_flow(*args)


@pytest.mark.parametrize("name", FLOW_FIXTURES)
def test_split_kernel_agrees_with_the_canonical_loop(name):
    # the split form reorders float operations, so drifts move by roundoff,
    # while every trajectory completes at the same scale
    sys_ = load_fixture(name)
    invariants = [e for e, _tag in sys_.expect.casimirs.values()]
    args = (sys_.matrix, sys_.hamiltonian, invariants)
    for seed in range(5):
        got = flow_conservation(*args, seed=seed)
        want = reference_flow(*args, seed=seed, evaluator=canonical_evaluator)
        assert got.completed == want.completed, seed
        retries = Counter(traj for traj, _t, _scale in got.aborted)
        assert retries == Counter(traj for traj, _t, _scale in want.aborted), seed
        drifts = got.invariant_drifts + (got.hamiltonian_drift,)
        for g, w in zip(drifts, want.invariant_drifts + (want.hamiltonian_drift,)):
            assert abs(g - w) <= 1e-12, (seed, g, w)


@pytest.mark.parametrize("name", FLOW_FIXTURES)
def test_fixture_kernels_do_no_parameter_arithmetic_per_step(name):
    sys_ = load_fixture(name)
    symbols = sys_.symbols
    watchers = [e for e, _tag in sys_.expect.casimirs.values()] + [sys_.hamiltonian]
    field = bracket_components(sys_.matrix, sys_.hamiltonian)
    src = _flow_source(field, watchers, symbols, [-1e6] * symbols.n)
    # straight-line code: the loop, the controller and every failure exit are _attempt's
    assert not re.search(r"\b(while|for|if|else|try|except|raise|return None)\b", src)
    # what runs per evaluation: all but the factories' heads and their coefficients
    per_step = re.sub(r"(?m)^(def _(watching|moving)\(.*|    _c\d+ = .*)$", "", src)
    params = {f"_p{j}" for j in range(len(symbols.parameters))}
    assert not params & set(re.findall(r"_p\d+", per_step))
    # no division in the field or the watchers either: every denominator is parameter-only
    evaluated = [line for line in per_step.splitlines() if re.match(r" *_(k\d+_|v)\d+ = ", line)]
    assert evaluated
    assert not any("/" in line for line in evaluated)


SPLIT_SYSTEMS = {
    "ln-parameter": "system lnpar\nvars x y z\nparams a b\ndomain x > 0\n"
    "J[1][2] = ln(a)*x*z/b\nJ[1][3] = ln(a + b)*y\nJ[2][3] = x*ln(x*a)\n"
    "H = ln(b)*x^2 + y*z\n",
    "variable-denominator": "system vden\nvars x y z\nparams a\n"
    "J[1][2] = a*x/(x + a*y)\nJ[1][3] = z/(a*y^2 + 1)\nJ[2][3] = (x + 1)/a\n"
    "H = x*y/(z + a) + z\n",
}


def _split_cases():
    cases = []
    for name in FLOW_FIXTURES:
        sys_ = load_fixture(name)
        cases.append((sys_, [e for e, _tag in sys_.expect.casimirs.values()]))
    for text in SPLIT_SYSTEMS.values():
        cases.append((parse_system(text), []))
    return cases


SPLIT_CASES = _split_cases()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(SPLIT_CASES))), st.integers(0, 2**32))
def test_split_reassembles_the_canonical_form(case, seed):
    sys_, invariants = SPLIT_CASES[case]
    symbols = sys_.symbols
    h = random_polynomial_hamiltonian(symbols, random.Random(seed))
    exprs = list(bracket_components(sys_.matrix, h)) + invariants
    if sys_.hamiltonian is not None:
        exprs += [sys_.hamiltonian, *bracket_components(sys_.matrix, sys_.hamiltonian)]
    variables = set(symbols.variables)

    def total(terms):
        for c, part in terms:
            assert not free_symbols(c) & variables
            assert all(isinstance(a, str) or free_symbols(a.arg) & variables for a, _e in part)
        return sum((c * _from_poly(Poly({part: 1})) for c, part in terms), EXPR_ZERO)

    for e in exprs:
        num, den = _split(e, variables)
        assert (total(num) if den is None else total(num) / total(den)) == e
        # a parameter-only denominator is divided out when the source is generated
        assert (den is None) == (not (free_symbols(_from_poly(e.den)) & variables))


@pytest.mark.parametrize(
    "text",
    [
        "system clash\nvars h step\nparams steps\nJ[1][2] = steps*h\nH = h^2 + step^2\n",
        "system clash\nvars lambda log\nparams None\ndomain lambda > 0\n"
        "J[1][2] = None*lambda\nH = ln(lambda)*log + None*log^2\n",
    ],
    ids=["h-step-steps", "lambda-log-None"],
)
def test_flow_kernel_names_cannot_clash_with_symbols(text):
    sys_ = parse_system(text)
    watched = parse(sys_.symbols.variables[1], sys_.symbols)
    args = (sys_.matrix, sys_.hamiltonian, [watched])
    flow = flow_conservation(*args, seed=3)
    assert flow == reference_flow(*args, seed=3)
