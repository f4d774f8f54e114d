"""Verification layer: bracket residuals, gradient ranks, flow drift."""

import math
import random

import numpy as np
import pytest

from casinv.expr import (
    EXPR_ZERO,
    VariableSet,
    compile_exprs,
    evaluate,
    parse,
    random_point,
    sample_values,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv.gamma import solve_gamma
from casinv.integrate import integrate_all
from casinv.sysfile import parse_system
from casinv.verify import (
    FLOW_DRIFT_TOL,
    FlowResult,
    bracket_components,
    casimir_check,
    degeneracy_residual,
    flow_conservation,
    gradient,
    gradient_rank,
    numeric_rank,
    random_polynomial_hamiltonian,
)
from gradients import gradients_parallel

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
    assert flow.steps_per_trajectory == 1000
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


def test_flow_judges_the_last_scale_as_it_comes():
    # coarse steps leave the Hamiltonian drifting past FLOW_DRIFT_TOL; with no
    # smaller scale left the attempt still counts, drift and all
    sys_ = load_fixture("so3")
    inv = [sys_.expect.casimirs[1][0]]
    flow = flow_conservation(sys_.matrix, sys_.hamiltonian, inv, dt=0.25, t_end=2.0, scales=(1.0,))
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


def reference_flow(
    mat,
    hamiltonian,
    invariants,
    dt=1e-3,
    t_end=1.0,
    trajectories=5,
    seed=0,
    scales=(1.0, 0.5, 0.25, 0.125, 0.0625),
):
    """flow_conservation as a plain per-step loop over compiled evaluators.

    The float operations are the ones the generated kernel must reproduce, in
    the same order.  An evaluation error or an escape ends the attempt.
    """
    symbols = mat.symbols
    invariants = list(invariants)
    f_field = compile_exprs(bracket_components(mat, hamiltonian), symbols)
    watchers = invariants + [hamiltonian]
    f_watch = compile_exprs(watchers, symbols)
    guarded = [i for i, v in enumerate(symbols.variables) if mat.domain.guarded_positive(v)]
    rng = random.Random(f"flow:{seed}")
    steps = int(round(t_end / dt))
    drifts = [0.0] * len(watchers)
    aborted = []
    completed = 0
    fail = (OverflowError, ZeroDivisionError, ValueError)
    for traj in range(trajectories):
        for k, scale in enumerate(scales):
            x = [scale * rng.uniform(1.0, 2.0) for _ in symbols.variables]
            pvals = [scale * rng.uniform(1.0, 2.0) for _ in symbols.parameters]
            try:
                base = f_watch(*x, *pvals)
            except fail:
                aborted.append((traj, 0.0, scale))
                continue
            norm = [1.0 + abs(v) for v in base]
            trial = [0.0] * len(watchers)
            survived = True
            for step in range(steps):
                try:
                    x = _rk4_step(f_field, x, pvals, dt)
                    if any(x[g] < 1e-6 for g in guarded) or any(abs(v) > 1e6 for v in x):
                        survived = False
                    else:
                        now = f_watch(*x, *pvals)
                except fail:
                    survived = False
                if not survived:
                    aborted.append((traj, round((step + 1) * dt, 12), scale))
                    break
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
    sys_ = load_fixture("so3")
    inv = [sys_.expect.casimirs[1][0]]
    args = (sys_.matrix, sys_.hamiltonian, inv)
    flow = flow_conservation(*args, dt=0.25, t_end=2.0)
    assert any(t == 2.0 for _traj, t, _scale in flow.aborted)
    assert flow == reference_flow(*args, dt=0.25, t_end=2.0)


def test_flow_matches_reference_loop_through_blow_up():
    # x' = x^2 blows up at t = 1/x0, inside the window at unit scale.  One
    # RK4 step from |x| <= 1e6 stays far below float overflow, so each of
    # these attempts ends by the 1e6 escape
    sys_ = parse_system("system blow\nvars x y\nJ[1][2] = x^2\nH = y\n")
    args = (sys_.matrix, sys_.hamiltonian, [])
    flow = flow_conservation(*args)
    assert flow.completed == 5
    assert {traj for traj, _t, scale in flow.aborted if scale == 1.0} == set(range(5))
    assert flow == reference_flow(*args)


def test_flow_start_point_outside_a_watcher_domain_aborts_at_t0():
    # ln(x1 - 3) is undefined on every start box scale * [1, 2]
    sys_ = load_fixture("so3")
    args = (sys_.matrix, sys_.hamiltonian, [parse("ln(x1 - 3)", sys_.symbols)])
    flow = flow_conservation(*args, trajectories=2)
    assert flow.completed == 0
    assert [t for _traj, t, _scale in flow.aborted] == [0.0] * 10
    assert flow == reference_flow(*args, trajectories=2)


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
