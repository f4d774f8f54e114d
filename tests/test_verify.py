"""Verification layer: bracket residuals, gradient ranks, flow drift."""

import math
import random

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
from casinv.verify import (
    FLOW_DRIFT_TOL,
    bracket_components,
    casimir_check,
    degeneracy_residual,
    flow_conservation,
    gradient,
    gradient_rank,
    gradients_parallel,
    random_polynomial_hamiltonian,
)

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


def test_casimir_check_rejects_non_invariant():
    sys_ = load_fixture("so3")
    chk = casimir_check(sys_.matrix, parse("x1", sys_.symbols))
    assert not chk.symbolic_ok
    assert chk.failed_components
    assert chk.max_residual > 1e-3


def test_degeneracy_residual_small_on_all_fixtures():
    for name in fixture_names():
        sys_ = load_fixture(name)
        decomp = sys_.matrix.decompose()
        gammas = solve_gamma(sys_.matrix, decomp)
        assert degeneracy_residual(sys_.matrix, gammas) < 1e-9, name


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
    rng = random.Random(5)
    draws = list(sample_values(exprs, VS, None, rng, 40))
    replay = random.Random(5)
    points = [random_point(VS, None, replay) for _ in range(40)]
    usable = [pt for pt in points if pt["x"] != 2 and pt["y"] > 5]
    assert 0 < len(draws) < 40
    assert [pt.values for pt, _ in draws] == [pt.values for pt in usable]
    for pt, values in draws:
        for e, v in zip(exprs, values):
            assert math.isclose(v, evaluate(e, pt), rel_tol=1e-12)
