"""Invariant extraction: integrating factors, potentials, form combinations.

The bundled systems carry their reference invariants, so the checks here
are sharp: literal equality where the normalized output is pinned down,
gradient parallelism where only the level sets are.
"""

import dataclasses
import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv import integrate, verify
from casinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Domain,
    VariableSet,
    _involves,
    differentiate,
    free_symbols,
    number,
    parse,
    random_point,
    random_rational,
    residue,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv.integrate import (
    IntegrationError,
    NonElementaryError,
    antiderivative,
    find_eta,
    integrate_all,
    integrate_closed,
    normalize_invariant,
)
from casinv.matrix import StructureMatrix
from casinv.poly import _PRIME
from casinv.gamma import solve_gamma
from casinv.sysfile import load_system, parse_system
from casinv.verify import gradient, gradient_rank
from elimination import rref
from gradients import gradients_parallel, random_polynomial_hamiltonian

VS = VariableSet(("x", "y", "z"), ("a",))
SYSTEMS = Path(__file__).parent / "systems"


def E(text: str):
    return parse(text, VS)


# -- antiderivatives -------------------------------------------------------------


def test_antiderivative_polynomial():
    g = E("3*x^2 + 2*x*y + a")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()
    assert F == E("x^3 + x^2*y + a*x")


def test_antiderivative_reciprocal_gives_ln():
    F = antiderivative(E("1/x"), "x", VS)
    assert F == E("ln(x)")


def test_antiderivative_monomial_denominator():
    g = E("(x^2 + y)/(x^2*y)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()


def test_antiderivative_linear_denominator():
    g = E("1/(x + y)")
    assert antiderivative(g, "x", VS) == E("ln(x + y)")


def test_antiderivative_linear_denominator_with_division():
    g = E("x^2/(x + 1)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()
    assert F == E("1/2*x^2 - x + ln(x + 1)")


def test_antiderivative_parameter_coefficient_linear():
    g = E("y/(a*x + y)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()


def test_antiderivative_quadratic_denominator_rejected():
    with pytest.raises(NonElementaryError):
        antiderivative(E("1/(x^2 + y)"), "x", VS)


def test_antiderivative_ln_of_variable_rejected():
    with pytest.raises(NonElementaryError):
        antiderivative(E("ln(x)"), "x", VS)


def test_antiderivative_ln_of_other_variable_is_constant():
    F = antiderivative(E("ln(y)"), "x", VS)
    assert F == E("x*ln(y)")


# -- closed forms and defects -----------------------------------------------------


def exactness_defects(coeffs, symbols):
    """Reference: d[a,b] = d(coeffs[b])/dx_a - d(coeffs[a])/dx_b for active a < b, symbolically.

    Pairs with an inactive member are omitted: their defect is identically
    zero.  The pipeline forms the defects as residues instead (see
    test_defect_residues_are_the_residues_of_the_symbolic_defects).
    """
    names = symbols.variables
    return {
        (a, b): differentiate(coeffs[b], names[a], symbols)
        - differentiate(coeffs[a], names[b], symbols)
        for a, b in itertools.combinations(integrate._active(coeffs, names)[1], 2)
    }


def test_exact_form_has_zero_defects():
    # d(x*y + z^2) = y dx + x dy + 2z dz
    coeffs = (E("y"), E("x"), E("2*z"))
    assert all(d.is_zero() for d in exactness_defects(coeffs, VS).values())


def dense_defects(coeffs, symbols):
    """Reference: the defect of every pair a < b, zero or not."""
    names = symbols.variables
    return {
        (a, b): differentiate(coeffs[b], names[a], symbols)
        - differentiate(coeffs[a], names[b], symbols)
        for a, b in itertools.combinations(range(len(names)), 2)
    }


def test_active_variables_reach_into_ln_arguments():
    coeffs = (E("ln(z)*a"), E("0"), E("0"))
    names = VS.variables
    reference = [v for v in names if any(_involves(c, v) for c in coeffs)]
    assert integrate._active(coeffs, names) == (reference, [0, 2]) == (["z"], [0, 2])


def test_defect_keys_are_the_active_pairs():
    # z has a zero coefficient and no coefficient involves it
    coeffs = (E("y"), E("0"), E("0"))
    d = exactness_defects(coeffs, VS)
    assert sorted(d) == [(0, 1)]
    assert d[(0, 1)] == E("-1")


@st.composite
def forms(draw):
    """1-forms in 3-5 variables: zero, polynomial and quotient coefficients."""
    n = draw(st.integers(3, 5))
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    var = st.integers(1, n).map(lambda v: f"x{v}")
    monomial = st.tuples(st.sampled_from([-2, 1, 3]), st.lists(var, max_size=2))
    poly_text = st.lists(monomial, min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"({c})" + "".join(f"*{v}" for v in fs) for c, fs in terms)
    )
    quotient = st.tuples(poly_text, var, st.integers(1, 3)).map(
        lambda t: f"({t[0]})/({t[1]} + {t[2]})"
    )
    texts = draw(st.lists(st.one_of(st.just("0"), poly_text, quotient), min_size=n, max_size=n))
    return tuple(parse(t, vs) for t in texts), vs


@settings(max_examples=60, deadline=None)
@given(forms())
def test_sparse_defects_match_dense_reference(form):
    coeffs, vs = form
    names = vs.variables
    involved = set().union(*(free_symbols(c) for c in coeffs))
    active = [a for a, v in enumerate(names) if v in involved or not coeffs[a].is_zero()]
    sparse = exactness_defects(coeffs, vs)
    dense = dense_defects(coeffs, vs)
    assert list(sparse) == list(itertools.combinations(active, 2))
    for ab, d in dense.items():
        assert sparse.get(ab, EXPR_ZERO) == d, ab


def test_integrate_closed_recovers_potential():
    # gradient of x*y + y*ln(x) + z^2
    coeffs = (E("y + y/x"), E("x + ln(x)"), E("2*z"))
    C = integrate_closed(coeffs, VS)
    for idx, v in enumerate(VS.variables):
        assert (differentiate(C, v, VS) - coeffs[idx]).is_zero()


def test_integrate_closed_rejects_open_form():
    with pytest.raises(NonElementaryError):
        integrate_closed((E("y"), E("-x"), EXPR_ZERO), VS)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["1", "a", "a + ln(a)", "3/7*a^2"]))
def test_polynomial_potential_equals_the_variable_by_variable_one(seed, scale):
    # gradients of random polynomials of degree <= 4, with parameter and ln(a) coefficients
    rng = random.Random(seed)
    h = random_polynomial_hamiltonian(VS, rng)
    c = h * h * E(scale) + random_polynomial_hamiltonian(VS, rng, max_degree=1)
    coeffs = gradient(c, VS)
    potential = integrate._polynomial_potential(coeffs, VS.variables)
    assert potential is not None
    assert potential == integrate._potential_by_variables(coeffs, VS)
    assert integrate_closed(coeffs, VS) == potential
    for v, coeff in zip(VS.variables, coeffs):
        assert differentiate(potential, v, VS) == coeff


@pytest.mark.parametrize(
    "texts",
    [("y/x", "1", "0"), ("x/(a + 1)", "0", "0"), ("ln(x)", "0", "0"), ("y*ln(x + z)", "0", "1")],
)
def test_forms_that_are_not_polynomial_take_the_variable_by_variable_route(texts):
    coeffs = tuple(E(t) for t in texts)
    assert integrate._polynomial_potential(coeffs, VS.variables) is None


@pytest.mark.parametrize(
    "texts",
    [("y", "-x", "0"), ("2*x*y", "x^2 + z", "y + x"), ("a*x^2", "ln(a)*y", "x*z"), ("y/x", "1", "0")],
)
def test_open_forms_raise_the_variable_by_variable_message(texts):
    coeffs = tuple(E(t) for t in texts)
    assert integrate._polynomial_potential(coeffs, VS.variables) is None
    with pytest.raises(NonElementaryError) as err:
        integrate_closed(coeffs, VS)
    assert str(err.value) == (
        "reconstruction residual in d/dx is not identically zero; "
        "the form is not closed over the supported class"
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(VS.variables), st.sampled_from(["x", "y*z", "a"]))
def test_open_polynomial_forms_fail_the_poly_check_like_the_old_route(seed, v, bump):
    # a random gradient with one coefficient bumped is not closed: the Poly check
    # refuses it and the variable-by-variable route raises its own message
    rng = random.Random(seed)
    coeffs = list(gradient(random_polynomial_hamiltonian(VS, rng), VS))
    k = VS.variables.index(v)
    coeffs[k] = coeffs[k] + E(bump) * E(v if bump == "a" else "y")
    assume(any(not (differentiate(coeffs[i], w, VS) - differentiate(coeffs[j], u, VS)).is_zero()
               for (i, u), (j, w) in itertools.combinations(enumerate(VS.variables), 2)))
    assert integrate._polynomial_potential(coeffs, VS.variables) is None
    with pytest.raises(NonElementaryError) as poly_route:
        integrate_closed(coeffs, VS)
    with pytest.raises(NonElementaryError) as by_variables:
        integrate._potential_by_variables(coeffs, VS)
    assert str(poly_route.value) == str(by_variables.value)


# -- integrating factor search -----------------------------------------------------


def assert_potential(factor, coeffs, vs):
    """The factor's potential is exact: dC = eta * w, term by term."""
    for v, c in zip(vs.variables, coeffs):
        assert differentiate(factor.potential, v, vs) == factor.expr * c, v


def test_eta_not_needed_for_closed_form():
    coeffs = (E("y"), E("x"), E("0"))
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.provenance == "not-needed"
    assert factor.expr == EXPR_ONE
    assert_potential(factor, coeffs, VS)


def test_eta_from_coefficient_factors():
    # x dx + z dy + ... no; use the classic: (x/z) dx + (y/z) dy + dz
    coeffs = (E("x/z"), E("y/z"), EXPR_ONE)
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.provenance == "reciprocal-coefficient"
    assert factor.expr == E("z")
    scaled = [factor.expr * c for c in coeffs]
    assert all(d.is_zero() for d in exactness_defects(scaled, VS).values())
    assert_potential(factor, coeffs, VS)


def test_eta_none_when_form_is_not_integrable():
    # y dx - x dy + dz has w ^ dw != 0: no integrating factor exists
    factor = find_eta((E("y"), E("-x"), EXPR_ONE), VS)
    assert factor is None


def test_eta_from_variable_monomial_search():
    # c (dx1 + dx2 + dx3) with c = 1/(x1*x2*x3): no product of one or two
    # coefficient factors closes it, the monomial x1*x2*x3 does
    vs = VariableSet(("x1", "x2", "x3"))
    c = parse("1/(x1*x2*x3)", vs)
    factor = find_eta((c, c, c), vs)
    assert factor is not None
    assert factor.provenance == "monomial-search"
    assert factor.expr == parse("x1*x2*x3", vs)
    assert_potential(factor, (c, c, c), vs)


def test_eta_exponent_is_solved_not_enumerated():
    # (x dx + y dy + dz)/z^3 needs z^3, a power no fixed exponent range covers
    coeffs = (E("x/z^3"), E("y/z^3"), E("1/z^3"))
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.expr == E("z^3")
    assert_potential(factor, coeffs, VS)


def test_eta_without_supported_potential_is_refused():
    # eta = 1/z closes the form, but its potential -1/(x^2 + y) needs an
    # antiderivative in x through a denominator mixing x-powers
    coeffs = (E("2*x*z/(x^2 + y)^2"), E("z/(x^2 + y)^2"), EXPR_ZERO)
    assert find_eta(coeffs, VS) is None


def test_eta_search_is_deterministic():
    coeffs = (E("x/z"), E("y/z"), EXPR_ONE)
    a = find_eta(coeffs, VS, seed=7)
    b = find_eta(coeffs, VS, seed=7)
    assert a == b
    assert_potential(a, coeffs, VS)


# -- normalization ------------------------------------------------------------------


def test_normalize_drops_parameter_denominator():
    e = E("(x + y)/a")
    assert normalize_invariant(e, VS) == E("x + y")


def test_normalize_scales_leading_coefficient():
    e = E("1/2*x^2 + 1/2*y^2")
    assert normalize_invariant(e, VS) == E("x^2 + y^2")


def test_normalize_keeps_variable_denominator():
    e = E("(x^2 + y)/z")
    assert normalize_invariant(e, VS) == e


# -- full pipeline on the bundled systems --------------------------------------------


def _invariants(name: str):
    sys_ = load_fixture(name)
    return sys_, integrate_all(sys_.matrix)


def test_lv3_j1_casimir_literal():
    sys_, result = _invariants("lv3-j1")
    assert result.target == 1
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert c.expr == expected
    assert c.provenance == "reciprocal-coefficient"
    assert c.eta == parse("1/x3", sys_.symbols)
    assert c.rows == (3,)


def test_lv3_j2_casimir_parallel_to_reference():
    sys_, result = _invariants("lv3-j2")
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert gradients_parallel(c.expr, expected, sys_.symbols, sys_.matrix.domain)
    assert c.provenance == "not-needed"
    assert c.eta == EXPR_ONE


def test_so3_casimir_is_the_sphere():
    sys_, result = _invariants("so3")
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert c.expr == expected
    assert c.eta == parse("x3", sys_.symbols)


def test_light_top_finds_both_invariants():
    sys_, result = _invariants("light-top")
    assert result.target == 2
    exprs = {c.expr for c in result.casimirs}
    for expected, _tag in sys_.expect.casimirs.values():
        assert expected in exprs


def test_light_top_combination_multipliers():
    sys_, result = _invariants("light-top")
    combo = next(c for c in result.casimirs if c.provenance == "form-combination")
    assert combo.rows == (3, 6)
    mults = dict(combo.multipliers)
    assert mults[3] == parse("F3", sys_.symbols)
    assert mults[6] == parse("M3", sys_.symbols)
    single = next(c for c in result.casimirs if c.provenance != "form-combination")
    assert single.eta == parse("F3", sys_.symbols)


def test_parameter_free_lotka_volterra_eta():
    # x1*x3 is a Casimir, so x1^k * x3^(k-1) closes the form for every k:
    # the search must still settle on the coefficient reciprocal 1/x3
    vs = VariableSet(("x1", "x2", "x3"))
    upper = {(1, 2): parse("-x1*x2", vs), (2, 3): parse("-x2*x3", vs)}
    result = integrate_all(StructureMatrix.from_upper(vs, upper))
    (c,) = result.casimirs
    assert c.provenance == "reciprocal-coefficient"
    assert c.eta == parse("1/x3", vs)


def test_full_rank_system_has_no_invariants():
    _, result = _invariants("symplectic2")
    assert result.target == 0
    assert result.casimirs == ()


def test_corrupt_system_raises_integration_error():
    sys_ = load_fixture("lv3-j1-corrupt")
    with pytest.raises(IntegrationError):
        integrate_all(sys_.matrix)


def test_null_matrix_every_coordinate_is_invariant():
    vs = VariableSet(("u", "v"), ())
    rows = ((EXPR_ZERO, EXPR_ZERO), (EXPR_ZERO, EXPR_ZERO))
    mat = StructureMatrix(vs, rows, Domain(), "null")
    result = integrate_all(mat)
    assert result.target == 2
    assert [c.expr for c in result.casimirs] == [parse("u", vs), parse("v", vs)]
    assert all(c.provenance == "not-needed" for c in result.casimirs)


def test_integrate_all_deterministic():
    sys_ = load_fixture("light-top")
    a = integrate_all(sys_.matrix, seed=5)
    b = integrate_all(sys_.matrix, seed=5)
    assert [str(c.expr) for c in a.casimirs] == [str(c.expr) for c in b.casimirs]
    assert a.notes == b.notes


# -- closedness rows mod p -----------------------------------------------------------


def _exact_draw(rng) -> Fraction:
    """Reference: the rational n/d that random_rational draws, exactly."""
    d = rng.randint(16, 128)
    return Fraction(rng.randint(d, 10 * d), d)


def _exact_value(e, point: dict, rng) -> Fraction:
    """Reference: e's exact value; a missing ln atom takes the exact draw, term by term."""

    def value(p):
        total = Fraction(0)
        for m, c in p.terms.items():
            for a, k in m:
                if a not in point:
                    point[a] = _exact_draw(rng)
                c = c * point[a] ** k
            total += c
        return total

    return value(e.num) / value(e.den)


_leaves = st.one_of(
    st.sampled_from(["x", "y", "z", "a", "ln(x)", "ln(x + y)", "ln(a*z)"]).map(E),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(number),
)
_exprs = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, kids.filter(lambda e: not e.is_zero())).map(lambda t: t[0] / t[1]),
        st.tuples(kids, st.integers(-2, 3)).filter(lambda t: not t[0].is_zero()).map(
            lambda t: t[0] ** t[1]
        ),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_exprs, st.integers(0, 2**32), st.sampled_from([None, "+", "-"]))
def test_residue_is_the_exact_value_mod_p(e, seed, sign):
    dom = Domain({"y": sign} if sign else {})
    exact_rng, residue_rng = random.Random(seed), random.Random(seed)
    exact = {s: dom.sample_sign(s) * _exact_draw(exact_rng) for s in VS.all_symbols()}
    point = random_point(VS, dom, residue_rng, _PRIME)
    try:
        want = _exact_value(e, exact, exact_rng)
    except ZeroDivisionError:
        assume(False)
    got = residue(e, point, residue_rng)
    assert got == want.numerator * pow(want.denominator, -1, _PRIME) % _PRIME
    # the ln atoms took the same draws, so the rng streams stay in step
    assert residue_rng.getstate() == exact_rng.getstate()


def _golden_systems():
    """The bundled systems that pass validation, then the pinned ones of tests/systems."""
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(p) for p in sorted(SYSTEMS.glob("*.psys"))]
    return [s for s in systems if s.expect.jacobi_ok is not False]


def test_sampled_rows_build_no_fraction(monkeypatch):
    # forms obstructed at their first point no longer sample rows, so the
    # pinned systems join the fixtures to keep the count meaningful
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def traced(fn):
        def run(*args):
            with monkeypatch.context() as m:
                m.setattr(Fraction, "__new__", counting)
                out = fn(*args)
            if fn is sampled_rows:
                traced.rows += len(out or ())
            return out

        return run

    traced.rows = 0
    sampled_rows = integrate._sampled_rows
    # the jets give the first point's decision and rows, outside _sampled_rows
    for name in ("_sampled_rows", "_jets", "_defects"):
        monkeypatch.setattr(integrate, name, traced(getattr(integrate, name)))
    for sys_ in _golden_systems():
        integrate_all(sys_.matrix)
    assert traced.rows > 100
    assert built == []


# -- forward-mode residues, defects and the Frobenius exit -----------------------------


@settings(max_examples=150, deadline=None)
@given(_exprs, st.integers(0, 2**32), st.sampled_from([None, "+", "-"]))
def test_forward_mode_partials_are_the_residues_of_the_derivatives(e, seed, sign):
    dom = Domain({"y": sign} if sign else {})
    rng = random.Random(seed)
    point = random_point(VS, dom, rng, _PRIME)
    try:
        value, partials = residue(e, point, rng, VS.variables)
    except ValueError:
        assume(False)
    # no rng from here on: every ln atom the derivatives hold is drawn already
    assert value == residue(e, point)
    assert partials == [residue(differentiate(e, v, VS), point) for v in VS.variables]


def reference_residue(e, point: dict, rng=None, wrt=None):
    """Reference: expr.residue without its fast paths (every coefficient inverts its
    denominator, every power goes through pow, and the quotient rule always runs)."""
    slots = None if wrt is None else {v: s for s, v in enumerate(wrt)}
    dlogs: dict = {}

    def atom(a):
        if rng is not None and a not in point:
            point[a] = random_rational(rng, _PRIME)
        return point[a]

    def partials(a) -> list:
        if isinstance(a, str):
            return [(slots[a], 1)] if a in slots else []
        if a not in dlogs:
            u, du = reference_residue(a.arg, point, rng, wrt)
            inv = pow(u, -1, _PRIME)
            dlogs[a] = [(s, g * inv) for s, g in enumerate(du) if g]
        return dlogs[a]

    def value(p):
        total = 0
        grad = None if slots is None else [0] * len(slots)
        for m, c in p.terms.items():
            t = c.numerator * pow(c.denominator, -1, _PRIME)
            if grad is None:
                for a, k in m:
                    t *= pow(atom(a), k, _PRIME)
                total += t
                continue
            powers = [pow(atom(a), k, _PRIME) for a, k in m]
            for i, (a, k) in enumerate(m):
                da = partials(a)
                if not da:
                    continue
                rest = t * k * pow(point[a], k - 1, _PRIME)
                for j, q in enumerate(powers):
                    if j != i:
                        rest = rest * q % _PRIME
                for s, g in da:
                    grad[s] += rest * g
            for q in powers:
                t *= q
            total += t
        return total, grad

    (nv, ng), (dv, dg) = value(e.num), value(e.den)
    inv = pow(dv, -1, _PRIME)
    v = nv * inv % _PRIME
    if slots is None:
        return v
    return v, [(a - v * b) * inv % _PRIME for a, b in zip(ng, dg)]


def _residue_or_error(fn, e, point, rng, wrt):
    try:
        return fn(e, point, rng, wrt)
    except ValueError as err:
        return type(err)


@settings(max_examples=200, deadline=None)
@given(
    _exprs,
    st.integers(0, 2**32),
    st.sampled_from([None, "+", "-"]),
    st.sampled_from([None, ("x", "y", "z"), ("z", "x"), ("y",)]),
)
def test_residue_fast_paths_match_the_reference(e, seed, sign, wrt):
    dom = Domain({"y": sign} if sign else {})
    rng, replay = random.Random(seed), random.Random(seed)
    point = random_point(VS, dom, rng, _PRIME)
    replay_point = random_point(VS, dom, replay, _PRIME)
    got = _residue_or_error(residue, e, point, rng, wrt)
    assert got == _residue_or_error(reference_residue, e, replay_point, replay, wrt)
    # the same ln atoms took the same draws, in the same order
    assert point == replay_point and list(point) == list(replay_point)
    assert rng.getstate() == replay.getstate()


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs, min_size=3, max_size=3), st.integers(0, 2**32))
def test_defect_residues_are_the_residues_of_the_symbolic_defects(coeffs, seed):
    names = VS.variables
    active = integrate._active(coeffs, names)[1]
    rng = random.Random(seed)
    point = random_point(VS, None, rng, _PRIME)
    try:
        jets = integrate._jets([coeffs[a] for a in active], [names[a] for a in active], point, rng)
    except ValueError:
        assume(False)
    got = {(active[i], active[j]): d for (i, j), d in integrate._defects(jets).items()}
    assert got == {ab: residue(d, point) for ab, d in exactness_defects(coeffs, VS).items()}


def _wedge_is_zero(coeffs, vs) -> bool:
    """Reference: every (w ^ dw)[a,b,c] = c_a d[b,c] - c_b d[a,c] + c_c d[a,b] is canonically 0."""
    d = exactness_defects(coeffs, vs)
    active = integrate._active(coeffs, vs.variables)[1]
    return all(
        (coeffs[a] * d[b, c] - coeffs[b] * d[a, c] + coeffs[c] * d[a, b]).is_zero()
        for a, b, c in itertools.combinations(active, 3)
    )


def _no_pool(coeffs):
    raise AssertionError("the factor pool was built")


def test_so4_forms_take_the_frobenius_exit(monkeypatch):
    sys_ = load_system(SYSTEMS / "so4.psys")
    monkeypatch.setattr(integrate, "_factor_pool", _no_pool)
    result = integrate_all(sys_.matrix)
    deferred = [note for note in result.notes if "no single integrating factor" in note]
    assert deferred == [
        f"row {r}: no single integrating factor, deferred to combinations" for r in (3, 4)
    ]
    assert {c.provenance for c in result.casimirs} == {"form-combination"}
    assert len(result.casimirs) == 2


def _nambu_systems():
    """The generated Nambu brackets of the benchmark's nambu3 workload, seed 0."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [parse_system(case.text) for case in workloads.nambu3_workload(0)]


def test_frobenius_exit_fires_only_where_no_eta_exists(monkeypatch):
    # where the exit fires, w ^ dw is canonically nonzero, so by Frobenius no
    # integrating factor exists and the full search could not have found one
    pools = []
    pool = integrate._factor_pool
    monkeypatch.setattr(integrate, "_factor_pool", lambda coeffs: pools.append(1) or pool(coeffs))
    fired = found = 0
    for sys_ in _golden_systems() + _nambu_systems():
        mat = sys_.matrix
        for form in solve_gamma(mat, mat.decompose()).forms:
            pools.clear()
            factor = find_eta(form, sys_.symbols, mat.domain)
            if factor is None and not pools:
                fired += 1
                assert not _wedge_is_zero(form, sys_.symbols), sys_.name
            elif factor is not None:
                found += 1
                assert pools or factor.provenance == "not-needed", sys_.name
                assert _wedge_is_zero(form, sys_.symbols), sys_.name
    assert fired >= 5 and found >= 100


def test_searches_form_no_symbolic_derivative(monkeypatch):
    # the closedness searches take defects and log-derivatives from residues;
    # only integrate_closed, the certificate, differentiates symbolically
    certifying = []
    closed, differentiate_ = integrate.integrate_closed, integrate.differentiate

    def certify(*args):
        certifying.append(1)
        try:
            return closed(*args)
        finally:
            certifying.pop()

    def guarded(*args):
        assert certifying, "a symbolic derivative outside integrate_closed"
        return differentiate_(*args)

    monkeypatch.setattr(integrate, "integrate_closed", certify)
    monkeypatch.setattr(integrate, "differentiate", guarded)
    proved = sum(len(integrate_all(s.matrix).casimirs) for s in _golden_systems())
    assert proved >= 20
    assert not hasattr(integrate, "exactness_defects")


# -- independence ------------------------------------------------------------------


def _exact_greedy(rows) -> list:
    """Reference: indices of the rows that raise the exact rank of those kept before."""
    kept = []
    for i, row in enumerate(rows):
        trial = [list(rows[k]) for k in kept] + [list(row)]
        pivots, _ = rref(trial, len(row), lambda v: v == 0)
        if len(pivots) == len(trial):
            kept.append(i)
    return kept


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_small_rows = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(_small, min_size=w, max_size=w), max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(_small_rows)
def test_mod_p_reduction_keeps_the_exact_greedy_rows(rows):
    # scaled to integers, the entries are at most 18 and every minor is at
    # most 4x4, so below p by Hadamard's bound: dependence mod p is exact here
    basis = []
    residues = [[residue(number(v), {}) for v in row] for row in rows]
    kept = [i for i, row in enumerate(residues) if integrate._joins(basis, row)]
    assert kept == _exact_greedy(rows)


def _light_top_candidates():
    sys_ = load_fixture("light-top")
    single, combo = integrate_all(sys_.matrix).casimirs
    assert single.rows == (6,) and combo.rows == (3, 6)
    return sys_, single, combo


def _forbid_votes(monkeypatch):
    def no_vote(*args, **kwargs):
        raise AssertionError("a gradient vote or a float rank was made")

    for name in ("gradient_rank", "numeric_rank"):
        monkeypatch.setattr(verify, name, no_vote)


def test_dependent_candidates_are_dropped_without_a_vote(monkeypatch):
    _forbid_votes(monkeypatch)
    sys_, single, combo = _light_top_candidates()
    mults = dict(combo.multipliers)
    summed = dataclasses.replace(
        combo,
        expr=combo.expr + single.expr,
        multipliers=((3, mults[3]), (6, mults[6] + single.eta)),
    )
    scaled = dataclasses.replace(
        combo, multipliers=tuple((r, m * number(-2)) for r, m in combo.multipliers)
    )
    candidates = [single, single, combo, summed, scaled]
    kept = integrate._independent(candidates, 3, (3, 6), sys_.symbols, sys_.matrix.domain, 0)
    assert kept == [single, combo]


@pytest.mark.parametrize("factor", ["ln(F3)", f"1/{_PRIME}"])
def test_multiplier_without_a_residue_is_decided_without_a_vote(monkeypatch, factor):
    # eta * ln(F3) has no residue and eta / p has a pole mod p: each single
    # form stands in by its unit row once zero_verdict finds eta nonzero
    _forbid_votes(monkeypatch)
    sys_, single, combo = _light_top_candidates()
    odd = dataclasses.replace(single, eta=single.eta * parse(factor, sys_.symbols))
    candidates = [odd, single, combo]
    kept = integrate._independent(candidates, 2, (3, 6), sys_.symbols, sys_.matrix.domain, 0)
    assert kept == [odd, combo]


def test_golden_systems_never_vote(monkeypatch):
    proved = 0
    for sys_ in _golden_systems():
        with monkeypatch.context() as m:
            _forbid_votes(m)
            result = integrate_all(sys_.matrix)
        proved += len(result.casimirs)
        # and the sampled vote agrees that the kept invariants are independent
        exprs = [c.expr for c in result.casimirs]
        assert gradient_rank(exprs, sys_.symbols, sys_.matrix.domain) == len(exprs), sys_.name
    assert proved >= 20
